#pragma once
/// Shared helpers for the table-reproduction harnesses.
///
/// Every harness prints (a) what the paper reported and (b) what this
/// reproduction measures, so EXPERIMENTS.md can be regenerated by
/// running the binaries. Defaults are sized for a small machine; pass
/// `--full` to run the paper's exact sizes (n up to 4M).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/bucketed.hpp"
#include "core/conventional.hpp"
#include "core/permuter.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hmm::bench {

/// Median-of-`reps` wall-clock milliseconds of `fn()`.
template <class Fn>
double time_ms(Fn&& fn, int reps = 3) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch sw;
    fn();
    samples.push_back(sw.millis());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// The paper's five permutation families (Section IV / Table II).
inline std::vector<std::string> paper_families() {
  return {"identical", "shuffle", "random", "bit-reversal", "transpose"};
}

/// Table II column sizes in elements; the paper labels columns
/// 256..4096 in units of K elements.
inline std::vector<std::uint64_t> table2_sizes(bool full, bool is_double,
                                               bool extended = false) {
  std::vector<std::uint64_t> sizes = {256ull << 10, 512ull << 10, 1024ull << 10};
  if (full || extended) {
    sizes.push_back(2048ull << 10);
    if (!is_double) sizes.push_back(4096ull << 10);  // paper stops doubles at 2M
  }
  if (extended) {
    // Beyond the paper's range: on a host CPU the LLC is much larger
    // than the GTX-680's 512 KiB L2, so the conventional/scheduled
    // crossover sits further right — these sizes expose it.
    sizes.push_back(8192ull << 10);
    if (!is_double) sizes.push_back(16384ull << 10);
  }
  return sizes;
}

inline std::string size_label(std::uint64_t n) {
  return util::format_count(n >> 10) + "K";
}

/// Measured cell for one (algorithm, permutation, n): host wall-clock
/// and simulated HMM time units.
struct Measurement {
  double cpu_ms = 0;
  std::uint64_t sim_units = 0;
};

/// The paper's three algorithms measured on one permutation instance,
/// and the host's bucketed kernel beside them.
template <class T>
struct TrioResult {
  Measurement d_designated;
  Measurement s_designated;
  Measurement scheduled;
  Measurement bucketed;
  std::uint64_t dist = 0;      ///< d_w(P)
  std::uint64_t dist_inv = 0;  ///< d_w(P^-1)
};

/// Run D-designated, S-designated, scheduled and bucketed on
/// permutation `p` with element type T (bucketed with the band kAuto
/// would give it on this host). `measure_sim=false` skips the simulator pass
/// (used by the largest sizes to keep default runs quick).
template <class T>
TrioResult<T> run_trio(const perm::Permutation& p, const model::MachineParams& mp,
                       util::ThreadPool& pool, bool measure_sim, int reps = 3) {
  const std::uint64_t n = p.size();
  // Wider elements keep w-thread warps but an element group holds only
  // w/words elements (the Table II float/double gap).
  const std::uint32_t words = model::words_of<T>();
  const std::uint32_t group_width = mp.width / words;

  TrioResult<T> out;
  out.dist = perm::distribution_groups(p, mp.width, group_width);
  out.dist_inv = perm::inverse_distribution_groups(p, mp.width, group_width);

  util::aligned_vector<T> a(n), b(n), s1(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<T>(i & 0xffff);

  const perm::Permutation pinv = p.inverse();
  out.d_designated.cpu_ms =
      time_ms([&] { core::d_designated_cpu<T>(pool, a, b, p); }, reps);
  out.s_designated.cpu_ms =
      time_ms([&] { core::s_designated_cpu<T>(pool, a, b, pinv); }, reps);

  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  out.scheduled.cpu_ms =
      time_ms([&] { core::scheduled_cpu<T>(pool, plan, a, b, s1); }, reps);

  const core::BucketedPlan buckets = core::BucketedPlan::build(
      p, core::BucketedPlan::band_for(n, sizeof(T), core::host_params(0).l2_bytes),
      core::BucketedPlan::skew_for(sizeof(T)));
  util::aligned_vector<T> packed(buckets.packed_size());
  out.bucketed.cpu_ms = time_ms(
      [&] { (void)core::bucketed_cpu<T>(pool, buckets, a, b, packed); }, reps);

  if (measure_sim) {
    sim::HmmSim sim(mp);
    out.d_designated.sim_units = core::d_designated_sim_rounds(sim, p, words);
    sim.reset();
    out.s_designated.sim_units = core::s_designated_sim_rounds(sim, pinv, words);
    sim.reset();
    out.scheduled.sim_units = core::scheduled_sim_rounds(sim, plan, words);
    for (const perm::Permutation& gather : buckets.gathers()) {
      sim.reset();
      out.bucketed.sim_units += core::s_designated_sim_rounds(sim, gather, words);
    }
  } else {
    // Closed forms are exact for these algorithms (verified by tests).
    out.d_designated.sim_units = model::d_designated_time(n, out.dist, mp, words);
    out.s_designated.sim_units = model::s_designated_time(n, out.dist_inv, mp, words);
    out.scheduled.sim_units = model::scheduled_time(n, mp, words);
    out.bucketed.sim_units = core::bucketed_time(buckets, mp, words);
  }
  return out;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n================================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << " of Kasagi/Nakano/Ito, ICPP 2013)\n"
            << "================================================================\n";
}

}  // namespace hmm::bench
