/// \file quickstart.cpp
/// \brief 60-second tour of the library's public API:
///   1. pick a permutation,
///   2. build a ScheduledPlan once (offline),
///   3. execute it on any number of arrays (online), and
///   4. compare against the conventional algorithm on both backends.
///
/// Build & run:  ./quickstart [--n 1M]

#include <iostream>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 1 << 20);

  // 1. The permutation to perform offline: here, FFT bit-reversal.
  const perm::Permutation p = perm::bit_reversal(n);

  // 2. Offline: compile the permutation into a conflict-free 3-pass
  //    plan for a GTX-680-like machine (w=32 banks, 8 SMs, 48KiB shared).
  const model::MachineParams machine = model::MachineParams::gtx680();
  util::Stopwatch sw;
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, machine);
  std::cout << "plan: n=" << n << " viewed as " << plan.shape().rows << "x"
            << plan.shape().cols << ", built in " << util::format_ms(sw.millis())
            << " ms, gather tables " << util::format_bytes(plan.gather_bytes())
            << ", fits the GPU's shared memory for float: "
            << (plan.fits_shared(sizeof(float)) ? "yes" : "no") << "\n";

  // 3. Online: permute a data array. The plan is data-independent —
  //    reuse it for as many arrays as you like.
  util::aligned_vector<float> a(n), b(n), s1(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i);

  util::ThreadPool pool;
  sw.reset();
  core::scheduled_cpu<float>(pool, plan, a, b, s1);
  const double t_sched = sw.millis();

  // 4. The conventional baseline (b[p[i]] = a[i]) for comparison.
  util::aligned_vector<float> b2(n);
  sw.reset();
  core::d_designated_cpu<float>(pool, a, b2, p);
  const double t_conv = sw.millis();

  const bool match = b == b2;
  std::cout << "scheduled: " << util::format_ms(t_sched) << " ms, conventional: "
            << util::format_ms(t_conv) << " ms, results match: "
            << (match ? "yes" : "NO") << "\n";

  // Bonus: what the theoretical HMM machine says about both. The
  // simulator replays the paper's kernels on the (p̂, q) bank schedules,
  // derived from the plan on demand (core::bank_schedules).
  sim::HmmSim sim(machine);
  const std::uint64_t units_sched = core::scheduled_sim_rounds(sim, plan);
  sim.reset();
  const std::uint64_t units_conv = core::d_designated_sim_rounds(sim, p);
  std::cout << "HMM model: scheduled " << units_sched << " units vs conventional "
            << units_conv << " units ("
            << util::format_double(static_cast<double>(units_conv) /
                                       static_cast<double>(units_sched),
                                   2)
            << "x in the paper's model)\n";
  return match ? 0 : 1;
}
