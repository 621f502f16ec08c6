/// \file bench_table3_random.cpp
/// \brief Reproduces **Table III**: sample many uniformly random
///        permutations and report the min / average / max running time
///        of the three algorithms plus the distribution ratio d_w(P)/n,
///        with the host's bucketed kernel beside them.
///
/// The paper samples 1000 permutations of 4M doubles and finds
/// d_w(P)/n in [0.99987, 0.99990], near-zero variance for every
/// algorithm, and the scheduled algorithm ~2.45x faster than
/// D-designated. Defaults here: 25 samples of 512K (pass --full for
/// 1000 x 4M — slow on a laptop-class host).
///
/// Usage: bench_table3_random [--n 512K] [--samples 25] [--full] [--csv]

#include "bench_common.hpp"

#include <algorithm>
#include <iostream>

namespace {

using namespace hmm;

struct Agg {
  double min = 1e300, sum = 0, max = 0;
  void add(double v) {
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
  }
  [[nodiscard]] double avg(int k) const { return sum / k; }
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"csv", "full", "n", "samples"}, std::cerr)) return 2;
  const bool full = cli.get_bool("full");
  const std::uint64_t n = full ? (4096ull << 10) : cli.get_int("n", 512ull << 10);
  const int samples = full ? 1000 : static_cast<int>(cli.get_int("samples", 25));
  const bool csv = cli.get_bool("csv");

  const model::MachineParams mp = model::MachineParams::gtx680();
  util::ThreadPool pool;

  bench::print_header("Table III — statistics over uniformly random permutations",
                      "Table III");
  std::cout << "n = " << bench::size_label(n) << " doubles, " << samples
            << " random permutations (paper: 1000 x 4M).\n\n";

  Agg cpu_d, cpu_s, cpu_sched, cpu_bucket, sim_d, sim_s, sim_sched, sim_bucket, dist_ratio;
  for (int s = 0; s < samples; ++s) {
    const perm::Permutation p = perm::by_name("random", n, 1000 + s);
    const auto r = bench::run_trio<double>(p, mp, pool, /*measure_sim=*/false, /*reps=*/1);
    cpu_d.add(r.d_designated.cpu_ms);
    cpu_s.add(r.s_designated.cpu_ms);
    cpu_sched.add(r.scheduled.cpu_ms);
    cpu_bucket.add(r.bucketed.cpu_ms);
    sim_d.add(static_cast<double>(r.d_designated.sim_units));
    sim_s.add(static_cast<double>(r.s_designated.sim_units));
    sim_sched.add(static_cast<double>(r.scheduled.sim_units));
    sim_bucket.add(static_cast<double>(r.bucketed.sim_units));
    dist_ratio.add(static_cast<double>(r.dist) / static_cast<double>(n));
  }

  util::Table table(
      {"statistic", "D-designated", "S-designated", "Scheduled", "Bucketed", "d_w(P)/n"});
  const auto ms_row = [&](const char* label, auto&& stat) {
    table.add_row({label, util::format_ms(stat(cpu_d)), util::format_ms(stat(cpu_s)),
                   util::format_ms(stat(cpu_sched)), util::format_ms(stat(cpu_bucket)),
                   util::format_double(stat(dist_ratio), 5)});
  };
  const auto units_row = [&](const char* label, auto&& stat) {
    const auto units = [&](const Agg& a) {
      return util::format_count(static_cast<std::uint64_t>(stat(a)));
    };
    table.add_row({label, units(sim_d), units(sim_s), units(sim_sched), units(sim_bucket), ""});
  };
  const auto min = [](const Agg& a) { return a.min; };
  const auto avg = [&](const Agg& a) { return a.avg(samples); };
  const auto max = [](const Agg& a) { return a.max; };
  ms_row("host ms   minimum", min);
  ms_row("host ms   average", avg);
  ms_row("host ms   maximum", max);
  table.add_separator();
  units_row("HMM units minimum", min);
  units_row("HMM units average", avg);
  units_row("HMM units maximum", max);
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::cout << "\nPaper (1000 x 4M doubles): D 424.87-426.39ms, S 397.89-398.77ms, "
               "scheduled 173.50-173.92ms, d_w(P)/n 0.99987-0.99990.\n"
            << "Shape checks:\n"
            << "  scheduled model time constant across samples: "
            << (sim_sched.min == sim_sched.max ? "yes" : "NO") << "\n"
            << "  model speedup D/scheduled = "
            << util::format_double(sim_d.avg(samples) / sim_sched.avg(samples), 2)
            << "x (paper: 2.45x)\n"
            << "  host speedup  D/scheduled = "
            << util::format_double(cpu_d.avg(samples) / cpu_sched.avg(samples), 2) << "x\n";
  return 0;
}
