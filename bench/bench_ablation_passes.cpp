/// \file bench_ablation_passes.cpp
/// \brief Ablation of the online phase's pass structure on the host:
///  * the scheduled plan's three gather sweeps against the same sweeps
///    on identity tables (h(r, c) = c): the same 30 B/element of table
///    and data traffic with in-order gathers, which isolates what
///    following the plan's scattered in-band gathers costs;
///  * per-sweep breakdown vs the conventional single scatter — where
///    the 3x traffic goes.
///
/// Usage: bench_ablation_passes [--n 1M] [--reps 3] [--csv]

#include "bench_common.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"csv", "n", "reps"}, std::cerr)) return 2;
  const std::uint64_t n = cli.get_int("n", 1 << 20);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const bool csv = cli.get_bool("csv");

  bench::print_header("Ablation — pass structure & schedule-read overhead (host)",
                      "Section VIII implementation notes");

  const model::MachineParams mp = model::MachineParams::gtx680();
  util::ThreadPool pool;
  const perm::Permutation p = perm::bit_reversal(n);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  const std::uint64_t r = plan.shape().rows;
  const std::uint64_t m = plan.shape().cols;

  // Identity gather tables of the plan's shape: the same three sweeps
  // with every entry h(r, c) = c, so the gathers walk each row in order.
  util::aligned_vector<std::uint16_t> id1(n), id2(n), id3(n);
  for (std::uint64_t row = 0; row < r; ++row) {
    for (std::uint64_t c = 0; c < m; ++c) {
      id1[cpu::band_offset(r, m, row, c)] = static_cast<std::uint16_t>(c);
      id3[row * m + c] = static_cast<std::uint16_t>(c);
    }
  }
  for (std::uint64_t row = 0; row < m; ++row) {
    for (std::uint64_t c = 0; c < r; ++c) {
      id2[cpu::band_offset(m, r, row, c)] = static_cast<std::uint16_t>(c);
    }
  }
  const core::SweepTables identity{r, m, id1, id2, id3};

  util::aligned_vector<float> a(n, 1.f), b(n), s(n);
  core::Lane<float> lane{a, b, s};
  const std::span<core::Lane<float>> lanes(&lane, 1);
  const float* src = a.data();
  float* dst = s.data();
  const std::span<const float* const> in(&src, 1);
  const std::span<float* const> out(&dst, 1);

  const double t_sched =
      bench::time_ms([&] { core::scheduled_cpu<float>(pool, plan, lanes); }, reps);
  const double t_identity =
      bench::time_ms([&] { core::scheduled_cpu<float>(pool, identity, lanes); }, reps);
  const double t_conv =
      bench::time_ms([&] { core::d_designated_cpu<float>(pool, a, b, p); }, reps);

  const double t_band1 = bench::time_ms(
      [&] { cpu::band_sweep<float>(pool, in, out, r, m, plan.gather1()); }, reps);
  const double t_band2 = bench::time_ms(
      [&] { cpu::band_sweep<float>(pool, in, out, m, r, plan.gather2()); }, reps);
  const double t_row3 = bench::time_ms(
      [&] { cpu::row_sweep<float>(pool, in, out, r, m, plan.gather3()); }, reps);

  util::Table table({"variant", "ms", "vs conventional", "notes"});
  auto ratio = [&](double t) { return util::format_double(t / t_conv, 2) + "x"; };
  table.add_row({"D-designated (1 scatter)", util::format_ms(t_conv), "1.00x",
                 "casual writes"});
  table.add_row({"scheduled, three sweeps", util::format_ms(t_sched), ratio(t_sched),
                 "reads the plan's gather tables"});
  table.add_row({"three sweeps, identity", util::format_ms(t_identity), ratio(t_identity),
                 "same movement, in-order tables"});
  table.add_separator();
  table.add_row({"band sweep 1 (row pass 1 + T)", util::format_ms(t_band1), ratio(t_band1),
                 "of 3 in the pipeline"});
  table.add_row(
      {"band sweep 2 (row pass 2 + T)", util::format_ms(t_band2), ratio(t_band2), ""});
  table.add_row({"row sweep 3", util::format_ms(t_row3), ratio(t_row3), ""});
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::cout << "\nn = " << bench::size_label(n)
            << " float32. Expected: the three sweeps ~= the scheduled total;\n"
               "scheduled minus identity is what following the plan's scattered\n"
               "in-band gathers costs over streaming the same 30 B/element (the\n"
               "paper's GPU reads its schedules essentially for free thanks to\n"
               "coalescing).\n";
  return 0;
}
