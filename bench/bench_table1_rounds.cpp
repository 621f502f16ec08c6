/// \file bench_table1_rounds.cpp
/// \brief Reproduces **Table I**: the number of memory-access rounds of
///        every algorithm per class (casual / coalesced / conflict-free)
///        and the HMM running time, measured by instrumenting the
///        simulator, next to the paper's closed forms.
///
/// Usage: bench_table1_rounds [--n 65536] [--width 32] [--latency 300]
///                            [--dmms 8] [--csv]

#include "bench_common.hpp"

#include <array>
#include <iostream>

#include "core/ops.hpp"

namespace {

using namespace hmm;

/// Collect the round inventory + time of one simulated run.
struct Row {
  std::string name;
  model::RoundCounts observed;
  std::uint64_t sim_time = 0;
  std::uint64_t formula_time = 0;
  bool declarations_ok = true;
};

std::vector<std::string> cells(const Row& r) {
  const auto& c = r.observed;
  return {r.name,
          util::format_count(c.casual_read_global),
          util::format_count(c.casual_write_global),
          util::format_count(c.coalesced_read),
          util::format_count(c.coalesced_write),
          util::format_count(c.conflict_free_read),
          util::format_count(c.conflict_free_write),
          util::format_count(c.total_rounds()),
          util::format_count(r.sim_time),
          util::format_count(r.formula_time),
          r.declarations_ok ? "yes" : "NO"};
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"csv", "dmms", "latency", "n", "width"}, std::cerr)) return 2;
  const std::uint64_t n = cli.get_int("n", 1 << 16);
  model::MachineParams mp;
  mp.width = static_cast<std::uint32_t>(cli.get_int("width", 32));
  mp.latency = static_cast<std::uint32_t>(cli.get_int("latency", 300));
  mp.dmms = static_cast<std::uint32_t>(cli.get_int("dmms", 8));
  mp.validate();

  bench::print_header("Table I — memory access rounds and HMM running time", "Table I");
  std::cout << "n = " << n << ", width = " << mp.width << ", latency = " << mp.latency
            << ", dmms = " << mp.dmms << "\n"
            << "Permutation used for the conventional rows: bit-reversal "
               "(d_w(P) = n, the worst case).\n\n";

  // Bit-reversal gives the conventional algorithms their worst-case
  // distribution; the scheduled algorithm's rounds are permutation-
  // independent (asserted below by also running the identical case).
  const perm::Permutation p = perm::bit_reversal(n);
  const perm::Permutation pinv = p.inverse();
  const std::uint64_t dist = perm::distribution(p, mp.width);

  std::vector<Row> rows;

  {
    sim::HmmSim sim(mp);
    Row r;
    r.name = "D-designated";
    r.sim_time = core::d_designated_sim_rounds(sim, p);
    r.observed = sim.stats().observed_counts();
    r.formula_time = model::d_designated_time(n, dist, mp);
    r.declarations_ok = sim.stats().declarations_hold();
    rows.push_back(r);
  }
  {
    sim::HmmSim sim(mp);
    Row r;
    r.name = "S-designated";
    r.sim_time = core::s_designated_sim_rounds(sim, pinv);
    r.observed = sim.stats().observed_counts();
    r.formula_time = model::s_designated_time(n, perm::inverse_distribution(p, mp.width), mp);
    r.declarations_ok = sim.stats().declarations_hold();
    rows.push_back(r);
  }

  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  const std::array<core::RowScheduleSet, 3> schedules = core::bank_schedules(plan);
  {
    sim::HmmSim sim(mp);
    Row r;
    r.name = "Scheduled (ours)";
    r.sim_time = core::scheduled_sim_rounds(sim, plan.shape(), schedules);
    r.observed = sim.stats().observed_counts();
    r.formula_time = model::scheduled_time(n, mp);
    r.declarations_ok = sim.stats().declarations_hold();
    rows.push_back(r);
  }

  // Component rows (transpose / row-wise / column-wise), measured by
  // running the standalone ops on the simulator.
  const core::MatrixShape shape = core::shape_for(n, mp.width);
  {
    sim::HmmSim sim(mp);
    Row r;
    r.name = "  transpose (component)";
    r.sim_time = core::transpose_sim_rounds(sim, shape.rows, shape.cols);
    r.observed = sim.stats().observed_counts();
    r.formula_time = model::transpose_time(n, mp);
    r.declarations_ok = sim.stats().declarations_hold();
    rows.push_back(r);
  }
  {
    sim::HmmSim sim(mp);
    Row r;
    r.name = "  row-wise (component)";
    r.sim_time = core::row_wise_sim_rounds(sim, schedules[0]);
    r.observed = sim.stats().observed_counts();
    r.formula_time = model::row_wise_time(n, mp);
    r.declarations_ok = sim.stats().declarations_hold();
    rows.push_back(r);
  }
  {
    sim::HmmSim sim(mp);
    Row r;
    r.name = "  column-wise (component)";
    r.sim_time = core::column_wise_sim_rounds(sim, "colwise", schedules[1], shape.rows,
                                              shape.cols);
    r.observed = sim.stats().observed_counts();
    r.formula_time = model::column_wise_time(n, mp);
    r.declarations_ok = sim.stats().declarations_hold();
    rows.push_back(r);
  }

  util::Table table({"algorithm", "casual rd", "casual wr", "coal rd", "coal wr", "cf rd",
                     "cf wr", "rounds", "sim time", "formula", "decl ok"});
  for (const auto& r : rows) table.add_row(cells(r));
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::cout << "\nLower bound max(2n/w, l) = " << model::lower_bound(n, mp)
            << " time units;  scheduled/lower-bound = "
            << util::format_double(
                   static_cast<double>(model::scheduled_time(n, mp)) /
                       static_cast<double>(model::lower_bound(n, mp)),
                   2)
            << "x (Theorem 9: optimal up to the constant).\n";

  // Cross-check: the scheduled inventory equals Table I regardless of P.
  {
    sim::HmmSim sim(mp);
    const core::ScheduledPlan plan_id =
        core::ScheduledPlan::build(perm::identical(n), mp);
    core::scheduled_sim_rounds(sim, plan_id);
    const bool same = sim.stats().observed_counts() == model::rounds::scheduled;
    std::cout << "Scheduled round inventory matches Table I for identical permutation: "
              << (same ? "yes" : "NO") << "\n";
  }
  return 0;
}
