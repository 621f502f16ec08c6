/// \file bench_plan_build.cpp
/// \brief Quantifies the offline phase the paper's model does not
///        charge: time and memory to build a ScheduledPlan vs n, split
///        into row-graph coloring and per-row schedule compilation.
///
/// Usage: bench_plan_build [--min 64K] [--max 1M] [--family bit-reversal|all] [--csv]
///
/// `--family all` runs the paper's five Table II families. The build
/// runs on the global thread pool; the header prints its size so rows
/// from different hosts compare.

#include "bench_common.hpp"

#include <iostream>

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"csv", "family", "max", "min"}, std::cerr)) return 2;
  const std::uint64_t min_n = cli.get_int("min", 64 << 10);
  const std::uint64_t max_n = cli.get_int("max", 1 << 20);
  const std::string family = cli.get("family", "bit-reversal");
  const bool csv = cli.get_bool("csv");
  const std::vector<std::string> families =
      family == "all" ? bench::paper_families() : std::vector<std::string>{family};

  bench::print_header("Offline planning cost (not charged by the paper's model)",
                      "Section VII setup");
  std::cout << "build threads: " << util::ThreadPool::global().size() << "\n";

  const model::MachineParams mp = model::MachineParams::gtx680();
  util::Table table({"family", "n", "shape", "row-graph ms", "schedules ms", "total ms",
                     "plan bytes", "ns/element"});
  for (const std::string& fam : families) {
    for (std::uint64_t n = min_n; n <= max_n; n <<= 1) {
      const perm::Permutation p = perm::by_name(fam, n, 42);
      util::Stopwatch sw;
      const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
      const double total_ms = sw.millis();
      const auto& st = plan.build_stats();
      table.add_row(
          {fam, bench::size_label(n),
           util::format_count(plan.shape().rows) + "x" + util::format_count(plan.shape().cols),
           util::format_ms(st.row_graph_seconds * 1e3),
           util::format_ms(st.schedules_seconds * 1e3), util::format_ms(total_ms),
           util::format_bytes(plan.gather_bytes()),
           util::format_double(total_ms * 1e6 / static_cast<double>(n), 1)});
    }
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nThe plan is built once per permutation and reused for any number of\n"
               "arrays (the offline setting); amortized cost is the point of the table.\n";
  return 0;
}
