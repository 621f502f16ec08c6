/// \file bench_table2.cpp
/// \brief Reproduces **Table II**: running time of the D-designated,
///        S-designated, and scheduled algorithms for the five paper
///        permutations across array sizes, for float (Table IIa) and
///        double (Table IIb) elements.
///
/// Two result sets are printed per element type:
///  * host wall-clock milliseconds (this machine's CPU backend stands in
///    for the GTX-680 — cacheline locality plays the role of coalescing);
///  * simulated HMM time units (the paper's model, exact).
///
/// The paper's headline shapes to look for:
///  * conventional times grow with the permutation's distribution
///    (identical/shuffle fast; random/bit-reversal/transpose slow);
///  * the scheduled column is CONSTANT down each size column,
///    independent of the permutation;
///  * for high-distribution permutations and large n, scheduled wins.
///
/// Usage: bench_table2 [--type float|double|both] [--full] [--extended]
///                     [--reps 3] [--sim-limit 1M] [--csv]
/// --full runs the paper's exact range (up to 4096K); --extended adds
/// 8M/16M, past the paper, to expose the host-side crossover (the host
/// LLC is much larger than the GTX-680's 512 KiB L2), and a kAuto table:
/// each cell's host pick (core::host_pick on this host's probed
/// parameters), the simulated L2 misses and predicted times behind it,
/// and its regret t(pick) / min(t) against the measured S-designated
/// and scheduled columns, summed per size over the families.

#include "bench_common.hpp"

#include <iostream>

#include "core/permuter.hpp"

namespace {

using namespace hmm;

/// The kAuto table: per cell the host pick and its regret against the
/// better of the measured S-designated and scheduled times, the model's
/// inputs behind the pick, and the regret summed over families per size.
template <class T>
void print_kauto(const std::string& type_name, const std::vector<std::uint64_t>& sizes,
                 const std::vector<std::string>& families,
                 const std::vector<std::vector<bench::TrioResult<T>>>& results,
                 const std::vector<std::vector<core::HostPick>>& picks, bool csv) {
  const auto measured_ms = [&](std::size_t f, std::size_t s, core::Strategy strategy) {
    return strategy == core::Strategy::kScheduled ? results[f][s].scheduled.cpu_ms
                                                  : results[f][s].s_designated.cpu_ms;
  };
  const auto best_ms = [&](std::size_t f, std::size_t s) {
    return std::min(results[f][s].scheduled.cpu_ms, results[f][s].s_designated.cpu_ms);
  };
  std::vector<std::string> header = {"permutation"};
  for (std::uint64_t n : sizes) header.push_back(bench::size_label(n));
  const auto print = [&](const std::string& title, auto&& cell) {
    std::cout << "\n--- " << title << " (" << type_name << ") ---\n";
    util::Table table(header);
    for (std::size_t f = 0; f < families.size(); ++f) {
      std::vector<std::string> row = {families[f]};
      for (std::size_t s = 0; s < sizes.size(); ++s) row.push_back(cell(f, s));
      table.add_row(row);
    }
    if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  };

  print("kAuto host pick : regret t(pick)/min(t)", [&](std::size_t f, std::size_t s) {
    const core::Strategy pick = picks[f][s].strategy;
    return std::string(pick == core::Strategy::kScheduled ? "sched " : "S-des ") +
           util::format_double(measured_ms(f, s, pick) / best_ms(f, s), 2);
  });
  print("kAuto model: L2 misses per element (page-aliased)", [&](std::size_t f, std::size_t s) {
    const double n = static_cast<double>(sizes[s]);
    return util::format_double(static_cast<double>(picks[f][s].misses.lines) / n, 2) + " (" +
           util::format_double(static_cast<double>(picks[f][s].misses.aliased) / n, 2) + ")";
  });
  print("kAuto model: predicted ms, S-designated / scheduled",
        [&](std::size_t f, std::size_t s) {
          return util::format_ms(picks[f][s].conventional_ms) + " / " +
                 util::format_ms(picks[f][s].scheduled_ms);
        });

  const model::HostParams host = core::host_params(sizes.back() * sizeof(T));
  std::cout << "\nHost parameters: line " << host.line_bytes << " B, L2 "
            << util::format_bytes(host.l2_bytes) << " / " << host.l2_ways << "-way, LLC share "
            << util::format_bytes(host.llc_bytes) << ", " << host.workers
            << " workers; sched " << util::format_double(host.sched_ns, 3)
            << " ns/elem, miss " << util::format_double(host.miss_ns_llc, 3) << " (LLC) / "
            << util::format_double(host.miss_ns_dram, 3) << " (DRAM) ns, alias +"
            << util::format_double(host.alias_ns, 3) << " ns, fork-join "
            << util::format_double(host.forkjoin_ns * 1e-3, 1) << " us\n";

  util::Table summed({"n", "sum t(pick) ms", "sum min(t) ms", "regret", "worst cell"});
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    double chosen = 0, best = 0, worst = 0;
    for (std::size_t f = 0; f < families.size(); ++f) {
      chosen += measured_ms(f, s, picks[f][s].strategy);
      best += best_ms(f, s);
      worst = std::max(worst, measured_ms(f, s, picks[f][s].strategy) / best_ms(f, s));
    }
    summed.add_row({bench::size_label(sizes[s]), util::format_ms(chosen), util::format_ms(best),
                    util::format_double(chosen / best, 3), util::format_double(worst, 2)});
  }
  std::cout << "\n--- kAuto regret summed over the families (" << type_name << ") ---\n";
  if (csv) {
    summed.print_csv(std::cout);
  } else {
    summed.print(std::cout);
  }
}

template <class T>
void run_for_type(const std::string& type_name, bool full, bool extended, int reps,
                  std::uint64_t sim_limit, bool csv, util::ThreadPool& pool) {
  const model::MachineParams mp = model::MachineParams::gtx680();
  const auto sizes = bench::table2_sizes(full, std::is_same_v<T, double>, extended);
  const auto families = bench::paper_families();

  // results[family][size-index], picks likewise (kAuto table only)
  std::vector<std::vector<bench::TrioResult<T>>> results(families.size());
  std::vector<std::vector<core::HostPick>> picks(families.size());
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (std::uint64_t n : sizes) {
      const perm::Permutation p = perm::by_name(families[f], n, /*seed=*/42);
      results[f].push_back(bench::run_trio<T>(p, mp, pool, n <= sim_limit, reps));
      if (extended) {
        picks[f].push_back(core::host_pick(p.inverse(), sizeof(T), core::host_params(n * sizeof(T))));
      }
    }
  }

  auto print_block = [&](const std::string& title,
                         auto&& cell) {
    std::cout << "\n--- " << title << " (" << type_name << ") ---\n";
    std::vector<std::string> header = {"permutation"};
    for (std::uint64_t n : sizes) header.push_back(bench::size_label(n));
    util::Table table(header);
    for (std::size_t f = 0; f < families.size(); ++f) {
      std::vector<std::string> row = {families[f]};
      for (std::size_t s = 0; s < sizes.size(); ++s) row.push_back(cell(results[f][s]));
      table.add_row(row);
    }
    if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  };

  print_block("D-designated, host ms", [](const bench::TrioResult<T>& r) {
    return util::format_ms(r.d_designated.cpu_ms);
  });
  print_block("S-designated, host ms", [](const bench::TrioResult<T>& r) {
    return util::format_ms(r.s_designated.cpu_ms);
  });
  print_block("Scheduled (ours), host ms", [](const bench::TrioResult<T>& r) {
    return util::format_ms(r.scheduled.cpu_ms);
  });

  print_block("D-designated, HMM time units", [](const bench::TrioResult<T>& r) {
    return util::format_count(r.d_designated.sim_units);
  });
  print_block("S-designated, HMM time units", [](const bench::TrioResult<T>& r) {
    return util::format_count(r.s_designated.sim_units);
  });
  print_block("Scheduled (ours), HMM time units", [](const bench::TrioResult<T>& r) {
    return util::format_count(r.scheduled.sim_units);
  });

  if (extended) print_kauto(type_name, sizes, families, results, picks, csv);

  // Paper-shape summary at the largest measured size.
  const std::size_t last = sizes.size() - 1;
  const auto& rnd = results[2][last];  // random family
  const auto& id = results[0][last];   // identical
  std::cout << "\nShape check @" << bench::size_label(sizes[last]) << " " << type_name
            << ": random D/scheduled speedup = "
            << util::format_double(rnd.d_designated.cpu_ms / rnd.scheduled.cpu_ms, 2)
            << "x (host), "
            << util::format_double(static_cast<double>(rnd.d_designated.sim_units) /
                                       static_cast<double>(rnd.scheduled.sim_units),
                                   2)
            << "x (model; paper reports ~2.4-3x at 4M). Identical favors conventional: "
            << util::format_double(id.scheduled.cpu_ms / id.d_designated.cpu_ms, 2)
            << "x slower on host.\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"csv", "extended", "full", "reps", "sim-limit", "type"}, std::cerr)) return 2;
  const std::string type = cli.get("type", "both");
  const bool full = cli.get_bool("full");
  const bool extended = cli.get_bool("extended");
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const std::uint64_t sim_limit = cli.get_int("sim-limit", 1 << 20);
  const bool csv = cli.get_bool("csv");

  util::ThreadPool pool;

  bench::print_header("Table II — running time of the three permutation algorithms",
                      "Table II(a)/(b)");
  std::cout << "Columns are n in K elements (paper: 256K..4096K; default here "
            << (full ? "full paper range" : "256K..1024K, pass --full for the paper range")
            << ").\nHost backend: " << pool.size()
            << " worker thread(s); GTX-680-like model: w=32, l=300, d=8.\n";

  if (type == "float" || type == "both") {
    run_for_type<float>("float32", full, extended, reps, sim_limit, csv, pool);
  }
  if (type == "double" || type == "both") {
    run_for_type<double>("float64", full, extended, reps, sim_limit, csv, pool);
  }
  return 0;
}
