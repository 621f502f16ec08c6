/// \file plan_persistence.cpp
/// \brief The offline workflow end-to-end: compile a plan, persist it
///        to disk, reload it in a "fresh process", and execute —
///        demonstrating that the expensive König-coloring phase is a
///        build-time artifact, not a runtime cost.
///
/// Run: ./plan_persistence [--n 256K] [--family random]
///      [--path /tmp/reorder.hmmplan]

#include <iostream>

#include "core/plan_io.hpp"
#include "core/scheduled.hpp"
#include "perm/generators.hpp"
#include "perm/io.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 256 << 10);
  const std::string family = cli.get("family", "random");
  const std::string path = cli.get("path", "/tmp/reorder.hmmplan");
  const std::string perm_path = path + ".perm";

  const model::MachineParams mp = model::MachineParams::gtx680();

  // ---- "build time": compile and persist -----------------------------
  {
    const perm::Permutation p = perm::by_name(family, n, 7);
    util::Stopwatch sw;
    const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
    const double build_ms = sw.millis();
    sw.reset();
    const bool ok = core::save_plan_file(path, plan) && perm::save_file(perm_path, p);
    std::cout << "compiled plan in " << util::format_ms(build_ms) << " ms, persisted "
              << util::format_bytes(plan.gather_bytes()) << " of gather tables to " << path
              << " in " << util::format_ms(sw.millis()) << " ms: "
              << (ok ? "ok" : "FAILED") << "\n";
    if (!ok) return 1;
  }

  // ---- "run time": reload and execute --------------------------------
  util::Stopwatch sw;
  const auto plan = core::load_plan_file(path);
  const auto p = perm::load_file(perm_path);
  if (!plan || !p) {
    std::cerr << "reload failed\n";
    return 1;
  }
  std::cout << "reloaded plan + permutation in " << util::format_ms(sw.millis())
            << " ms (vs recompiling)\n";

  util::ThreadPool pool;
  util::aligned_vector<float> a(n), b(n), s1(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i);
  sw.reset();
  core::scheduled_cpu<float>(pool, *plan, a, b, s1);
  const double exec_ms = sw.millis();

  bool correct = true;
  for (std::uint64_t i = 0; i < n; ++i) correct &= (b[(*p)(i)] == a[i]);
  std::cout << "executed reloaded plan on " << n << " floats in " << util::format_ms(exec_ms)
            << " ms; correct: " << (correct ? "yes" : "NO") << "\n";

  std::remove(path.c_str());
  std::remove(perm_path.c_str());
  return correct ? 0 : 1;
}
