/// \file tensor_layouts.cpp
/// \brief Domain example: tensor/record layout conversions as offline
///        permutations — HWC -> CHW (the ML image-layout change) and
///        AoS <-> SoA (the vectorization-enabling record shuffle).
///
/// Both are fixed, data-independent permutations known at build time —
/// the offline setting — and both are *high-distribution* (strided)
/// patterns where the conventional copy is at its worst, which is why
/// layout conversion kernels are notorious. The example diagnoses each
/// with the paper's cost theory and times the host backends.
///
/// Run: ./tensor_layouts [--h 256] [--w 256] [--c 4] [--ways 8]

#include <iostream>

#include "core/conventional.hpp"
#include "core/diagnose.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hmm;

struct CaseResult {
  std::string name;
  double conv_ms;
  double sched_ms;
  double dist_ratio;
  std::string recommendation;
};

CaseResult run_case(const std::string& name, const perm::Permutation& p,
                    util::ThreadPool& pool) {
  const std::uint64_t n = p.size();
  const model::MachineParams mp = model::MachineParams::gtx680();
  const core::Diagnosis diag = core::diagnose(p, mp);

  util::aligned_vector<float> a(n), b(n), scratch(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i);

  util::Stopwatch sw;
  core::d_designated_cpu<float>(pool, a, b, p);
  const double conv_ms = sw.millis();

  double sched_ms = -1;
  if (diag.plan_supported) {
    const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
    sw.reset();
    core::scheduled_cpu<float>(pool, plan, a, b, scratch);
    sched_ms = sw.millis();
  }
  return CaseResult{name, conv_ms, sched_ms, diag.dist_forward_ratio, diag.recommendation};
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t h = cli.get_int("h", 256);
  const std::uint64_t w = cli.get_int("w", 256);
  const std::uint64_t c = cli.get_int("c", 4);
  const std::uint64_t ways = cli.get_int("ways", 8);
  const std::uint64_t n = h * w * c;

  util::ThreadPool pool;
  std::vector<CaseResult> results;
  results.push_back(run_case("HWC -> CHW (image to planar)",
                             perm::tensor_axes({h, w, c}, {2, 0, 1}), pool));
  results.push_back(run_case("CHW -> HWC (planar to image)",
                             perm::tensor_axes({c, h, w}, {1, 2, 0}), pool));
  results.push_back(
      run_case("AoS -> SoA (deinterleave x" + std::to_string(ways) + ")",
               perm::deinterleave(n, ways), pool));
  results.push_back(run_case("SoA -> AoS (interleave x" + std::to_string(ways) + ")",
                             perm::interleave(n, ways), pool));
  results.push_back(run_case("depth rotate (axes {1,2,0})",
                             perm::tensor_axes({h, w, c}, {1, 2, 0}), pool));
  // High-channel contrast: once the inner dimension reaches the machine
  // width, the conversion becomes a full scatter (d_w -> 1).
  results.push_back(run_case("HWC -> CHW with C=64",
                             perm::tensor_axes({64, 64, 64}, {2, 0, 1}), pool));
  results.push_back(run_case("AoS -> SoA (deinterleave x64)",
                             perm::deinterleave(1 << 18, 64), pool));

  std::cout << "Layout conversions of a " << h << "x" << w << "x" << c << " tensor ("
            << n << " floats) as offline permutations\n\n";
  util::Table table({"conversion", "d_w(P)/n", "conventional ms", "scheduled ms",
                     "model recommends"});
  for (const auto& r : results) {
    table.add_row({r.name, util::format_double(r.dist_ratio, 3),
                   util::format_ms(r.conv_ms),
                   r.sched_ms < 0 ? "n/a (size)" : util::format_ms(r.sched_ms),
                   r.recommendation});
  }
  table.print(std::cout);
  std::cout << "\nThe cost theory quantifies layout folklore: a channel conversion's\n"
               "distribution is d_w = min(C, w)/w of n — gentle for a few channels\n"
               "(each warp scatters to only C regions), a full Table II-transpose\n"
               "scatter once C or the interleave factor reaches the width w, which is\n"
               "exactly where the model starts recommending the scheduled plan.\n";
  return 0;
}
