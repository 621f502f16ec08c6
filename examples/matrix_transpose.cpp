/// \file matrix_transpose.cpp
/// \brief Domain example: out-of-place matrix transpose — "one of the
///        important permutations ... frequently used in matrix
///        computation" (paper, Section I).
///
/// Demonstrates three routes to the same transpose and checks them
/// against each other:
///   1. the library's dedicated blocked-transpose kernel (Section V's
///      w x w diagonal-arrangement algorithm, host version),
///   2. the transpose *as an offline permutation* through a
///      ScheduledPlan (showing the general machinery subsumes it), and
///   3. the conventional scatter.
///
/// Run: ./matrix_transpose [--rows 1024] [--cols 1024]

#include <iostream>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "cpu/kernels.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  const std::uint64_t rows = cli.get_int("rows", 1024);
  const std::uint64_t cols = cli.get_int("cols", 1024);
  const std::uint64_t n = rows * cols;

  util::ThreadPool pool;
  util::aligned_vector<float> a(n), t_kernel(n), t_plan(n), t_scatter(n), s1(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i % 977);

  // 1. Dedicated blocked transpose kernel.
  util::Stopwatch sw;
  cpu::transpose_blocked<float>(pool, a, t_kernel, rows, cols, /*tile=*/32);
  const double ms_kernel = sw.millis();

  // 2. The same transpose expressed as a general offline permutation.
  const perm::Permutation p = perm::transpose(rows, cols);
  const model::MachineParams machine = model::MachineParams::gtx680();
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, machine);
  sw.reset();
  core::scheduled_cpu<float>(pool, plan, a, t_plan, s1);
  const double ms_plan = sw.millis();

  // 3. Conventional scatter.
  sw.reset();
  core::d_designated_cpu<float>(pool, a, t_scatter, p);
  const double ms_scatter = sw.millis();

  const bool agree = (t_kernel == t_plan) && (t_plan == t_scatter);
  std::cout << rows << "x" << cols << " float transpose\n"
            << "  blocked kernel      : " << util::format_ms(ms_kernel) << " ms\n"
            << "  scheduled plan      : " << util::format_ms(ms_plan) << " ms\n"
            << "  conventional scatter: " << util::format_ms(ms_scatter) << " ms\n"
            << "  all three agree     : " << (agree ? "yes" : "NO") << "\n";

  // Spot-check the mathematical definition on a few entries.
  bool spot_ok = true;
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(rows, 8); ++i) {
    for (std::uint64_t j = 0; j < std::min<std::uint64_t>(cols, 8); ++j) {
      spot_ok &= (t_kernel[j * rows + i] == a[i * cols + j]);
    }
  }
  std::cout << "  definition holds    : " << (spot_ok ? "yes" : "NO") << "\n";

  // The model's view: transpose as a permutation has maximal
  // distribution, so the conventional algorithm is at its worst here.
  std::cout << "  d_w(P)/n = "
            << static_cast<double>(perm::distribution(p, machine.width)) /
                   static_cast<double>(n)
            << " (1.0 = worst case for the conventional algorithm)\n";
  return agree && spot_ok ? 0 : 1;
}
