/// \file routing_walkthrough.cpp
/// \brief Reproduces **Figure 6**: a step-by-step walkthrough of how a
///        16-element permutation is routed through the three passes —
///        row-wise (to color columns), column-wise (to destination
///        rows), row-wise (to destination columns).
///
/// Prints the 4x4 matrix of destination coordinates after every pass,
/// exactly like the paper's figure, for any small permutation.
///
/// Run: ./routing_walkthrough [--n 16] [--family random] [--seed 4]

#include <array>
#include <iomanip>
#include <iostream>

#include "core/plan.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"

namespace {

using namespace hmm;

/// Print the matrix of "(dest_row,dest_col)" labels for the element
/// currently at each position.
void print_state(const std::string& title, const std::vector<std::uint32_t>& elem_at,
                 std::uint64_t rows, std::uint64_t cols, const perm::Permutation& p) {
  std::cout << title << "\n";
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::cout << "  ";
    for (std::uint64_t j = 0; j < cols; ++j) {
      const std::uint32_t e = elem_at[i * cols + j];
      const std::uint64_t dest = p(e);
      std::cout << "(" << dest / cols << "," << dest % cols << ") ";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 16);
  const std::string family = cli.get("family", "random");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 4));

  // A small machine whose width divides the tiny matrix.
  model::MachineParams mp = model::MachineParams::tiny(4, 5, 2);
  const perm::Permutation p = perm::by_name(family, n, seed);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  const std::uint64_t r = plan.shape().rows;
  const std::uint64_t m = plan.shape().cols;

  std::cout << "Figure 6 walkthrough: " << family << " permutation of " << n
            << " elements as a " << r << "x" << m << " matrix.\n"
            << "The plan holds " << plan.gather_bytes()
            << " bytes of gather tables; the steps below replay the (p̂, q) schedules\n"
            << "derived from them.\n"
            << "Each cell shows the (dest_row, dest_col) of the element at that position.\n\n";

  std::vector<std::uint32_t> cur(n), next(n);
  for (std::uint64_t e = 0; e < n; ++e) cur[e] = static_cast<std::uint32_t>(e);
  print_state("Input", cur, r, m, p);

  auto row_pass = [&](const core::RowScheduleSet& set) {
    for (std::uint64_t row = 0; row < set.rows; ++row) {
      const auto phat = set.phat_row(row);
      const auto q = set.q_row(row);
      for (std::uint64_t k = 0; k < set.cols; ++k) {
        next[row * set.cols + q[k]] = cur[row * set.cols + phat[k]];
      }
    }
    std::swap(cur, next);
  };
  auto transpose = [&](std::uint64_t rows, std::uint64_t cols) {
    for (std::uint64_t i = 0; i < rows; ++i) {
      for (std::uint64_t j = 0; j < cols; ++j) next[j * rows + i] = cur[i * cols + j];
    }
    std::swap(cur, next);
  };

  // The paper's (p̂, q) bank schedules, derived from the plan's gather
  // tables: what a GPU's shared-memory row pass would read.
  const std::array<core::RowScheduleSet, 3> schedules = core::bank_schedules(plan);
  row_pass(schedules[0]);
  print_state("\nAfter Step 1 (row-wise: each element in its color column — note every "
              "column now holds distinct dest rows)",
              cur, r, m, p);

  transpose(r, m);
  row_pass(schedules[1]);
  transpose(m, r);
  print_state("\nAfter Step 2 (column-wise: every element in its destination row)", cur, r,
              m, p);

  row_pass(schedules[2]);
  print_state("\nAfter Step 3 (row-wise: every element at its destination)", cur, r, m, p);

  // Verify: element at position pos must have dest == pos.
  bool ok = true;
  for (std::uint64_t pos = 0; pos < n; ++pos) ok &= (p(cur[pos]) == pos);
  std::cout << "\nPermutation realized exactly: " << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}
