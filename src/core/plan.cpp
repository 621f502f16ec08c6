#include "core/plan.hpp"

#include <vector>

#include "graph/euler_split.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {

ScheduledPlan ScheduledPlan::build(const perm::Permutation& p,
                                   const model::MachineParams& params,
                                   graph::ColoringAlgorithm algo) {
  params.validate();
  const std::uint64_t n = p.size();
  HMM_CHECK_MSG(n < (1ull << 32), "plan size must be below 2^32 (32-bit edge ids)");
  const MatrixShape shape = shape_for(n, params.width);
  const std::uint64_t r = shape.rows;
  const std::uint64_t m = shape.cols;
  HMM_CHECK_MSG(m <= (1ull << 16) && r <= (1ull << 16),
                "row/column indices must fit 16 bits");

  ScheduledPlan plan;
  plan.n_ = n;
  plan.shape_ = shape;
  plan.params_ = params;

  util::Stopwatch clock;

  // --- Row graph + König coloring --------------------------------------
  graph::BipartiteMultigraph row_graph(static_cast<std::uint32_t>(r),
                                       static_cast<std::uint32_t>(r));
  row_graph.reserve(n);
  const auto map = p.data();
  for (std::uint64_t e = 0; e < n; ++e) {
    row_graph.add_edge(static_cast<std::uint32_t>(e / m),
                       static_cast<std::uint32_t>(map[e] / m));
  }
  const graph::EdgeColoring coloring = graph::color_edges(row_graph, algo);
  HMM_CHECK(coloring.colors == m);
  plan.stats_.colors = coloring.colors;
  plan.stats_.row_graph_seconds = clock.seconds();
  clock.reset();

  // --- Derive the three per-row permutation families -------------------
  // g1[i][j]  = color(e)                (pass 1, rows r x cols m)
  // g2[c][i]  = dest_row(element at (i, c) after pass 1)  (pass 2, m x r)
  // g3[i'][c] = dest_col(element at (i', c) after pass 2) (pass 3, r x m)
  // P is a bijection and every color class is a perfect matching, so
  // each (i, c) and each (dest_row, c) occurs once: source rows write
  // disjoint slots and run in parallel.
  util::aligned_vector<std::uint16_t> g1(n), g2(n), g3(n);
  auto derive_rows = [&](std::uint64_t row_lo, std::uint64_t row_hi) {
    for (std::uint64_t i = row_lo; i < row_hi; ++i) {
      for (std::uint64_t e = i * m; e < (i + 1) * m; ++e) {
        const std::uint32_t c = coloring.color[e];
        const std::uint64_t dest_row = map[e] / m;
        g1[e] = static_cast<std::uint16_t>(c);
        g2[c * r + i] = static_cast<std::uint16_t>(dest_row);
        // After pass 2, element e sits at (dest_row, c): pass 3 sends
        // it to its destination column.
        g3[dest_row * m + c] = static_cast<std::uint16_t>(map[e] % m);
      }
    }
  };
  if (n < graph::kInlineEdges) {  // the row graph colored inline too
    derive_rows(0, r);
  } else {
    util::ThreadPool::global().parallel_for_chunks(0, r, derive_rows);
  }

  // --- Compile every row into its conflict-free bank schedule ----------
  plan.pass1_ = build_row_schedules(g1, r, m, params.width, algo);
  plan.pass2_ = build_row_schedules(g2, m, r, params.width, algo);
  plan.pass3_ = build_row_schedules(g3, r, m, params.width, algo);
  plan.stats_.schedules_seconds = clock.seconds();
  plan.g1_ = std::move(g1);
  plan.g2_ = std::move(g2);
  plan.g3_ = std::move(g3);
  return plan;
}

ScheduledPlan ScheduledPlan::restore(MatrixShape shape, model::MachineParams params,
                                     RowScheduleSet pass1, RowScheduleSet pass2,
                                     RowScheduleSet pass3,
                                     util::aligned_vector<std::uint16_t> g1,
                                     util::aligned_vector<std::uint16_t> g2,
                                     util::aligned_vector<std::uint16_t> g3) {
  params.validate();
  const std::uint64_t n = shape.size();
  HMM_CHECK(pass1.rows == shape.rows && pass1.cols == shape.cols);
  HMM_CHECK(pass2.rows == shape.cols && pass2.cols == shape.rows);
  HMM_CHECK(pass3.rows == shape.rows && pass3.cols == shape.cols);
  HMM_CHECK(pass1.phat.size() == n && pass1.q.size() == n);
  HMM_CHECK(pass2.phat.size() == n && pass2.q.size() == n);
  HMM_CHECK(pass3.phat.size() == n && pass3.q.size() == n);
  HMM_CHECK(g1.size() == n && g2.size() == n && g3.size() == n);

  ScheduledPlan plan;
  plan.n_ = n;
  plan.shape_ = shape;
  plan.params_ = params;
  plan.pass1_ = std::move(pass1);
  plan.pass2_ = std::move(pass2);
  plan.pass3_ = std::move(pass3);
  plan.g1_ = std::move(g1);
  plan.g2_ = std::move(g2);
  plan.g3_ = std::move(g3);
  return plan;
}

std::uint64_t ScheduledPlan::schedule_bytes() const noexcept {
  return pass1_.bytes() + pass2_.bytes() + pass3_.bytes();
}

std::uint64_t ScheduledPlan::shared_bytes_needed(std::uint64_t elem_size) const noexcept {
  const std::uint64_t row_pass =
      std::max(row_pass_shared_bytes(shape_.cols, elem_size),
               row_pass_shared_bytes(shape_.rows, elem_size));
  return std::max(row_pass, transpose_shared_bytes(params_.width, elem_size));
}

bool ScheduledPlan::fits_shared(std::uint64_t elem_size) const noexcept {
  return shared_bytes_needed(elem_size) <= params_.shared_bytes;
}

bool ScheduledPlan::validate(const perm::Permutation& p) const {
  if (p.size() != n_) return false;
  const std::uint64_t r = shape_.rows;
  const std::uint64_t m = shape_.cols;

  // Check every row schedule's local invariants, reconstructing each
  // row permutation g from (p̂, q).
  auto check_set = [&](const RowScheduleSet& set) {
    std::vector<std::uint16_t> g(set.cols);
    for (std::uint64_t row = 0; row < set.rows; ++row) {
      const auto phat = set.phat_row(row);
      const auto q = set.q_row(row);
      for (std::uint64_t k = 0; k < set.cols; ++k) {
        if (phat[k] >= set.cols) return false;
        g[phat[k]] = q[k];
      }
      if (!row_schedule_valid(g, phat, q, params_.width)) return false;
    }
    return true;
  };
  if (!check_set(pass1_) || !check_set(pass2_) || !check_set(pass3_)) return false;

  // Replay the three passes on element ids and verify the composition
  // equals P.
  std::vector<std::uint32_t> cur(n_), next(n_);
  for (std::uint64_t e = 0; e < n_; ++e) cur[e] = static_cast<std::uint32_t>(e);

  auto row_pass = [&](const RowScheduleSet& set) {
    for (std::uint64_t row = 0; row < set.rows; ++row) {
      const auto phat = set.phat_row(row);
      const auto q = set.q_row(row);
      const std::uint64_t base = row * set.cols;
      for (std::uint64_t k = 0; k < set.cols; ++k) next[base + q[k]] = cur[base + phat[k]];
    }
    std::swap(cur, next);
  };
  auto transpose_pass = [&](std::uint64_t rows, std::uint64_t cols) {
    for (std::uint64_t i = 0; i < rows; ++i) {
      for (std::uint64_t j = 0; j < cols; ++j) next[j * rows + i] = cur[i * cols + j];
    }
    std::swap(cur, next);
  };

  row_pass(pass1_);
  transpose_pass(r, m);
  row_pass(pass2_);
  transpose_pass(m, r);
  row_pass(pass3_);

  for (std::uint64_t pos = 0; pos < n_; ++pos) {
    if (p(cur[pos]) != pos) return false;
  }
  return true;
}

}  // namespace hmm::core
