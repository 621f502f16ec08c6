#include "core/plan.hpp"

#include <vector>

#include "cpu/kernels.hpp"
#include "graph/euler_split.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {
namespace {

/// Layout of pass `pass`'s (1..3) gather table: passes 1 and 2 feed
/// `band_sweep` and are band-interleaved, pass 3 is row-major. Pass 2
/// runs over the transposed (cols x rows) view.
struct TableShape {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  bool banded = false;

  [[nodiscard]] std::uint64_t offset(std::uint64_t r, std::uint64_t c) const noexcept {
    return banded ? cpu::band_offset(rows, cols, r, c) : r * cols + c;
  }
};

TableShape table_shape(const MatrixShape& shape, unsigned pass) {
  HMM_CHECK(pass >= 1 && pass <= 3);
  if (pass == 2) return TableShape{shape.cols, shape.rows, true};
  return TableShape{shape.rows, shape.cols, pass == 1};
}

/// Run `body(lo, hi)` over [0, rows): inline for plans below the build's
/// inline cutoff, on the global pool otherwise.
template <class Body>
void for_rows(std::uint64_t n, std::uint64_t rows, Body&& body) {
  if (n < graph::kInlineEdges) {
    body(0, rows);
  } else {
    util::ThreadPool::global().parallel_for_chunks(0, rows, body);
  }
}

}  // namespace

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

  plan.derive_gathers(g1, g2, g3);
  plan.stats_.schedules_seconds = clock.seconds();
  return plan;
}

void ScheduledPlan::derive_gathers(std::span<const std::uint16_t> g1,
                                   std::span<const std::uint16_t> g2,
                                   std::span<const std::uint16_t> g3) {
  const std::span<const std::uint16_t> gs[] = {g1, g2, g3};
  for (unsigned k = 0; k < 3; ++k) {
    const TableShape t = table_shape(shape_, k + 1);
    const std::uint16_t* g = gs[k].data();
    util::aligned_vector<std::uint16_t>& h = gather_[k];
    h.resize(n_);
    for_rows(n_, t.rows, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t row = lo; row < hi; ++row) {
        for (std::uint64_t j = 0; j < t.cols; ++j) {
          h[t.offset(row, g[row * t.cols + j])] = static_cast<std::uint16_t>(j);
        }
      }
    });
  }
}

util::aligned_vector<std::uint16_t> ScheduledPlan::direct(unsigned pass) const {
  const TableShape t = table_shape(shape_, pass);
  const std::uint16_t* h = gather_[pass - 1].data();
  util::aligned_vector<std::uint16_t> g(n_);
  for_rows(n_, t.rows, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t row = lo; row < hi; ++row) {
      for (std::uint64_t c = 0; c < t.cols; ++c) {
        g[row * t.cols + h[t.offset(row, c)]] = static_cast<std::uint16_t>(c);
      }
    }
  });
  return g;
}

ScheduledPlan ScheduledPlan::restore(MatrixShape shape, model::MachineParams params,
                                     util::aligned_vector<std::uint16_t> g1,
                                     util::aligned_vector<std::uint16_t> g2,
                                     util::aligned_vector<std::uint16_t> g3) {
  params.validate();
  const std::uint64_t n = shape.size();
  HMM_CHECK(g1.size() == n && g2.size() == n && g3.size() == n);

  ScheduledPlan plan;
  plan.n_ = n;
  plan.shape_ = shape;
  plan.params_ = params;
  plan.derive_gathers(g1, g2, g3);
  return plan;
}

std::array<RowScheduleSet, 3> bank_schedules(const ScheduledPlan& plan) {
  const std::uint64_t r = plan.shape().rows;
  const std::uint64_t m = plan.shape().cols;
  const std::uint32_t w = plan.params().width;
  return {build_row_schedules(plan.direct(1), r, m, w),
          build_row_schedules(plan.direct(2), m, r, w),
          build_row_schedules(plan.direct(3), r, m, w)};
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

  // Replay the host's three gather sweeps on element ids — two band
  // sweeps (row pass + transpose) and a row sweep — and check that the
  // composition equals P.
  std::vector<std::uint32_t> cur(n_), next(n_);
  for (std::uint64_t e = 0; e < n_; ++e) cur[e] = static_cast<std::uint32_t>(e);
  for (unsigned pass = 1; pass <= 3; ++pass) {
    const TableShape t = table_shape(shape_, pass);
    const std::uint16_t* h = gather_[pass - 1].data();
    for (std::uint64_t row = 0; row < t.rows; ++row) {
      for (std::uint64_t c = 0; c < t.cols; ++c) {
        const std::uint16_t from = h[t.offset(row, c)];
        if (from >= t.cols) return false;
        next[pass == 3 ? row * t.cols + c : c * t.rows + row] = cur[row * t.cols + from];
      }
    }
    std::swap(cur, next);
  }
  for (std::uint64_t pos = 0; pos < n_; ++pos) {
    if (p(cur[pos]) != pos) return false;
  }
  return true;
}

}  // namespace hmm::core
