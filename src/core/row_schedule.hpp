#pragma once
/// \file row_schedule.hpp
/// \brief Conflict-free schedules for row-wise permutation (Section VI).
///
/// Given a row permutation g over `len` positions, the schedule is a
/// pair of index arrays (p̂, q) with `g = q ∘ p̂⁻¹`, built from a König
/// coloring of the bank multigraph (source banks x destination banks,
/// one edge per position j: `j mod w -> g(j) mod w`, regular of degree
/// `len / w`): warp t consists of schedule slots [t*w, (t+1)*w) and its
/// p̂ entries hit w distinct banks, as do its q entries — so the shared
/// memory scatter `d[q(k)] = s[p̂(k)]` is conflict-free.

#include <cstdint>
#include <span>

#include "graph/coloring.hpp"
#include "util/aligned_vector.hpp"

namespace hmm::core {

/// Build the (p̂, q) schedule of one row permutation.
/// \param g      the row permutation: position j moves to g[j]; len = g.size().
/// \param width  machine width w; len must be a multiple of w and
///               len/w a power of two for the Euler-split default.
/// \param phat   output, len entries.
/// \param q      output, len entries.
void build_row_schedule(std::span<const std::uint16_t> g, std::uint32_t width,
                        std::span<std::uint16_t> phat, std::span<std::uint16_t> q,
                        graph::ColoringAlgorithm algo = graph::ColoringAlgorithm::kAuto);

/// Schedules for every row of a rows x cols matrix, flattened row-major.
struct RowScheduleSet {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  util::aligned_vector<std::uint16_t> phat;
  util::aligned_vector<std::uint16_t> q;

  [[nodiscard]] std::span<const std::uint16_t> phat_row(std::uint64_t r) const {
    return {phat.data() + r * cols, cols};
  }
  [[nodiscard]] std::span<const std::uint16_t> q_row(std::uint64_t r) const {
    return {q.data() + r * cols, cols};
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return (phat.size() + q.size()) * sizeof(std::uint16_t);
  }
};

/// Build schedules for all rows; `g` holds the row permutations
/// flattened row-major (rows*cols entries). Rows are independent, so
/// their bank colorings run on `util::ThreadPool::global()` (safe to
/// call from one of its workers: a fork-join's caller can run every
/// chunk itself).
/// Deterministic — the output does not depend on the thread count.
RowScheduleSet build_row_schedules(std::span<const std::uint16_t> g, std::uint64_t rows,
                                   std::uint64_t cols, std::uint32_t width,
                                   graph::ColoringAlgorithm algo = graph::ColoringAlgorithm::kAuto);

/// Row sanity for tables read from outside the process (plan files,
/// SHARD_PLAN bands): true iff every `row_len`-entry row of `table` is
/// a permutation of [0, row_len). An entry past the row would index
/// outside it; a repeated entry would leave an output slot unwritten,
/// so a run would return whatever the buffer held.
bool rows_are_permutations(std::span<const std::uint16_t> table, std::uint64_t row_len);

/// Verify the schedule invariants for one row (used by tests): p̂ and q
/// are permutations, `g = q ∘ p̂⁻¹`, and every schedule warp touches w
/// distinct banks on both sides.
bool row_schedule_valid(std::span<const std::uint16_t> g, std::span<const std::uint16_t> phat,
                        std::span<const std::uint16_t> q, std::uint32_t width);

}  // namespace hmm::core
