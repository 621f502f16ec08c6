#pragma once
/// \file ops.hpp
/// \brief The paper's building-block operations as standalone public
///        API: matrix transpose (Section V), row-wise permutation and
///        column-wise permutation (Section VI) — each with a host
///        executor and a simulator round generator whose inventory
///        matches its Table I row.
///
/// The scheduled permutation (scheduled.hpp) is the composition
/// row-wise ∘ column-wise ∘ row-wise; exposing the pieces lets
/// downstream users run just the part they need (e.g. only a
/// conflict-free transpose) and lets the tests pin each Table I row
/// individually.

#include <cstdint>
#include <span>

#include "core/row_schedule.hpp"
#include "sim/hmm_sim.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {

/// Base addresses used by the simulator round generators. Callers who
/// just want timing use the allocating overloads; the scheduled
/// pipeline threads its own buffers through.
struct RowPassBases {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  std::uint64_t phat = 0;
  std::uint64_t q = 0;
};

/// Issue the 8 rounds of one row-wise permutation kernel (Table I row
/// "row-wise": 3 coalesced reads, 1 coalesced write, 2 conflict-free
/// reads, 2 conflict-free writes). Returns elapsed time units.
/// `words` is the data element width in machine words
/// (model::words_of<T>()); bases.in/out must be element addresses whose
/// word address (base*words) is group-aligned. The 16-bit schedule
/// arrays are modeled at words = 1.
std::uint64_t row_wise_sim_rounds(sim::HmmSim& sim, const std::string& label,
                                  const RowScheduleSet& set, const RowPassBases& bases,
                                  std::uint32_t words = 1);

/// Allocating overload: lays out fresh global arrays and runs the rounds.
std::uint64_t row_wise_sim_rounds(sim::HmmSim& sim, const RowScheduleSet& set,
                                  std::uint32_t words = 1);

/// Block-capped variant (the paper's Section VIII note: CUDA blocks
/// hold at most 1024 threads; longer rows are served in cols/cap
/// sequential waves, each a full memory round). Operationally validates
/// `model::row_wise_time_capped`. `cap` must be a multiple of the
/// width; with cap >= cols this equals the uncapped rounds.
std::uint64_t row_wise_sim_rounds_capped(sim::HmmSim& sim, const std::string& label,
                                         const RowScheduleSet& set, const RowPassBases& bases,
                                         std::uint32_t words, std::uint64_t cap);

/// Issue the 4 rounds of the tiled transpose kernel (Table I row
/// "transpose": 1 coalesced read/write + 1 conflict-free read/write,
/// via the Fig. 4 diagonal arrangement). rows and cols must be
/// multiples of the machine width.
std::uint64_t transpose_sim_rounds(sim::HmmSim& sim, const std::string& label,
                                   std::uint64_t rows, std::uint64_t cols, std::uint64_t base_in,
                                   std::uint64_t base_out, std::uint32_t words = 1);

/// Allocating overload.
std::uint64_t transpose_sim_rounds(sim::HmmSim& sim, std::uint64_t rows, std::uint64_t cols,
                                   std::uint32_t words = 1);

/// Column-wise permutation (Section VI): move each element within its
/// column by per-column permutations. `set` holds the schedules on the
/// TRANSPOSED view (cols rows of length rows — build with
/// `build_column_schedules`). Emits transpose + row-wise + transpose =
/// the Table I "column-wise" row (16 rounds). Returns time units.
std::uint64_t column_wise_sim_rounds(sim::HmmSim& sim, const std::string& label,
                                     const RowScheduleSet& set, std::uint64_t rows,
                                     std::uint64_t cols, std::uint32_t words = 1);

/// Ablation baseline: column-wise permutation WITHOUT the transpose
/// detour — threads walk columns directly, so every global access
/// strides by `cols` and is casual (w address groups per warp). Two
/// rounds (read + write). Quantifies what Section V's conflict-free
/// transpose buys. Returns time units.
std::uint64_t column_wise_naive_sim_rounds(sim::HmmSim& sim, const std::string& label,
                                           std::span<const std::uint16_t> h,
                                           std::uint64_t rows, std::uint64_t cols);

/// Build schedules for a column-wise permutation of a rows x cols
/// matrix: `h[c * rows + i]` is the destination row of the element at
/// (i, c) — i.e. `b[h(i)][c] = a[i][c]`. The result is a schedule set
/// over the transposed (cols x rows) view.
RowScheduleSet build_column_schedules(std::span<const std::uint16_t> h, std::uint64_t rows,
                                      std::uint64_t cols, std::uint32_t width,
                                      graph::ColoringAlgorithm algo =
                                          graph::ColoringAlgorithm::kAuto);

/// Host column-wise permutation: applies the transposed view's row
/// schedules down the columns, out[q(k)][c] = in[p̂(k)][c] for row c of
/// `set`. The simulator's three-pass detour (transpose, row-wise,
/// transpose) exists for coalescing, which a host column walk does not
/// need.
template <class T>
void column_wise_cpu(util::ThreadPool& pool, std::span<const T> in, std::span<T> out,
                     std::uint64_t rows, std::uint64_t cols, const RowScheduleSet& set) {
  HMM_CHECK(set.rows == cols && set.cols == rows);
  HMM_CHECK(in.size() == rows * cols && out.size() == in.size());
  pool.parallel_for_chunks(0, cols, [&](std::uint64_t c0, std::uint64_t c1) {
    for (std::uint64_t c = c0; c < c1; ++c) {
      const auto phat = set.phat_row(c);
      const auto q = set.q_row(c);
      for (std::uint64_t k = 0; k < rows; ++k) out[q[k] * cols + c] = in[phat[k] * cols + c];
    }
  });
}

}  // namespace hmm::core
