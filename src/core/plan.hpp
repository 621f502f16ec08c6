#pragma once
/// \file plan.hpp
/// \brief The offline phase of the scheduled permutation (Section VII):
///        factor P into row-wise / column-wise / row-wise passes and
///        precompute the host's gather tables.
///
/// Plan construction:
/// 1. Build the *row graph*: source rows x destination rows, one edge
///    per element e (row(e) -> row(P(e))), regular of degree `cols`.
/// 2. König-color it with `cols` colors; an element colored c routes
///    through column c. Properness makes pass 1 a valid row-wise
///    permutation; perfect-matching color classes make pass 2 a valid
///    column-wise permutation.
/// 3. Derive the three per-row permutation families g1, g2, g3.
/// 4. Invert every row of g1..g3 into the host's gather tables h1..h3
///    (`out[r][c] = in[r][h[r][c]]`). The host runs the plan as three
///    gather sweeps over h (scheduled.hpp), and the tables are all a
///    plan stores.
///
/// The paper's (p̂, q) conflict-free bank schedules (row_schedule.hpp)
/// matter only to the GPU's shared memory, which only the simulator
/// models: `bank_schedules(plan)` derives them on demand from g1..g3.
///
/// There is one build path and it runs on `util::ThreadPool::global()`:
/// the coloring's later levels (euler_split.hpp), the g1..g3 derivation
/// (one task per band of source rows) and the row inversions. Plans
/// below 64K elements color and derive inline, so small builds pay no
/// fork-join. The output is deterministic —
/// byte-identical whatever the thread count — and building from a pool
/// worker (the plan cache's compiles) is safe because a nested
/// fork-join's caller can run every chunk itself.
///
/// The plan is permutation-specific but data-independent: build once,
/// execute any number of arrays (the paper's "offline" setting).

#include <array>
#include <cstdint>
#include <span>

#include "core/layout.hpp"
#include "core/row_schedule.hpp"
#include "graph/coloring.hpp"
#include "model/machine.hpp"
#include "perm/permutation.hpp"

namespace hmm::core {

/// Timing/occupancy statistics of plan construction (the offline cost
/// the paper does not charge; `bench_plan_build` quantifies it).
struct PlanBuildStats {
  double row_graph_seconds = 0;   ///< building + coloring the row graph
  /// deriving g1..g3 and inverting them into the gather tables
  double schedules_seconds = 0;
  std::uint64_t colors = 0;       ///< number of colors (= cols)
};

/// A fully compiled scheduled-permutation plan.
class ScheduledPlan {
 public:
  /// Build the plan for permutation `p` on machine `params`, on the
  /// global thread pool. Requires |p| a power of two below 2^32 with a
  /// shape_for-compatible size.
  static ScheduledPlan build(const perm::Permutation& p, const model::MachineParams& params,
                             graph::ColoringAlgorithm algo = graph::ColoringAlgorithm::kAuto);

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] const MatrixShape& shape() const noexcept { return shape_; }
  [[nodiscard]] const model::MachineParams& params() const noexcept { return params_; }
  [[nodiscard]] const PlanBuildStats& build_stats() const noexcept { return stats_; }

  /// The host's gather tables, the row inverses of the row
  /// permutations g1..g3 (`out[r][g(j)] = in[r][j]`): entry (r, c) is
  /// the source column of out[r][c]. gather1 (rows x cols) and gather2
  /// (cols x rows, the transposed view) are band-interleaved
  /// (cpu::band_offset) for `cpu::band_sweep`; gather3 (rows x cols) is
  /// row-major for `cpu::row_sweep`. 6 bytes per element in all.
  [[nodiscard]] std::span<const std::uint16_t> gather1() const noexcept { return gather_[0]; }
  [[nodiscard]] std::span<const std::uint16_t> gather2() const noexcept { return gather_[1]; }
  [[nodiscard]] std::span<const std::uint16_t> gather3() const noexcept { return gather_[2]; }

  /// Bytes of the three gather tables: everything the host reads
  /// besides the data, 6 per element.
  [[nodiscard]] std::uint64_t gather_bytes() const noexcept {
    return 3 * n_ * sizeof(std::uint16_t);
  }

  /// Pass `pass`'s (1..3) row permutations g, row-major, inverted from
  /// its gather table: pass 1 and 3 are rows x cols, pass 2 runs over
  /// the transposed matrix, cols x rows. What plan files store and
  /// `bank_schedules` compiles.
  [[nodiscard]] util::aligned_vector<std::uint16_t> direct(unsigned pass) const;

  /// GPU model: shared memory per block required to execute with
  /// `elem_size`-byte elements (the max over the three row passes and
  /// the transpose tile). The host never consults it.
  [[nodiscard]] std::uint64_t shared_bytes_needed(std::uint64_t elem_size) const noexcept;

  /// GPU model: true iff the plan fits this machine's shared memory for
  /// the element size (the paper's 48 KiB / double limitation).
  [[nodiscard]] bool fits_shared(std::uint64_t elem_size) const noexcept;

  /// Deep invariant check: the three gather sweeps realize exactly the
  /// original permutation. O(n).
  [[nodiscard]] bool validate(const perm::Permutation& p) const;

  /// Reassemble a plan from its stored parts (plan_io.hpp
  /// deserialization): the direct row permutations g1..g3, whose rows
  /// must be permutations; the gather tables are derived from them.
  /// Checks structural consistency (sizes) but not that the plan
  /// realizes any particular permutation — call validate() for that.
  static ScheduledPlan restore(MatrixShape shape, model::MachineParams params,
                               util::aligned_vector<std::uint16_t> g1,
                               util::aligned_vector<std::uint16_t> g2,
                               util::aligned_vector<std::uint16_t> g3);

 private:
  ScheduledPlan() = default;

  std::uint64_t n_ = 0;
  MatrixShape shape_;
  model::MachineParams params_;
  PlanBuildStats stats_;
  /// h1 (band-interleaved, rows x cols), h2 (band-interleaved,
  /// cols x rows), h3 (row-major, rows x cols).
  std::array<util::aligned_vector<std::uint16_t>, 3> gather_;

  /// Fill h1..h3 with the row inverses of g1..g3.
  void derive_gathers(std::span<const std::uint16_t> g1, std::span<const std::uint16_t> g2,
                      std::span<const std::uint16_t> g3);
};

/// The paper's (p̂, q) conflict-free bank schedules of passes 1..3
/// (index k - 1 for pass k), compiled from `plan.direct(k)` on the
/// global pool: what the simulator and the GPU-model executors replay.
/// Deterministic. Each call colors every row's bank graph afresh, so a
/// caller that replays a plan more than once derives once and keeps
/// the result.
std::array<RowScheduleSet, 3> bank_schedules(const ScheduledPlan& plan);

}  // namespace hmm::core
