#pragma once
/// \file scheduled.hpp
/// \brief Online phase of the scheduled permutation (Section VII).
///
/// The paper executes a compiled plan as five sequential kernels —
/// row-wise, transpose, row-wise, transpose, row-wise — and
/// `scheduled_sim` replays exactly those on the simulator. The host
/// runs the same three row permutations as three gather sweeps
/// (`scheduled_cpu`): each transpose is fused into the row pass before
/// it (cpu::band_sweep), because a 16-row band stays in a core's cache
/// between the two, and the last row pass is a plain cpu::row_sweep.
/// Three reads and three writes of the data instead of five of each.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "cpu/kernels.hpp"
#include "sim/hmm_sim.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {

/// Cooperative checkpoint between kernel launches: return false to stop
/// the execution (deadline blown, request cancelled). The sweeps are
/// sequential, so the gaps between them are the natural preemption
/// points a serving layer gets for free — a stopped execution leaves
/// `b`/`scratch` partially written, which the caller must treat as
/// garbage.
using PhaseGate = std::function<bool()>;

/// Per-lane gate of `scheduled_cpu`: consulted with the lane's index
/// after every sweep but the last; false drops that lane.
using LaneGate = std::function<bool(std::size_t lane)>;

/// Per-kernel timing callback: invoked once after each kernel that ran,
/// with the kernel index and its wall time in nanoseconds. The host's
/// three sweeps report under the index of the paper's row pass each one
/// starts — 0, 2 and 4 — so indices 1 and 3 (the paper's transposes,
/// fused into the sweeps) never fire. `kConventionalKernel` marks the
/// single kernel of a conventional strategy. Core stays
/// observability-agnostic: the callback carries a neutral (index, ns)
/// pair and the serving layer maps it to its own phase taxonomy.
using KernelObserver = std::function<void(unsigned kernel, std::uint64_t ns)>;

/// Kernel index reported by the timed entry points for the single
/// kernel of a conventional (non-scheduled) strategy.
inline constexpr unsigned kConventionalKernel = 5;

/// One request of a scheduled execution: b = P(a) through `scratch`,
/// all of the plan's size. `a` must not alias `b`; it may alias
/// `scratch` (the first sweep consumes it before scratch is written).
template <class T>
struct Lane {
  std::span<const T> a;
  std::span<T> b;
  std::span<T> scratch;
  bool active = true;  ///< in: lane participates; out: ran all three sweeps
};

/// A plan's host schedule: the three gather tables and their shape
/// (ScheduledPlan::gather1..3). Plan-free callers (the kAuto probe)
/// fill one in directly.
struct SweepTables {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::span<const std::uint16_t> h1;  ///< band-interleaved, rows x cols
  std::span<const std::uint16_t> h2;  ///< band-interleaved, cols x rows
  std::span<const std::uint16_t> h3;  ///< row-major, rows x cols
};

/// Run the three sweeps over every active lane together — one
/// fork-join per sweep for the whole batch, each table entry decoded
/// once for every lane:
///   1. band sweep a -> b      (row pass 1 + transpose 1, cols x rows)
///   2. band sweep b -> scratch (row pass 2 + transpose 2, rows x cols)
///   3. row sweep scratch -> b (row pass 3)
/// `gate` is consulted for each live lane after sweeps 1 and 2; a lane
/// it stops has `active` cleared and skips the remaining sweeps while
/// the others proceed. `observer` fires once per sweep with the
/// batch-wide span. Returns true iff every active lane ran to
/// completion.
template <class T>
bool scheduled_cpu(util::ThreadPool& pool, const SweepTables& s, std::span<Lane<T>> lanes,
                   const LaneGate& gate = {}, const KernelObserver& observer = {}) {
  const std::uint64_t n = s.rows * s.cols;
  HMM_CHECK(s.h1.size() == n && s.h2.size() == n && s.h3.size() == n);
  std::size_t live = 0;
  for (const Lane<T>& lane : lanes) {
    if (!lane.active) continue;
    HMM_CHECK(lane.a.size() == n && lane.b.size() == n && lane.scratch.size() == n);
    ++live;
  }
  if (live == 0) return true;
  const std::size_t started = live;

  // The live lanes' source and destination pointers for one sweep: on
  // the stack for a few lanes, so a single request allocates nothing.
  constexpr std::size_t kStackLanes = 4;
  std::array<const T*, kStackLanes> src_stack{};
  std::array<T*, kStackLanes> dst_stack{};
  std::vector<const T*> src_heap(lanes.size() > kStackLanes ? lanes.size() : 0);
  std::vector<T*> dst_heap(src_heap.size());
  const T** srcs = src_heap.empty() ? src_stack.data() : src_heap.data();
  T** dsts = dst_heap.empty() ? dst_stack.data() : dst_heap.data();
  const auto bind = [&](auto from, auto to) {
    std::size_t k = 0;
    for (Lane<T>& lane : lanes) {
      if (!lane.active) continue;
      srcs[k] = (lane.*from).data();
      dsts[k] = (lane.*to).data();
      ++k;
    }
    return std::pair{std::span<const T* const>(srcs, k), std::span<T* const>(dsts, k)};
  };
  // Drop the lanes the gate stops; true while any lane is left.
  const auto gate_lanes = [&] {
    if (!gate) return true;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].active && !gate(i)) {
        lanes[i].active = false;
        --live;
      }
    }
    return live > 0;
  };
  util::Stopwatch clock;
  const auto observe = [&](unsigned kernel) {
    if (observer) {
      observer(kernel, static_cast<std::uint64_t>(clock.nanos()));
      clock.reset();
    }
  };

  auto [in, out] = bind(&Lane<T>::a, &Lane<T>::b);
  cpu::band_sweep<T>(pool, in, out, s.rows, s.cols, s.h1);
  observe(0);
  if (!gate_lanes()) return false;
  std::tie(in, out) = bind(&Lane<T>::b, &Lane<T>::scratch);
  cpu::band_sweep<T>(pool, in, out, s.cols, s.rows, s.h2);
  observe(2);
  if (!gate_lanes()) return false;
  std::tie(in, out) = bind(&Lane<T>::scratch, &Lane<T>::b);
  cpu::row_sweep<T>(pool, in, out, s.rows, s.cols, s.h3);
  observe(4);
  return live == started;
}

/// `scheduled_cpu` on a compiled plan's tables.
template <class T>
bool scheduled_cpu(util::ThreadPool& pool, const ScheduledPlan& plan, std::span<Lane<T>> lanes,
                   const LaneGate& gate = {}, const KernelObserver& observer = {}) {
  const SweepTables tables{plan.shape().rows, plan.shape().cols, plan.gather1(),
                           plan.gather2(), plan.gather3()};
  return scheduled_cpu<T>(pool, tables, lanes, gate, observer);
}

/// One request, no gate: b = P(a) through one n-element scratch array.
template <class T>
void scheduled_cpu(util::ThreadPool& pool, const ScheduledPlan& plan, std::span<const T> a,
                   std::span<T> b, std::span<T> scratch) {
  Lane<T> lane{a, b, scratch};
  (void)scheduled_cpu<T>(pool, plan, std::span<Lane<T>>(&lane, 1));
}

/// Issue every memory-access round of the scheduled algorithm on the
/// simulator (16 coalesced global + 16 conflict-free shared rounds);
/// returns the elapsed time units. Addresses only — pair with
/// `scheduled_sim` for data movement. `words` is the data element
/// width in machine words (model::words_of<T>()). Derives the plan's
/// bank schedules (`bank_schedules`).
std::uint64_t scheduled_sim_rounds(sim::HmmSim& sim, const ScheduledPlan& plan,
                                   std::uint32_t words = 1);

/// The same rounds for explicit pass 1..3 bank schedules of a `shape`
/// plan, e.g. a deliberately corrupted copy whose bank conflicts the
/// simulator must flag.
std::uint64_t scheduled_sim_rounds(sim::HmmSim& sim, const MatrixShape& shape,
                                   const std::array<RowScheduleSet, 3>& schedules,
                                   std::uint32_t words = 1);

/// Execute the plan on the simulator backend: moves the data through
/// the paper's five kernels (serially, reading the (p̂, q) schedules)
/// and accounts the model time.
template <class T>
std::uint64_t scheduled_sim(sim::HmmSim& sim, const ScheduledPlan& plan, std::span<const T> a,
                            std::span<T> b) {
  const std::uint64_t n = plan.size();
  HMM_CHECK(a.size() == n && b.size() == n);
  HMM_CHECK_MSG(plan.params().width == sim.params().width,
                "plan was built for a different machine width");
  const std::uint64_t r = plan.shape().rows;
  const std::uint64_t m = plan.shape().cols;
  const std::array<RowScheduleSet, 3> schedules = bank_schedules(plan);

  std::vector<T> t1(n), t2(n);
  auto row_pass = [&](const RowScheduleSet& set, const T* in, T* out) {
    for (std::uint64_t row = 0; row < set.rows; ++row) {
      const auto phat = set.phat_row(row);
      const auto q = set.q_row(row);
      const std::uint64_t base = row * set.cols;
      for (std::uint64_t k = 0; k < set.cols; ++k) out[base + q[k]] = in[base + phat[k]];
    }
  };
  auto transpose_pass = [&](std::uint64_t rows, std::uint64_t cols, const T* in, T* out) {
    for (std::uint64_t i = 0; i < rows; ++i) {
      for (std::uint64_t j = 0; j < cols; ++j) out[j * rows + i] = in[i * cols + j];
    }
  };

  row_pass(schedules[0], a.data(), t1.data());
  transpose_pass(r, m, t1.data(), t2.data());
  row_pass(schedules[1], t2.data(), t1.data());
  transpose_pass(m, r, t1.data(), t2.data());
  row_pass(schedules[2], t2.data(), b.data());

  return scheduled_sim_rounds(sim, plan.shape(), schedules, model::words_of<T>());
}

}  // namespace hmm::core
