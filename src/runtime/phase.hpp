#pragma once
/// \file phase.hpp
/// \brief The serving-path phase taxonomy and per-request span
///        collection.
///
/// The paper's whole argument is that total permutation time decomposes
/// into distinct memory-access phases (three row-wise passes + two
/// transposes for the scheduled algorithm vs the distribution-dependent
/// single kernel of the conventional one). The host fuses each
/// transpose into the row pass before it, so a scheduled request
/// records three kernel phases: `row_pass_1` (row pass 1 + transpose
/// 1), `row_pass_2` (row pass 2 + transpose 2) and `row_pass_3`. The
/// serving layer inherits
/// that structure and adds its own: a request's wall time is admission
/// wait + queue wait + plan-cache lookup (+ build on a miss) + the
/// kernel passes + response serialization. This header names those
/// phases once, so the executor, plan cache, server, metrics, and the
/// Prometheus exposition all agree on the taxonomy.
///
/// `PhaseBreakdown` is the per-request collector: plain (non-atomic)
/// accumulators filled in by whichever thread owns the request at each
/// stage (submitter -> pool worker is a happens-before handoff through
/// the task queue). At request end the executor flushes the breakdown
/// into the per-phase `LogHistogram`s in `ServiceMetrics` and, when the
/// slow-request log is armed, prints it for outliers.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hmm::runtime {

/// Where a request's nanoseconds went. Order is presentation order in
/// tables / JSON / Prometheus; labels are frozen once exported.
enum class Phase : std::uint8_t {
  kAdmissionWait = 0,   ///< blocked at the executor's in-flight bound
  kQueueWait,           ///< enqueue -> dequeue on the pool
  kPlanLookup,          ///< plan-cache index probe (hit or miss)
  kPlanBuild,           ///< offline plan compile (or wait on the builder)
  kKernelRowPass1,      ///< scheduled sweep 1: row pass 1 fused with transpose 1
  kKernelTranspose1,    ///< retired: fused into row_pass_1, never recorded
  kKernelRowPass2,      ///< scheduled sweep 2: row pass 2 fused with transpose 2
  kKernelTranspose2,    ///< retired: fused into row_pass_2, never recorded
  kKernelRowPass3,      ///< scheduled sweep 3: row pass 3
  kKernelConventional,  ///< single conventional kernel (chosen or degraded)
  kSerialize,           ///< response encode + socket write
  kProgramCompile,      ///< program resolve + fuse (compose/inverse/generators)
};

inline constexpr std::size_t kPhaseCount = 12;

/// Snake-case label, stable across JSON keys, table rows, and the
/// Prometheus `phase="..."` label. Frozen once exported.
[[nodiscard]] std::string_view to_string(Phase p) noexcept;

/// All phases in presentation order (for renderers and scrapers).
[[nodiscard]] const std::array<Phase, kPhaseCount>& all_phases() noexcept;

/// Map a kernel index reported by `core::OfflinePermuter::permute_timed`
/// (0, 2, 4 = the scheduled plan's three sweeps, `core::
/// kConventionalKernel` = the single conventional kernel) to its Phase.
[[nodiscard]] Phase phase_for_kernel(unsigned kernel) noexcept;

/// Per-request phase accumulator. Not thread-safe by design: exactly
/// one thread owns the request at any stage of its lifecycle.
struct PhaseBreakdown {
  std::array<std::uint64_t, kPhaseCount> ns{};

  void add(Phase p, std::uint64_t nanos) noexcept {
    ns[static_cast<std::size_t>(p)] += nanos;
    touched_ |= 1u << static_cast<std::uint32_t>(p);
  }

  /// True iff the phase was entered at all (a 0 ns sample still counts:
  /// "measured and instant" is different from "never wired up").
  [[nodiscard]] bool touched(Phase p) const noexcept {
    return (touched_ & (1u << static_cast<std::uint32_t>(p))) != 0;
  }

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t v : ns) total += v;
    return total;
  }

 private:
  std::uint32_t touched_ = 0;
};

/// One scraped row of the `"phases"` object in
/// `MetricsSnapshot::to_json()` output.
struct PhaseScrape {
  std::string label;
  std::uint64_t count = 0;
  std::uint64_t ns_sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t max = 0;
};

/// Extract the per-phase stats from a ServiceMetrics JSON snapshot (the
/// exact grammar `MetricsSnapshot::to_json()` emits — this is a
/// targeted scanner, not a general JSON parser). Phases absent from the
/// input are absent from the result; a payload with no "phases" object
/// yields an empty vector. Shared by permd_client and permd_loadgen so
/// the server-side breakdown can be rendered from the STATS wire
/// response without a JSON dependency.
[[nodiscard]] std::vector<PhaseScrape> scrape_phases_json(std::string_view metrics_json);

}  // namespace hmm::runtime
