#pragma once
/// \file metrics.hpp
/// \brief Lock-cheap service counters for the permutation runtime.
///
/// Every hot-path record is one or two relaxed atomic RMWs — no mutex,
/// no allocation — so metrics can stay on in production. Latencies go
/// into a fixed 64-bucket log2 histogram (bucket = floor(log2(ns))),
/// which answers p50/p95/max questions to within a factor of two; that
/// resolution is plenty for the cold-compile vs warm-hit gap the cache
/// exists to create (roughly three orders of magnitude).
///
/// `snapshot()` reads everything into a plain struct; `to_json()` and
/// `to_table()` render that snapshot (the table via util/table.hpp so
/// the replay driver reports look like the bench harnesses).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "core/strategy.hpp"
#include "model/host.hpp"
#include "runtime/phase.hpp"
#include "util/table.hpp"

namespace hmm::runtime {

/// Point-in-time digest of one per-phase latency histogram.
struct PhaseStats {
  std::uint64_t count = 0;
  std::uint64_t ns_sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

/// Concurrent log2-bucketed histogram of nonnegative values (ns).
class LogHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t value) noexcept;

  /// Approximate q-quantile (q in [0,1]) from the bucket counts: the
  /// geometric midpoint of the bucket holding the q-th sample. Exact
  /// min/max are tracked separately. Returns 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] PhaseStats stats() const noexcept {
    return {count(), sum(), quantile(0.50), quantile(0.95), quantile(0.99), max()};
  }

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Point-in-time copy of every counter (plain integers, safe to format).
struct MetricsSnapshot {
  // Plan cache.
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_evicted = 0;
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_build_ns_total = 0;
  std::uint64_t plan_build_ns_max = 0;
  // Compiled plans by the strategy they resolved to: kAuto's host picks
  // and forced strategies alike.
  std::uint64_t plans_scheduled = 0;
  std::uint64_t plans_s_designated = 0;
  std::uint64_t plans_d_designated = 0;
  std::uint64_t plans_bucketed = 0;
  // Executor. `completed` and `failed` are disjoint: a request counts
  // in exactly one of them (completed = executed and succeeded), so
  // completed + failed = requests that ran to an outcome.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t execute_count = 0;
  std::uint64_t execute_ns_sum = 0;
  std::uint64_t execute_ns_p50 = 0;
  std::uint64_t execute_ns_p95 = 0;
  std::uint64_t execute_ns_max = 0;
  // Robustness (admission / deadlines / degradation — see service.hpp).
  std::uint64_t rejected = 0;            ///< refused at admission (queue full)
  std::uint64_t cancelled = 0;           ///< resolved kCancelled at any stage
  std::uint64_t deadline_exceeded = 0;   ///< resolved kDeadlineExceeded at any stage
  std::uint64_t degraded_executions = 0; ///< served via the conventional fallback
  std::uint64_t build_retries = 0;       ///< transient plan-build failures retried
  // Same-plan batching (see Executor::BatchOptions). `batches_executed`
  // counts fused kernel sweeps; `batched_requests` counts the requests
  // those sweeps carried, so batched_requests / batches_executed is the
  // realized amortization factor.
  std::uint64_t batches_executed = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t batch_size_p50 = 0;
  std::uint64_t batch_size_max = 0;
  // Programs (see runtime/program.hpp). `programs_executed` counts every
  // accepted EXECUTE_PROGRAM/submit_program; each is additionally either
  // fused (one composite plan) or identity (composite folded to
  // P(i) = i; echoed without kernels).
  std::uint64_t programs_executed = 0;
  std::uint64_t programs_fused = 0;
  std::uint64_t programs_identity = 0;
  std::uint64_t program_stages_p50 = 0;
  std::uint64_t program_stages_max = 0;
  // Execution environment: which kernel tier the dispatcher selected
  // (scalar/avx2/avx512 — see cpu/dispatch.hpp) and the machine's NUMA
  // node count, so bench rows and production stats are attributable to
  // the code path that actually ran.
  std::string kernel_variant;
  std::uint32_t numa_nodes = 1;
  // The host cost model kAuto picks with (core::host_params): geometry
  // always, costs once the probe has run (zero before).
  model::HostParams host;
  // Process-wide scratch buffer pool (util::BufferPool::global()).
  // Executors configured with a private pool are not reflected here.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_releases = 0;
  std::uint64_t pool_trims = 0;
  std::uint64_t pool_acquire_failures = 0;
  std::uint64_t pool_outstanding_bytes = 0;
  std::uint64_t pool_pooled_bytes = 0;
  // Per-phase latency digests, indexed by runtime::Phase.
  std::array<PhaseStats, kPhaseCount> phases{};

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }

  [[nodiscard]] const PhaseStats& phase(Phase p) const noexcept {
    return phases[static_cast<std::size_t>(p)];
  }

  /// One-line-per-field JSON object (stable key order, no dependencies).
  /// Phase digests live under a "phases" key — additive relative to the
  /// pre-phase schema, so STATS consumers keep working.
  [[nodiscard]] std::string to_json() const;

  /// Two-column name/value table for terminal reports.
  [[nodiscard]] util::Table to_table() const;

  /// Prometheus text exposition (version 0.0.4): counters as
  /// `hmm_*_total`, latency digests as summaries with a `phase` label.
  /// Written by `permd_serve --prom-file` for textfile-collector style
  /// scraping and dumped by `permd_replay --prom-file`.
  [[nodiscard]] std::string to_prometheus() const;
};

/// Shared counters the cache and executor write into. All methods are
/// thread-safe; relaxed ordering is deliberate (counters are advisory,
/// never synchronization).
class ServiceMetrics {
 public:
  void record_lookup(bool hit) noexcept {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  }

  void record_eviction(std::uint64_t bytes) noexcept {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    bytes_evicted_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void record_plan_build(std::uint64_t ns) noexcept;
  /// One compiled plan that resolved to `strategy` (never kAuto).
  void record_plan_strategy(core::Strategy strategy) noexcept;

  void record_submit(std::uint64_t queue_depth) noexcept;

  /// One executed request reached an outcome. `completed` and `failed`
  /// are disjoint — a failure must not inflate the success counter.
  void record_execute(std::uint64_t ns, bool ok) noexcept {
    (ok ? completed_ : failed_).fetch_add(1, std::memory_order_relaxed);
    execute_ns_.record(ns);
  }

  /// One sample for a single phase (e.g. the server's serialize span).
  void record_phase(Phase phase, std::uint64_t ns) noexcept {
    phase_ns_[static_cast<std::size_t>(phase)].record(ns);
  }

  /// Flush a finished request's breakdown: every phase the request
  /// touched contributes one sample (zero-ns samples included — a
  /// measured-but-instant phase still proves the timer is wired).
  void record_phases(const PhaseBreakdown& breakdown) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (breakdown.touched(static_cast<Phase>(i))) phase_ns_[i].record(breakdown.ns[i]);
    }
  }

  /// One fused batch sweep executed, carrying `size` requests.
  void record_batch(std::uint64_t size) noexcept {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(size, std::memory_order_relaxed);
    batch_size_.record(size);
  }

  /// How an accepted program was served (see runtime/program.hpp).
  enum class ProgramPath { kFused, kIdentity };

  /// One program accepted for execution: its stage count (the chain
  /// depth) and the path the fusion decision took.
  void record_program(std::uint64_t stages, ProgramPath path) noexcept {
    programs_executed_.fetch_add(1, std::memory_order_relaxed);
    switch (path) {
      case ProgramPath::kFused:
        programs_fused_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ProgramPath::kIdentity:
        programs_identity_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    program_stages_.record(stages);
  }

  void record_rejected() noexcept { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void record_cancelled() noexcept { cancelled_.fetch_add(1, std::memory_order_relaxed); }
  void record_deadline_exceeded() noexcept {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_degraded() noexcept { degraded_.fetch_add(1, std::memory_order_relaxed); }
  void record_build_retry() noexcept { build_retries_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Cheap read of the worst plan-build latency seen so far (one relaxed
  /// load). The deadline heuristic in RobustPermuteService consults this
  /// per-request; `snapshot()` is too heavy for that path now that it
  /// digests every per-phase histogram.
  [[nodiscard]] std::uint64_t plan_build_ns_max() const noexcept {
    return plan_build_ns_max_.load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bytes_evicted_{0};
  std::atomic<std::uint64_t> plan_builds_{0};
  std::atomic<std::uint64_t> plan_build_ns_total_{0};
  std::atomic<std::uint64_t> plan_build_ns_max_{0};
  std::atomic<std::uint64_t> plans_scheduled_{0};
  std::atomic<std::uint64_t> plans_s_designated_{0};
  std::atomic<std::uint64_t> plans_d_designated_{0};
  std::atomic<std::uint64_t> plans_bucketed_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> queue_high_water_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> build_retries_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> programs_executed_{0};
  std::atomic<std::uint64_t> programs_fused_{0};
  std::atomic<std::uint64_t> programs_identity_{0};
  LogHistogram program_stages_;
  LogHistogram batch_size_;
  LogHistogram execute_ns_;
  std::array<LogHistogram, kPhaseCount> phase_ns_;
};

}  // namespace hmm::runtime
