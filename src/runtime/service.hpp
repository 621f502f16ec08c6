#pragma once
/// \file service.hpp
/// \brief `RobustPermuteService` — the hardened serving facade, and the
///        degradation ladder it implements.
///
/// The paper proves the scheduled algorithm (König coloring + row
/// schedules) optimal, but it also leaves us a safety net: the
/// conventional D-/S-designated algorithms (Section IV) compute the
/// *same* permutation with no offline phase at all, just more memory
/// rounds. The service exploits exactly that structure as a
/// degradation ladder:
///
///   1. **Scheduled / cached** — PlanCache hit or successful build;
///      the optimal path.
///   2. **Retry** — transient build failures (kPlanBuildFailed,
///      kUnavailable, kResourceExhausted) are retried up to
///      `max_build_retries` times with deterministic jittered
///      exponential backoff.
///   3. **Conventional fallback** — if retries are exhausted, or the
///      request's deadline budget is too tight to risk an offline
///      build, the request is served by the D-designated conventional
///      permuter (correct, slower, zero offline phase) and counted in
///      `degraded_executions`.
///   4. **Reject** — non-transient errors (kInvalidArgument), expired
///      deadlines, cancellation, and admission-bound rejections fail
///      fast with a typed Status. The process never aborts on a
///      request-level failure.
///
/// The facade owns the metrics + cache + executor stack; `submit`
/// validates the request, resolves the ladder, and hands the request
/// to the executor with its deadline and cancel token attached.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/permuter.hpp"
#include "core/plan_io.hpp"
#include "runtime/cancel.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/program.hpp"
#include "runtime/status.hpp"
#include "util/thread_pool.hpp"

namespace hmm::runtime {

/// Per-request controls. Defaults: no deadline, not cancellable, let
/// the permuter pick its strategy.
struct RequestOptions {
  std::chrono::steady_clock::time_point deadline = Executor::kNoDeadline;
  CancelToken cancel;
  core::Strategy strategy = core::Strategy::kAuto;
  /// Correlation id echoed in the slow-request log (the net server
  /// forwards the HMMP request_id). 0 = unnamed.
  std::uint64_t trace_id = 0;
};

/// Program-request controls: everything a plain request has, plus the
/// fusion override.
struct ProgramRequestOptions : RequestOptions {
  /// Force the staged fallback — run the chain back-to-back through
  /// pooled intermediates instead of compiling one composite plan.
  /// Wire flag bit0 maps here; differential tests and chaos drills
  /// (the `program.stage` fault site only exists on this path) are the
  /// other users. Default: let the service fuse.
  bool force_staged = false;
};

class RobustPermuteService {
 public:
  struct Config {
    model::MachineParams machine = model::MachineParams::gtx680();
    /// Strategy for requests that leave `RequestOptions::strategy` at
    /// kAuto. kAuto lets each plan's permuter pick by the host cost
    /// model; kScheduled keeps every plan the paper's algorithm supports
    /// on it (and so within reach of same-plan batching), leaving the
    /// rest to kAuto.
    core::Strategy strategy = core::Strategy::kAuto;
    PlanCache::Config cache;
    Executor::Config executor;
    /// Additional attempts after the first failed plan build (0 = fail
    /// straight through to the fallback / the caller).
    int max_build_retries = 2;
    /// Backoff before retry k is `base << k` plus a deterministic
    /// jitter of up to the same amount (seeded: chaos runs replay).
    std::chrono::microseconds retry_backoff_base{200};
    std::uint64_t retry_jitter_seed = 0x5eed5eed5eed5eedull;
    /// Serve via the conventional D-designated permuter when the
    /// scheduled plan is unavailable. Off = surface the build error.
    bool allow_degraded = true;
    /// LRU bound on memoized composite permutations (program
    /// fingerprint -> fused mapping). This caches the *composition*
    /// (O(k*n) table walks); the compiled composite plan is separately
    /// content-addressed by PlanCache. 0 disables memoization.
    std::uint64_t max_cached_composites = 64;
  };

  explicit RobustPermuteService(util::ThreadPool& pool)
      : RobustPermuteService(pool, Config{}) {}
  RobustPermuteService(util::ThreadPool& pool, Config config)
      : pool_(pool),
        config_(config),
        cache_(config.cache, &metrics_),
        executor_(pool, &metrics_, config.executor) {}

  /// Validate, resolve the degradation ladder, submit. A synchronous
  /// error Status means the request was refused and never executed; an
  /// OK result carries the future with the request outcome. Arrays must
  /// stay alive and un-mutated until that future resolves.
  template <class T>
  StatusOr<std::future<Status>> submit(const perm::Permutation& p, std::span<const T> a,
                                       std::span<T> b, RequestOptions opts = {}) {
    if (p.size() == 0) return Status(StatusCode::kInvalidArgument, "empty permutation");
    if (a.size() != p.size() || b.size() != p.size()) {
      return Status(StatusCode::kInvalidArgument, "array sizes do not match the permutation");
    }
    if (a.data() == b.data()) {
      return Status(StatusCode::kInvalidArgument, "in-place permutation is not supported");
    }
    if (opts.cancel.cancelled()) {
      metrics_.record_cancelled();
      return Status(StatusCode::kCancelled, "cancelled before submission");
    }
    if (deadline_expired(opts.deadline)) {
      metrics_.record_deadline_exceeded();
      return Status(StatusCode::kDeadlineExceeded, "deadline already expired at submission");
    }

    // The request's phase breakdown starts here: the plan tier fills
    // in lookup/build time, the executor adds admission/queue/kernel
    // spans and owns the final flush. Requests refused before reaching
    // the executor flush whatever they accumulated on the way out.
    auto phases = std::make_shared<PhaseBreakdown>();
    std::shared_ptr<const core::OfflinePermuter<T>> permuter;
    bool degraded = false;
    if (should_skip_build_for_deadline<T>(p, opts)) {
      // Deadline pressure: an offline build would likely eat the whole
      // budget; go straight to the conventional tier.
      degraded = true;
    } else {
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> acquired =
          acquire_with_retry<T>(p, opts, phases.get());
      if (acquired.ok()) {
        permuter = std::move(acquired).value();
      } else if (config_.allow_degraded && is_transient(acquired.status().code())) {
        degraded = true;
      } else {
        metrics_.record_phases(*phases);
        return acquired.status();
      }
    }

    if (degraded) {
      // The fallback's (cheap) construction is still plan-build time:
      // the degraded tier trades the offline phase for extra memory
      // rounds, and the breakdown should show that trade.
      util::Stopwatch build_clock;
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> fallback =
          build_conventional<T>(p);
      phases->add(Phase::kPlanBuild, static_cast<std::uint64_t>(build_clock.nanos()));
      if (!fallback.ok()) {
        metrics_.record_phases(*phases);
        return fallback.status();
      }
      permuter = std::move(fallback).value();
    }

    Executor::SubmitOptions submit_opts;
    submit_opts.deadline = opts.deadline;
    submit_opts.cancel = opts.cancel;
    submit_opts.trace_id = opts.trace_id;
    submit_opts.phases = std::move(phases);
    StatusOr<std::future<Status>> submitted =
        executor_.try_submit<T>(std::move(permuter), a, b, std::move(submit_opts));
    if (submitted.ok() && degraded) metrics_.record_degraded();
    return submitted;
  }

  /// Execute a permutation *program* — a validated op chain over
  /// registered plans and parametric generators (see
  /// runtime/program.hpp) — as one request. The compiler resolves and
  /// fuses the chain into a single composite permutation (attributed to
  /// the `program_compile` phase and cached under the program's
  /// order-sensitive fingerprint, so repeats skip both resolution and
  /// composition; the composite *plan* is additionally content-addressed
  /// by PlanCache, which single-flights concurrent first builds). The
  /// fused composite then rides the normal degradation ladder. Two
  /// shortcuts bracket it:
  ///
  ///  - **Identity**: a chain that folds to P(i) = i (e.g. P then
  ///    INVERSE P) is answered with one memcpy — no plan, no kernels —
  ///    and counted in `programs_identity`.
  ///  - **Staged** (`opts.force_staged`): each stage acquires its own
  ///    permuter and the executor runs them back-to-back through pooled
  ///    ping-pong intermediates (`Executor::submit_program`). Bitwise
  ///    identical to the fused path; used by differential tests, chaos
  ///    drills, and wire flag bit0.
  ///
  /// All validation failures (unknown opcode, unregistered fingerprint,
  /// stage-size mismatch, generator preconditions) surface as typed
  /// kInvalidArgument *before* any composition runs — a hostile program
  /// can never reach an HMM_CHECK abort.
  template <class T>
  StatusOr<std::future<Status>> submit_program(const Program& program,
                                               const PlanResolver& resolver,
                                               std::span<const T> a, std::span<T> b,
                                               ProgramRequestOptions opts = {}) {
    if (a.size() == 0) return Status(StatusCode::kInvalidArgument, "empty program input");
    if (a.size() != b.size()) {
      return Status(StatusCode::kInvalidArgument, "program input/output sizes differ");
    }
    if (a.data() == b.data()) {
      return Status(StatusCode::kInvalidArgument, "in-place permutation is not supported");
    }
    if (opts.cancel.cancelled()) {
      metrics_.record_cancelled();
      return Status(StatusCode::kCancelled, "cancelled before submission");
    }
    if (deadline_expired(opts.deadline)) {
      metrics_.record_deadline_exceeded();
      return Status(StatusCode::kDeadlineExceeded, "deadline already expired at submission");
    }

    const std::uint64_t n = a.size();
    const std::uint64_t chain_depth = program.ops.size();
    auto phases = std::make_shared<PhaseBreakdown>();

    // --- Compile: resolve + fuse, under the program_compile phase. ---
    util::Stopwatch compile_clock;
    const Fingerprint fp = program_fingerprint(program.ops, n);
    std::shared_ptr<const perm::Permutation> composite;
    ResolvedProgram resolved;
    if (!opts.force_staged) composite = cached_composite(fp.value);
    if (!composite) {
      StatusOr<ResolvedProgram> r = resolve_program(program, n, resolver);
      if (!r.ok()) {
        phases->add(Phase::kProgramCompile, static_cast<std::uint64_t>(compile_clock.nanos()));
        metrics_.record_phases(*phases);
        return r.status();
      }
      resolved = std::move(r).value();
      if (!opts.force_staged) {
        StatusOr<perm::Permutation> fused = fuse_program(resolved);
        if (!fused.ok()) {
          phases->add(Phase::kProgramCompile, static_cast<std::uint64_t>(compile_clock.nanos()));
          metrics_.record_phases(*phases);
          return fused.status();
        }
        composite = std::make_shared<const perm::Permutation>(std::move(fused).value());
        cache_composite(fp.value, composite);
      }
    }
    phases->add(Phase::kProgramCompile, static_cast<std::uint64_t>(compile_clock.nanos()));

    // --- Staged fallback: per-stage permuters, one executor request. ---
    if (opts.force_staged) {
      std::vector<std::shared_ptr<const core::OfflinePermuter<T>>> stages;
      stages.reserve(resolved.stages.size());
      bool degraded = false;
      for (const auto& stage_perm : resolved.stages) {
        std::shared_ptr<const core::OfflinePermuter<T>> permuter;
        if (!should_skip_build_for_deadline<T>(*stage_perm, opts)) {
          StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> acquired =
              acquire_with_retry<T>(*stage_perm, opts, phases.get());
          if (acquired.ok()) {
            permuter = std::move(acquired).value();
          } else if (!config_.allow_degraded || !is_transient(acquired.status().code())) {
            metrics_.record_phases(*phases);
            return acquired.status();
          }
        }
        if (!permuter) {
          util::Stopwatch build_clock;
          StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> fallback =
              build_conventional<T>(*stage_perm);
          phases->add(Phase::kPlanBuild, static_cast<std::uint64_t>(build_clock.nanos()));
          if (!fallback.ok()) {
            metrics_.record_phases(*phases);
            return fallback.status();
          }
          permuter = std::move(fallback).value();
          degraded = true;
        }
        stages.push_back(std::move(permuter));
      }
      Executor::SubmitOptions submit_opts;
      submit_opts.deadline = opts.deadline;
      submit_opts.cancel = opts.cancel;
      submit_opts.trace_id = opts.trace_id;
      submit_opts.phases = std::move(phases);
      StatusOr<std::future<Status>> submitted =
          executor_.submit_program<T>(std::move(stages), a, b, std::move(submit_opts));
      if (submitted.ok()) {
        metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kStaged);
        if (degraded) metrics_.record_degraded();
      }
      return submitted;
    }

    // --- Identity fast-path: the chain folded to P(i) = i. ---
    if (composite->is_identity()) {
      std::memcpy(b.data(), a.data(), n * sizeof(T));
      metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kIdentity);
      metrics_.record_phases(*phases);
      std::promise<Status> done;
      done.set_value(Status::ok());
      return done.get_future();
    }

    // --- Fused: the composite rides the normal degradation ladder. ---
    std::shared_ptr<const core::OfflinePermuter<T>> permuter;
    bool degraded = false;
    if (should_skip_build_for_deadline<T>(*composite, opts)) {
      degraded = true;
    } else {
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> acquired =
          acquire_with_retry<T>(*composite, opts, phases.get());
      if (acquired.ok()) {
        permuter = std::move(acquired).value();
      } else if (config_.allow_degraded && is_transient(acquired.status().code())) {
        degraded = true;
      } else {
        metrics_.record_phases(*phases);
        return acquired.status();
      }
    }
    if (degraded) {
      util::Stopwatch build_clock;
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> fallback =
          build_conventional<T>(*composite);
      phases->add(Phase::kPlanBuild, static_cast<std::uint64_t>(build_clock.nanos()));
      if (!fallback.ok()) {
        metrics_.record_phases(*phases);
        return fallback.status();
      }
      permuter = std::move(fallback).value();
    }
    Executor::SubmitOptions submit_opts;
    submit_opts.deadline = opts.deadline;
    submit_opts.cancel = opts.cancel;
    submit_opts.trace_id = opts.trace_id;
    submit_opts.phases = std::move(phases);
    StatusOr<std::future<Status>> submitted =
        executor_.try_submit<T>(std::move(permuter), a, b, std::move(submit_opts));
    if (submitted.ok()) {
      metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kFused);
      if (degraded) metrics_.record_degraded();
    }
    return submitted;
  }

  [[nodiscard]] const ServiceMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] ServiceMetrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] PlanCache& cache() noexcept { return cache_; }
  [[nodiscard]] Executor& executor() noexcept { return executor_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  void wait_idle() { executor_.wait_idle(); }
  [[nodiscard]] bool wait_idle_for(std::chrono::nanoseconds timeout) {
    return executor_.wait_idle_for(timeout);
  }

 private:
  static bool deadline_expired(std::chrono::steady_clock::time_point deadline) noexcept {
    return deadline != Executor::kNoDeadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// The request's strategy, or the service default when it says kAuto
  /// (a scheduled default only where the plan supports it).
  [[nodiscard]] core::Strategy strategy_for(const perm::Permutation& p,
                                            const RequestOptions& opts) const noexcept {
    if (opts.strategy != core::Strategy::kAuto) return opts.strategy;
    if (config_.strategy == core::Strategy::kScheduled &&
        !core::OfflinePermuter<float>::plan_supported(p.size(), config_.machine)) {
      return core::Strategy::kAuto;
    }
    return config_.strategy;
  }

  /// Deadline-pressure heuristic: with an uncached plan and a deadline
  /// tighter than the worst build observed so far, skip the offline
  /// phase entirely. Conservative on a cold service (no builds observed
  /// -> no estimate -> try the build).
  template <class T>
  bool should_skip_build_for_deadline(const perm::Permutation& p, const RequestOptions& opts) {
    if (!config_.allow_degraded || opts.deadline == Executor::kNoDeadline) return false;
    if (cache_.contains(PlanCache::plan_key<T>(p, config_.machine, strategy_for(p, opts)))) {
      return false;
    }
    const std::uint64_t worst_build_ns = metrics_.plan_build_ns_max();
    if (worst_build_ns == 0) return false;
    const auto remaining = opts.deadline - std::chrono::steady_clock::now();
    return remaining < std::chrono::nanoseconds(worst_build_ns);
  }

  template <class T>
  StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> acquire_with_retry(
      const perm::Permutation& p, const RequestOptions& opts, PhaseBreakdown* phases) {
    for (int attempt = 0;; ++attempt) {
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> result =
          cache_.try_acquire<T>(p, config_.machine, strategy_for(p, opts), phases);
      if (result.ok() || attempt >= config_.max_build_retries ||
          !is_transient(result.status().code())) {
        return result;
      }
      const std::chrono::microseconds pause = backoff_with_jitter(attempt);
      if (opts.deadline != Executor::kNoDeadline &&
          std::chrono::steady_clock::now() + pause >= opts.deadline) {
        return result;  // no budget left to retry; ladder decides next
      }
      metrics_.record_build_retry();
      std::this_thread::sleep_for(pause);
    }
  }

  /// Backoff for retry `attempt`: base * 2^attempt plus deterministic
  /// jitter in [0, base * 2^attempt) so synchronized failures fan out.
  [[nodiscard]] std::chrono::microseconds backoff_with_jitter(int attempt) const {
    const std::uint64_t base_us =
        static_cast<std::uint64_t>(config_.retry_backoff_base.count()) << attempt;
    std::uint64_t x = config_.retry_jitter_seed ^ (0x9e3779b97f4a7c15ull * (attempt + 1));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    const std::uint64_t jitter_us = base_us == 0 ? 0 : (x ^ (x >> 31)) % base_us;
    return std::chrono::microseconds(base_us + jitter_us);
  }

  /// The conventional tier: a D-designated permuter has no offline
  /// phase beyond copying the mapping, so it cannot hit the plan-build
  /// fault domain. Built outside the cache on purpose — degraded
  /// service must not evict healthy compiled plans.
  template <class T>
  StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> build_conventional(
      const perm::Permutation& p) {
    try {
      return std::shared_ptr<const core::OfflinePermuter<T>>(
          std::make_shared<const core::OfflinePermuter<T>>(p, config_.machine,
                                                           core::Strategy::kDDesignated));
    } catch (const std::bad_alloc&) {
      return Status(StatusCode::kResourceExhausted, "allocation failed building fallback");
    } catch (const std::exception& e) {
      return Status(StatusCode::kUnavailable,
                    std::string("conventional fallback failed: ") + e.what());
    }
  }

  /// Composite-permutation memo lookup (program fingerprint keyed);
  /// a hit refreshes LRU order. nullptr on miss or when disabled.
  [[nodiscard]] std::shared_ptr<const perm::Permutation> cached_composite(std::uint64_t key) {
    std::lock_guard lock(composites_mutex_);
    const auto it = composites_.find(key);
    if (it == composites_.end()) return nullptr;
    composites_lru_.splice(composites_lru_.begin(), composites_lru_, it->second.second);
    return it->second.first;
  }

  void cache_composite(std::uint64_t key, std::shared_ptr<const perm::Permutation> composite) {
    if (config_.max_cached_composites == 0) return;
    std::lock_guard lock(composites_mutex_);
    if (composites_.count(key) != 0) return;  // racing first submissions: keep the incumbent
    composites_lru_.push_front(key);
    composites_.emplace(key, std::make_pair(std::move(composite), composites_lru_.begin()));
    while (composites_.size() > config_.max_cached_composites) {
      composites_.erase(composites_lru_.back());
      composites_lru_.pop_back();
    }
  }

  util::ThreadPool& pool_;
  Config config_;
  ServiceMetrics metrics_;
  PlanCache cache_;
  Executor executor_;

  // Composite-permutation memo (see Config::max_cached_composites).
  std::mutex composites_mutex_;
  std::list<std::uint64_t> composites_lru_;
  std::unordered_map<std::uint64_t,
                     std::pair<std::shared_ptr<const perm::Permutation>,
                               std::list<std::uint64_t>::iterator>>
      composites_;
};

/// Load a serialized plan as a typed Status instead of a bare nullopt:
/// kUnavailable for IO-level failures, kInvalidArgument for malformed
/// or corrupt payloads (with the loader's reason attached). Carries the
/// `plan_io.read` fault-injection point, which corrupts the in-memory
/// image before parsing — proving the loader's validation rejects a
/// torn read instead of feeding garbage to a kernel.
StatusOr<core::ScheduledPlan> load_plan_checked(const std::string& path);

}  // namespace hmm::runtime
