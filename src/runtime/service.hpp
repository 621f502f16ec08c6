#pragma once
/// \file service.hpp
/// \brief `RobustPermuteService` — the hardened serving facade, and the
///        one plan-resolution ladder every request takes.
///
/// The paper's conventional D-/S-designated algorithms (Section IV)
/// compute the *same* permutation as any compiled plan with no offline
/// phase at all, just more memory rounds. The service uses exactly that
/// structure as a degradation ladder, resolved by one private function
/// (`resolve`) for plain requests and programs alike:
///
///   1. **Cached / built** — a PlanCache hit or a successful build of
///      the plan kAuto picks: the host cost model's choice (the bucketed
///      kernel or S-designated).
///   2. **Retry** — transient build failures (kPlanBuildFailed,
///      kUnavailable, kResourceExhausted) are retried up to
///      `max_build_retries` times with deterministic jittered
///      exponential backoff.
///   3. **Conventional fallback** — if retries are exhausted, or the
///      request's deadline is tighter than the slowest build observed
///      so far and its plan is not cached, the request is served by an
///      S-designated permuter built outside the cache (correct, zero
///      plan build) and counted in `degraded_executions`.
///   4. **Reject** — non-transient errors (kInvalidArgument), expired
///      deadlines, cancellation, and admission-bound rejections fail
///      fast with a typed Status. The process never aborts on a
///      request-level failure.
///
/// Every request takes one path: validate, resolve a permuter through
/// the ladder, hand it to `Executor::try_submit` with its deadline and
/// cancel token attached. A program request first compiles its op
/// chain into one composite permutation; that composite either folds to
/// the identity (answered with a memcpy) or rides the same ladder
/// (fused).

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
#include "runtime/cancel.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/program.hpp"
#include "runtime/status.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hmm::runtime {

/// Per-request controls. Defaults: no deadline, not cancellable.
struct RequestOptions {
  std::chrono::steady_clock::time_point deadline = Executor::kNoDeadline;
  CancelToken cancel;
  /// Correlation id echoed in the slow-request log (the net server
  /// forwards the HMMP request_id). 0 = unnamed.
  std::uint64_t trace_id = 0;
};

class RobustPermuteService {
 public:
  struct Config {
    PlanCache::Config cache;
    Executor::Config executor;
    /// Additional attempts after the first failed plan build (0 = fail
    /// straight through to the fallback / the caller).
    int max_build_retries = 2;
    /// Backoff before retry k is `base << k` plus a deterministic
    /// jitter of up to the same amount (seeded: chaos runs replay).
    std::chrono::microseconds retry_backoff_base{200};
  };

  /// Seed of the retry-backoff jitter.
  static constexpr std::uint64_t kRetryJitterSeed = 0x5eed5eed5eed5eedull;
  /// LRU bound on memoized composite permutations (program fingerprint
  /// -> fused mapping). This caches the *composition* (O(k*n) table
  /// walks); the compiled composite plan is separately content-addressed
  /// by PlanCache.
  static constexpr std::size_t kMaxCachedComposites = 64;

  explicit RobustPermuteService(util::ThreadPool& pool)
      : RobustPermuteService(pool, Config{}) {}
  RobustPermuteService(util::ThreadPool& pool, Config config)
      : config_(config),
        cache_(config.cache, &metrics_),
        executor_(pool, &metrics_, config.executor) {}

  /// Validate, resolve the degradation ladder, submit. A synchronous
  /// error Status means the request was refused and never executed; an
  /// OK result carries the future with the request outcome. Arrays must
  /// stay alive and un-mutated until that future resolves.
  template <class T>
  StatusOr<std::future<Status>> submit(const perm::Permutation& p, std::span<const T> a,
                                       std::span<T> b, RequestOptions opts = {}) {
    Status refused = refuse_early<T>(p.size(), a, b, opts);
    if (!refused.is_ok()) return refused;
    // The request's phase breakdown starts here: the plan tier fills
    // in lookup/build time, the executor adds admission/queue/kernel
    // spans and owns the final flush.
    auto phases = std::make_shared<PhaseBreakdown>();
    StatusOr<Resolved<T>> resolved = resolve<T>(p, opts, *phases);
    return hand_off<T>(std::move(resolved), a, b, opts, std::move(phases));
  }

  /// Execute a permutation *program* — a validated op chain over
  /// registered plans and parametric generators (see
  /// runtime/program.hpp) — as one request. The compiler resolves and
  /// fuses the chain into a single composite permutation (attributed to
  /// the `program_compile` phase and cached under the program's
  /// order-sensitive fingerprint, so repeats skip both resolution and
  /// composition; the composite *plan* is additionally content-addressed
  /// by PlanCache, which single-flights concurrent first builds). A
  /// composite that folds to P(i) = i (e.g. P then INVERSE P) is
  /// answered with one memcpy — no plan, no kernels — and counted in
  /// `programs_identity`; any other rides the ladder like a plain
  /// request and is counted in `programs_fused`.
  ///
  /// All validation failures (unknown opcode, unregistered fingerprint,
  /// stage-size mismatch, generator preconditions) surface as typed
  /// kInvalidArgument *before* any composition runs — a hostile program
  /// can never reach an HMM_CHECK abort.
  template <class T>
  StatusOr<std::future<Status>> submit_program(const Program& program,
                                               const PlanResolver& resolver,
                                               std::span<const T> a, std::span<T> b,
                                               RequestOptions opts = {}) {
    Status refused = refuse_early<T>(a.size(), a, b, opts);
    if (!refused.is_ok()) return refused;
    const std::uint64_t chain_depth = program.ops.size();
    auto phases = std::make_shared<PhaseBreakdown>();

    util::Stopwatch compile_clock;
    StatusOr<std::shared_ptr<const perm::Permutation>> compiled =
        compile_program(program, a.size(), resolver);
    phases->add(Phase::kProgramCompile, static_cast<std::uint64_t>(compile_clock.nanos()));
    if (!compiled.ok()) {
      metrics_.record_phases(*phases);
      return compiled.status();
    }
    const std::shared_ptr<const perm::Permutation> composite = std::move(compiled).value();

    if (composite->is_identity()) {
      std::memcpy(b.data(), a.data(), a.size() * sizeof(T));
      metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kIdentity);
      metrics_.record_phases(*phases);
      std::promise<Status> done;
      done.set_value(Status::ok());
      return done.get_future();
    }

    StatusOr<Resolved<T>> resolved = resolve<T>(*composite, opts, *phases);
    StatusOr<std::future<Status>> submitted =
        hand_off<T>(std::move(resolved), a, b, opts, std::move(phases));
    if (submitted.ok()) {
      metrics_.record_program(chain_depth, ServiceMetrics::ProgramPath::kFused);
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
  /// A permuter the ladder resolved, and whether it came from the
  /// conventional fallback.
  template <class T>
  struct Resolved {
    std::shared_ptr<const core::OfflinePermuter<T>> permuter;
    bool degraded = false;
  };

  static bool deadline_expired(std::chrono::steady_clock::time_point deadline) noexcept {
    return deadline != Executor::kNoDeadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// The refusals both entry points make before any plan work: empty
  /// input, arrays that do not match the request's `n` elements, in-place
  /// requests, and requests already cancelled or past their deadline.
  template <class T>
  Status refuse_early(std::uint64_t n, std::span<const T> a, std::span<T> b,
                      const RequestOptions& opts) {
    if (n == 0) return Status(StatusCode::kInvalidArgument, "empty request");
    if (a.size() != n || b.size() != n) {
      return Status(StatusCode::kInvalidArgument, "array sizes do not match the request");
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
    return Status::ok();
  }

  /// The ladder: the deadline skip, then the cache (with retries), then
  /// the conventional fallback for transient failures. Plan lookup and
  /// build time land in `phases`.
  template <class T>
  StatusOr<Resolved<T>> resolve(const perm::Permutation& p, const RequestOptions& opts,
                                PhaseBreakdown& phases) {
    // Under deadline pressure an offline build would likely eat the
    // whole budget: go straight to the conventional tier.
    if (!should_skip_build_for_deadline<T>(p, opts)) {
      StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> acquired =
          acquire_with_retry<T>(p, opts, &phases);
      if (acquired.ok()) return Resolved<T>{std::move(acquired).value(), false};
      if (!is_transient(acquired.status().code())) return acquired.status();
    }
    // The fallback's (cheap) construction is still plan-build time: the
    // degraded tier trades the offline phase for extra memory rounds,
    // and the breakdown should show that trade.
    util::Stopwatch build_clock;
    StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> fallback =
        build_conventional<T>(p);
    phases.add(Phase::kPlanBuild, static_cast<std::uint64_t>(build_clock.nanos()));
    if (!fallback.ok()) return fallback.status();
    return Resolved<T>{std::move(fallback).value(), true};
  }

  /// Hand a resolved permuter to the executor, which from then on owns
  /// flushing `phases`; a request the ladder refused flushes what it
  /// accumulated here. A degraded execution counts only once accepted.
  template <class T>
  StatusOr<std::future<Status>> hand_off(StatusOr<Resolved<T>> resolved, std::span<const T> a,
                                         std::span<T> b, const RequestOptions& opts,
                                         std::shared_ptr<PhaseBreakdown> phases) {
    if (!resolved.ok()) {
      metrics_.record_phases(*phases);
      return resolved.status();
    }
    Executor::SubmitOptions submit_opts;
    submit_opts.deadline = opts.deadline;
    submit_opts.cancel = opts.cancel;
    submit_opts.trace_id = opts.trace_id;
    submit_opts.phases = std::move(phases);
    const bool degraded = resolved.value().degraded;
    StatusOr<std::future<Status>> submitted = executor_.try_submit<T>(
        std::move(resolved).value().permuter, a, b, std::move(submit_opts));
    if (submitted.ok() && degraded) metrics_.record_degraded();
    return submitted;
  }

  /// Deadline-pressure heuristic: with an uncached plan and a deadline
  /// tighter than the worst build observed so far, skip the offline
  /// phase entirely. Conservative on a cold service (no builds observed
  /// -> no estimate -> try the build).
  template <class T>
  bool should_skip_build_for_deadline(const perm::Permutation& p, const RequestOptions& opts) {
    if (opts.deadline == Executor::kNoDeadline) return false;
    if (cache_.contains(PlanCache::plan_key<T>(p))) return false;
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
          cache_.try_acquire<T>(p, phases);
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
    return util::jittered_backoff(config_.retry_backoff_base, std::chrono::microseconds::max(),
                                  attempt + 1, kRetryJitterSeed);
  }

  /// The conventional tier: an S-designated permuter, whose offline
  /// phase is one `inverse()` and no plan build, so it cannot hit the
  /// plan-build fault domain. Built outside the cache on purpose —
  /// degraded service must not evict healthy compiled plans.
  template <class T>
  StatusOr<std::shared_ptr<const core::OfflinePermuter<T>>> build_conventional(
      const perm::Permutation& p) {
    try {
      return std::shared_ptr<const core::OfflinePermuter<T>>(
          std::make_shared<const core::OfflinePermuter<T>>(p, model::MachineParams::gtx680(),
                                                           core::Strategy::kSDesignated));
    } catch (const std::bad_alloc&) {
      return Status(StatusCode::kResourceExhausted, "allocation failed building fallback");
    } catch (const std::exception& e) {
      return Status(StatusCode::kUnavailable,
                    std::string("conventional fallback failed: ") + e.what());
    }
  }

  /// Resolve and fuse `program` over n elements into its composite
  /// permutation, through the composite memo (a hit refreshes its LRU
  /// order and skips both resolution and composition).
  StatusOr<std::shared_ptr<const perm::Permutation>> compile_program(
      const Program& program, std::uint64_t n, const PlanResolver& resolver);

  Config config_;
  ServiceMetrics metrics_;
  PlanCache cache_;
  Executor executor_;

  // Composite-permutation memo (see kMaxCachedComposites).
  std::mutex composites_mutex_;
  std::list<std::uint64_t> composites_lru_;
  std::unordered_map<std::uint64_t,
                     std::pair<std::shared_ptr<const perm::Permutation>,
                               std::list<std::uint64_t>::iterator>>
      composites_;
};

}  // namespace hmm::runtime
