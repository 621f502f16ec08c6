#pragma once
/// \file executor.hpp
/// \brief Batched async executor: a futures-based request front-end
///        over `util::ThreadPool`, with admission control, per-request
///        deadlines, cooperative cancellation, pooled scratch, and
///        optional same-plan request batching.
///
/// `try_submit(permuter, a, b, opts)` is the one request entry point:
/// it enqueues b[P(i)] = a[i] and never throws request-level failures,
/// reporting them as a typed `Status` instead — synchronously when the
/// request is refused (admission bound hit, deadline already expired,
/// cancelled before enqueue) and through the returned
/// `std::future<Status>` after that.
///
/// Request lifecycle controls:
///  - **Admission**: `Config::max_in_flight` bounds the number of
///    admitted-but-unfinished requests. At the bound, `try_submit`
///    either rejects with `kResourceExhausted` (Admission::kReject) or
///    blocks the submitter until a slot frees or the request deadline
///    passes (Admission::kBlock).
///  - **Deadlines**: checked before admission, at dequeue (a request
///    that waited out its deadline in the queue resolves
///    `kDeadlineExceeded` without executing), and between the kernel
///    phases of the permuter via its phase gate.
///  - **Cancellation**: a `CancelToken` is polled at the same three
///    stages; a cancelled request resolves `kCancelled`.
///
/// **Scratch is pooled.** Every scheduled request needs an n-element
/// scratch buffer; instead of a per-request heap allocation the
/// executor draws it from a `util::BufferPool` (Config::pool, default
/// the process-wide pool) — at steady state the request path performs
/// zero heap allocations for scratch. Pool-cap exhaustion resolves
/// `kResourceExhausted`, and the `pool.exhausted` fault site injects
/// exactly that pressure for chaos runs.
///
/// **Same-plan batching** (Config::batch, off by default). Requests
/// that share a compiled scheduled plan are gathered — up to
/// `max_batch` of them, for at most `max_delay` — and executed as one
/// multi-lane `core::scheduled_cpu` call: three thread-pool
/// fork/joins per *batch* instead of per request, the serving-side
/// image of the paper's batching lemma (many permutations along the
/// same plan amortize to optimal cost). Batching is invisible to
/// callers: each request keeps its own future, deadline, cancel token,
/// and phase breakdown, and a request gated off mid-batch (deadline or
/// cancel) leaves the rest of its batch unaffected. Requests are
/// admitted *before* gathering, so the in-flight bound keeps its
/// meaning; a full group flushes immediately, a partial one when its
/// gather window expires (a dedicated flusher thread owns the timer).
/// Conventional-strategy requests bypass gathering entirely.
///
/// Requests drain onto the shared thread pool via
/// `ThreadPool::submit_task`; each request then fans its kernels out
/// on the same pool (a fork-join's caller can run every chunk itself,
/// so this nesting cannot deadlock — see thread_pool.hpp).
///
/// Concurrency model: one compiled plan may serve many in-flight
/// requests at once — the executor acquires per-request scratch and
/// uses the permuter's const execute path, which touches no shared
/// mutable state. The caller keeps ownership of `a` and `b` and must
/// keep them alive and un-mutated until the future is ready; a request
/// stopped by deadline/cancellation between kernel phases leaves `b`
/// partially written (treat it as garbage).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/permuter.hpp"
#include "core/scheduled.hpp"
#include "runtime/cancel.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::runtime {

class Executor {
 public:
  /// What to do with a try_submit that finds `max_in_flight` requests
  /// already admitted.
  enum class Admission {
    kBlock,   ///< wait for a slot (bounded by the request deadline)
    kReject,  ///< fail fast with kResourceExhausted
  };

  /// Same-plan gathering bounds. Off by default: batching trades a
  /// bounded gather delay for amortized fork/join cost. Only scheduled
  /// permuters gather, and the service compiles kAuto's pick (never
  /// scheduled), so a served request does not.
  struct BatchOptions {
    /// Coalesce up to this many same-plan requests per kernel sweep.
    /// <= 1 disables batching entirely (no flusher thread).
    std::uint64_t max_batch = 1;
    /// Longest a gathered request waits for companions before its
    /// (partial) batch executes anyway.
    std::chrono::microseconds max_delay{200};
    /// Cache-residency budget for one fused sweep: input + output +
    /// scratch across every lane. Lane counts are capped so the batch
    /// fits (an unbatched request chains its three sweeps through a
    /// cache-resident buffer trio; a batch that overflows the cache
    /// loses that reuse and runs *slower* than sequential requests —
    /// measured crossover is ~256 KiB/lane on a 1.5 MiB budget). When
    /// the budget admits fewer than `kMinFusedLanes` lanes, the request
    /// skips gathering entirely.
    std::uint64_t cache_budget_bytes = 1536 << 10;
    /// Below this many lanes a batch amortizes too little table
    /// decoding and fork-join to pay for its gather delay; don't gather.
    static constexpr std::uint64_t kMinFusedLanes = 4;

    [[nodiscard]] bool enabled() const noexcept { return max_batch > 1; }

    /// Largest worthwhile batch for requests of `lane_bytes` (input +
    /// output + scratch for one lane); < kMinFusedLanes means "do not
    /// batch this size at all".
    [[nodiscard]] std::uint64_t lanes_for(std::uint64_t lane_bytes) const noexcept {
      if (lane_bytes == 0) return max_batch;
      return std::min<std::uint64_t>(max_batch, cache_budget_bytes / lane_bytes);
    }
  };

  struct Config {
    std::uint64_t max_in_flight = 0;  ///< 0 = unbounded
    Admission admission = Admission::kBlock;
    /// Requests whose attributed phase time reaches this threshold get
    /// a rate-limited stderr line with their full phase breakdown.
    /// 0 = slow-request log disabled.
    std::chrono::milliseconds slow_log_threshold{0};
    /// Same-plan request batching (see BatchOptions).
    BatchOptions batch;
    /// Scratch buffer pool; nullptr = `util::BufferPool::global()`.
    util::BufferPool* pool = nullptr;
  };

  /// "No deadline": requests never expire.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  struct SubmitOptions {
    std::chrono::steady_clock::time_point deadline = kNoDeadline;
    CancelToken cancel;
    /// Caller-chosen correlation id, echoed in the slow-request log.
    /// The net server passes the HMMP request_id through here.
    std::uint64_t trace_id = 0;
    /// Per-request phase accumulator. Callers that already attributed
    /// time (plan lookup/build in the service) hand their breakdown in;
    /// `try_submit` creates one otherwise. Once passed to `try_submit`
    /// the executor owns flushing it into the metrics — the caller must
    /// not record it again.
    std::shared_ptr<PhaseBreakdown> phases;
  };

  explicit Executor(util::ThreadPool& pool, ServiceMetrics* metrics = nullptr)
      : Executor(pool, metrics, Config{}) {}
  Executor(util::ThreadPool& pool, ServiceMetrics* metrics, Config config);

  /// Destruction flushes any gathering batches, joins the flusher, then
  /// waits for every in-flight request (their tasks hold spans owned by
  /// callers; letting them outlive the executor is fine, but draining
  /// makes teardown ordering obvious). If draining stalls past a
  /// threshold, a rate-limited warning names the number of requests
  /// still in flight — a stalled worker is otherwise invisible at
  /// teardown.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueue b[P(i)] = a[i] under the compiled permuter `h`, with
  /// admission control, deadline and cancellation; all failures as
  /// typed Status. A synchronous error means the
  /// request was refused before enqueue and will never execute; an OK
  /// result carries the future that resolves with the request outcome.
  template <class T>
  StatusOr<std::future<Status>> try_submit(std::shared_ptr<const core::OfflinePermuter<T>> h,
                                           std::span<const T> a, std::span<T> b,
                                           SubmitOptions opts = {}) {
    if (h == nullptr) return Status(StatusCode::kInvalidArgument, "null permuter handle");
    if (a.size() != h->size() || b.size() != h->size()) {
      return Status(StatusCode::kInvalidArgument, "span sizes do not match the permuter");
    }
    if (!opts.phases) opts.phases = std::make_shared<PhaseBreakdown>();
    if (opts.cancel.cancelled()) {
      if (metrics_) metrics_->record_cancelled();
      finalize_request(opts);
      return Status(StatusCode::kCancelled, "cancelled before admission");
    }
    if (expired(opts.deadline)) {
      if (metrics_) metrics_->record_deadline_exceeded();
      finalize_request(opts);
      return Status(StatusCode::kDeadlineExceeded, "deadline expired before admission");
    }

    // The admission span is recorded unconditionally (an uncontended
    // admit is a near-zero sample): "waited 0 ns" is signal, while a
    // missing admission_wait series would read as an unwired timer.
    util::Stopwatch admit_clock;
    std::uint64_t depth = 0;
    Status admitted = admit(opts.deadline, depth);
    opts.phases->add(Phase::kAdmissionWait, static_cast<std::uint64_t>(admit_clock.nanos()));
    if (!admitted.is_ok()) {
      finalize_request(opts);
      return admitted;
    }

    // Batched path: only scheduled-strategy requests coalesce (the
    // conventional kernels are one launch already, there is nothing to
    // amortize), and only when the cache budget admits a worthwhile
    // lane count (see BatchOptions::cache_budget_bytes). The group key
    // is the permuter object itself — the plan cache dedups compiled
    // plans, so one hot plan is one address.
    if (config_.batch.enabled() && h->strategy() == core::Strategy::kScheduled &&
        h->plan() != nullptr) {
      const std::uint64_t lane_bytes = 3 * a.size() * sizeof(T);  // a + b + scratch
      const std::uint64_t lanes = config_.batch.lanes_for(lane_bytes);
      if (lanes >= BatchOptions::kMinFusedLanes) {
        return enqueue_batched<T>(std::move(h), a, b, std::move(opts), depth, lanes);
      }
    }

    std::future<Status> fut;
    const auto enqueued_at = std::chrono::steady_clock::now();
    try {
      fut = pool_.submit_task([this, h = std::move(h), a, b, opts, enqueued_at]() -> Status {
        return run_request<T>(*h, a, b, opts, enqueued_at);
      });
    } catch (...) {
      finish_one();
      throw;  // enqueue alloc failure: a process-level problem, not a request outcome
    }
    if (metrics_) metrics_->record_submit(depth);
    return fut;
  }

  /// Requests admitted but not yet finished.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The scratch pool in use (Config::pool or the global pool).
  [[nodiscard]] util::BufferPool& buffer_pool() noexcept { return *buffer_pool_; }

  /// Block until every submitted request has finished. Callers that
  /// keep futures can equivalently wait on those; this is the bulk
  /// barrier for fire-and-forget batches.
  void wait_idle();

  /// `wait_idle` with a timeout: returns true once idle, false if the
  /// timeout elapsed with requests still in flight. Lets teardown and
  /// tests detect stalled workers instead of blocking forever.
  [[nodiscard]] bool wait_idle_for(std::chrono::nanoseconds timeout);

 private:
  /// RAII completion marker so the in-flight count stays correct on
  /// every exit path of a request task. The decrement happens under
  /// idle_mutex_ so a wait_idle() caller (e.g. the destructor) can
  /// never observe zero and tear down while this thread is still about
  /// to touch the condition variable.
  struct Completion {
    explicit Completion(Executor& e) : exec(e) {}
    ~Completion() { exec.finish_one(); }
    Executor& exec;
  };

  // --- Same-plan batching ------------------------------------------

  /// One gathered request: everything run_batch needs to execute and
  /// resolve it. Each item holds an admission slot from enqueue until
  /// its resolution calls finish_one().
  template <class T>
  struct BatchItem {
    std::span<const T> a;
    std::span<T> b;
    SubmitOptions opts;
    std::chrono::steady_clock::time_point enqueued_at;
    std::promise<Status> promise;
  };

  /// Type-erased gathering group so the flusher thread and map can
  /// hold batches of any element type.
  struct BatchGroupBase {
    virtual ~BatchGroupBase() = default;
    virtual void run(Executor& ex) = 0;
    /// Resolve every item with `st` without executing (dispatch
    /// failure during teardown or enqueue).
    virtual void refuse_all(Executor& ex, const Status& st) noexcept = 0;
    std::chrono::steady_clock::time_point flush_at;
    /// Flush-at-full threshold for this group (max_batch, possibly
    /// tightened by the cache budget for this plan's request size).
    std::uint64_t full_count = 0;
  };

  template <class T>
  struct BatchGroup final : BatchGroupBase {
    std::shared_ptr<const core::OfflinePermuter<T>> permuter;
    std::vector<BatchItem<T>> items;
    void run(Executor& ex) override { ex.run_batch<T>(*this); }
    void refuse_all(Executor& ex, const Status& st) noexcept override {
      for (BatchItem<T>& item : items) {
        if (ex.metrics_) ex.metrics_->record_execute(0, false);
        ex.resolve_item<T>(item, st);
      }
    }
  };

  static bool expired(std::chrono::steady_clock::time_point deadline) noexcept {
    return deadline != kNoDeadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// Gather an admitted request into its plan's group; flush the group
  /// when it reaches max_batch (the flusher thread owns the max_delay
  /// timer for partial groups). The item keeps its admission slot.
  template <class T>
  StatusOr<std::future<Status>> enqueue_batched(
      std::shared_ptr<const core::OfflinePermuter<T>> h, std::span<const T> a, std::span<T> b,
      SubmitOptions opts, std::uint64_t depth, std::uint64_t full_count) {
    const auto enqueued_at = std::chrono::steady_clock::now();
    std::promise<Status> promise;
    std::future<Status> fut = promise.get_future();
    const void* key = h.get();
    std::shared_ptr<BatchGroupBase> full;
    {
      std::lock_guard lock(batch_mutex_);
      std::shared_ptr<BatchGroupBase>& slot = gathering_[key];
      if (!slot) {
        auto group = std::make_shared<BatchGroup<T>>();
        group->permuter = h;
        group->flush_at = enqueued_at + config_.batch.max_delay;
        group->full_count = full_count;
        slot = std::move(group);
        // A fresh group may move the earliest flush deadline forward.
        batch_cv_.notify_all();
      }
      // The group under this key holds a shared_ptr to the permuter at
      // address `key`, so the address cannot be recycled for a
      // different (differently-typed) permuter while the group lives —
      // the static downcast is sound.
      auto* group = static_cast<BatchGroup<T>*>(slot.get());
      group->items.push_back(
          BatchItem<T>{a, b, std::move(opts), enqueued_at, std::move(promise)});
      if (group->items.size() >= group->full_count) {
        full = std::move(slot);
        gathering_.erase(key);
      }
    }
    if (full) dispatch_group(std::move(full));
    if (metrics_) metrics_->record_submit(depth);
    return fut;
  }

  /// Resolve one gathered item: flush its phases, fulfil its promise,
  /// release its admission slot. Exactly once per item.
  template <class T>
  void resolve_item(BatchItem<T>& item, const Status& st) noexcept {
    finalize_request(item.opts);
    try {
      item.promise.set_value(st);
    } catch (...) {
      // set_value only throws on a broken/satisfied promise; neither
      // can happen here, but a batch must never die on one item.
    }
    finish_one();
  }

  /// Execute one gathered batch on a pool worker: per-item dequeue
  /// checks, pooled scratch, one multi-lane three-sweep execution,
  /// per-item resolution. Mirrors run_request_body's semantics per item.
  template <class T>
  void run_batch(BatchGroup<T>& group) {
    const core::OfflinePermuter<T>& h = *group.permuter;
    const auto now = std::chrono::steady_clock::now();
    util::Stopwatch clock;

    // Dequeue-time checks, then scratch acquisition, per item. Items
    // that fail here resolve immediately; survivors become lanes.
    std::vector<core::Lane<T>> lanes;
    std::vector<std::size_t> lane_items;
    std::vector<util::PooledBuffer> scratches;
    lanes.reserve(group.items.size());
    lane_items.reserve(group.items.size());
    scratches.reserve(group.items.size());
    const std::uint64_t scratch_elems = h.scratch_elements();
    for (std::size_t i = 0; i < group.items.size(); ++i) {
      BatchItem<T>& item = group.items[i];
      if (item.opts.phases) {
        const auto waited = now - item.enqueued_at;
        item.opts.phases->add(
            Phase::kQueueWait,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count()));
      }
      if (item.opts.cancel.cancelled()) {
        if (metrics_) metrics_->record_cancelled();
        resolve_item<T>(item, Status(StatusCode::kCancelled, "cancelled while queued"));
        continue;
      }
      if (expired(item.opts.deadline)) {
        if (metrics_) metrics_->record_deadline_exceeded();
        resolve_item<T>(item,
                        Status(StatusCode::kDeadlineExceeded, "queued past the request deadline"));
        continue;
      }
      try {
        FaultInjector::instance().maybe_stall(fault_sites::kExecutorStall);
        FaultInjector::instance().maybe_throw(fault_sites::kExecutorAlloc,
                                              StatusCode::kResourceExhausted,
                                              "scratch allocation failure");
        FaultInjector::instance().maybe_throw(fault_sites::kPoolExhausted,
                                              StatusCode::kResourceExhausted,
                                              "buffer pool exhausted");
        // Node-local scratch: see the placement note in
        // run_request_body — every lane's scratch comes off the
        // batch-running worker's node, so the whole fused batch stays
        // on one socket.
        util::PooledBuffer scratch = buffer_pool_->try_acquire(scratch_elems * sizeof(T));
        if (!scratch.valid()) {
          if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
          resolve_item<T>(item,
                          Status(StatusCode::kResourceExhausted, "buffer pool cap exceeded"));
          continue;
        }
        lanes.push_back(
            core::Lane<T>{item.a, item.b, scratch.template as_span<T>(scratch_elems)});
        lane_items.push_back(i);
        scratches.push_back(std::move(scratch));
      } catch (const FaultInjectedError& e) {
        if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
        resolve_item<T>(item, Status(e.code, e.what()));
      } catch (const std::bad_alloc&) {
        if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
        resolve_item<T>(item,
                        Status(StatusCode::kResourceExhausted, "allocation failed during execute"));
      } catch (const std::exception& e) {
        if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
        resolve_item<T>(item, Status(StatusCode::kUnavailable, e.what()));
      }
    }
    if (lanes.empty()) return;

    // One fused execution. The observer fans each sweep's span into
    // every lane still active during that sweep (a lane gated off at
    // the boundary after sweep k was still active *during* k, and its
    // `active` flag is cleared only after the observation).
    const core::KernelObserver observer = [&lanes, &group, &lane_items](unsigned kernel,
                                                                        std::uint64_t ns) {
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        if (!lanes[l].active) continue;
        PhaseBreakdown* phases = group.items[lane_items[l]].opts.phases.get();
        if (phases) phases->add(phase_for_kernel(kernel), ns);
      }
    };

    const core::LaneGate gate = [&group, &lane_items](std::size_t l) {
      const SubmitOptions& opts = group.items[lane_items[l]].opts;
      return !opts.cancel.cancelled() && !expired(opts.deadline);
    };

    Status sweep_error = Status::ok();
    try {
      (void)core::scheduled_cpu<T>(pool_, *h.plan(), std::span<core::Lane<T>>(lanes), gate,
                                   observer);
    } catch (const std::bad_alloc&) {
      sweep_error = Status(StatusCode::kResourceExhausted, "allocation failed during execute");
    } catch (const std::exception& e) {
      sweep_error = Status(StatusCode::kUnavailable, e.what());
    }

    const auto batch_ns = static_cast<std::uint64_t>(clock.nanos());
    if (metrics_) metrics_->record_batch(lanes.size());

    // Release every lane's scratch BEFORE resolving any promise: the
    // instant the last item resolves, wait_idle() (and the destructor,
    // and process exit behind it) may proceed, so nothing on this
    // thread may touch the pool after that point. The released blocks
    // are already hits for the next batch's acquires.
    for (auto& lane : lanes) lane.scratch = {};
    scratches.clear();

    for (std::size_t l = 0; l < lanes.size(); ++l) {
      BatchItem<T>& item = group.items[lane_items[l]];
      if (!sweep_error.is_ok()) {
        if (metrics_) metrics_->record_execute(batch_ns, false);
        resolve_item<T>(item, sweep_error);
      } else if (lanes[l].active) {
        if (metrics_) metrics_->record_execute(batch_ns, true);
        resolve_item<T>(item, Status::ok());
      } else {
        // Gated off between kernels: same taxonomy as the single path.
        if (metrics_) metrics_->record_execute(batch_ns, false);
        if (item.opts.cancel.cancelled()) {
          if (metrics_) metrics_->record_cancelled();
          resolve_item<T>(item, Status(StatusCode::kCancelled, "cancelled between kernel phases"));
        } else {
          if (metrics_) metrics_->record_deadline_exceeded();
          resolve_item<T>(item, Status(StatusCode::kDeadlineExceeded,
                                       "deadline exceeded between kernel phases"));
        }
      }
    }
  }

  /// Hand a complete group to the pool. Failure to enqueue refuses
  /// every item (typed, never thrown).
  void dispatch_group(std::shared_ptr<BatchGroupBase> group);

  /// The flusher thread body: sleeps until the earliest gather window
  /// expires, flushes due groups; on stop, flushes everything left.
  void flusher_loop();

  /// Signal and join the flusher (idempotent).
  void stop_flusher();

  /// The request task body: dequeue-time checks, then the gated
  /// execute. Runs on a pool worker; every outcome is a Status. Every
  /// exit path flushes the request's phase breakdown into the metrics
  /// (and the slow-request log) exactly once.
  template <class T>
  Status run_request(const core::OfflinePermuter<T>& h, std::span<const T> a, std::span<T> b,
                     const SubmitOptions& opts,
                     std::chrono::steady_clock::time_point enqueued_at) {
    Completion done(*this);
    PhaseBreakdown* phases = opts.phases.get();
    if (phases) {
      const auto waited = std::chrono::steady_clock::now() - enqueued_at;
      phases->add(Phase::kQueueWait,
                  static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count()));
    }
    const Status st = run_request_body(h, a, b, opts, phases);
    finalize_request(opts);
    return st;
  }

  template <class T>
  Status run_request_body(const core::OfflinePermuter<T>& h, std::span<const T> a,
                          std::span<T> b, const SubmitOptions& opts, PhaseBreakdown* phases) {
    if (opts.cancel.cancelled()) {
      if (metrics_) metrics_->record_cancelled();
      return Status(StatusCode::kCancelled, "cancelled while queued");
    }
    if (expired(opts.deadline)) {
      if (metrics_) metrics_->record_deadline_exceeded();
      return Status(StatusCode::kDeadlineExceeded, "queued past the request deadline");
    }
    core::KernelObserver observer;
    if (phases) {
      observer = [phases](unsigned kernel, std::uint64_t ns) {
        phases->add(phase_for_kernel(kernel), ns);
      };
    }
    util::Stopwatch clock;
    try {
      FaultInjector::instance().maybe_stall(fault_sites::kExecutorStall);
      FaultInjector::instance().maybe_throw(fault_sites::kExecutorAlloc,
                                            StatusCode::kResourceExhausted,
                                            "scratch allocation failure");
      FaultInjector::instance().maybe_throw(fault_sites::kPoolExhausted,
                                            StatusCode::kResourceExhausted,
                                            "buffer pool exhausted");
      const std::uint64_t scratch_elems = h.scratch_elements();
      // NUMA placement: this body runs on a pool worker that (on
      // multi-node machines) is pinned to one node, and try_acquire
      // resolves to that node's free list — so the request's scratch,
      // the kernel chunks the permute fans out (the pool's per-node
      // queues prefer the submitting worker's node), and the pages
      // first-touch-bound on a miss all share the worker's socket.
      util::PooledBuffer scratch = buffer_pool_->try_acquire(scratch_elems * sizeof(T));
      if (!scratch.valid()) {
        if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
        return Status(StatusCode::kResourceExhausted, "buffer pool cap exceeded");
      }
      const bool ran_to_completion = h.permute_timed(
          a, b, scratch.template as_span<T>(scratch_elems),
          [&opts] { return !opts.cancel.cancelled() && !expired(opts.deadline); }, observer);
      if (!ran_to_completion) {
        if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
        if (opts.cancel.cancelled()) {
          if (metrics_) metrics_->record_cancelled();
          return Status(StatusCode::kCancelled, "cancelled between kernel phases");
        }
        if (metrics_) metrics_->record_deadline_exceeded();
        return Status(StatusCode::kDeadlineExceeded, "deadline exceeded between kernel phases");
      }
      if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), true);
      return Status::ok();
    } catch (const FaultInjectedError& e) {
      if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
      return Status(e.code, e.what());
    } catch (const std::bad_alloc&) {
      if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
      return Status(StatusCode::kResourceExhausted, "allocation failed during execute");
    } catch (const std::exception& e) {
      if (metrics_) metrics_->record_execute(static_cast<std::uint64_t>(clock.nanos()), false);
      return Status(StatusCode::kUnavailable, e.what());
    }
  }

  /// Flush a request's phase breakdown into the per-phase histograms
  /// and, when armed and over threshold, the rate-limited slow log.
  void finalize_request(const SubmitOptions& opts) noexcept;

  /// Reserve an in-flight slot, honoring the admission policy. On
  /// success `depth_out` holds the in-flight count including this
  /// request (the queue-depth sample for metrics).
  Status admit(std::chrono::steady_clock::time_point deadline, std::uint64_t& depth_out);

  void finish_one() noexcept {
    std::lock_guard lock(idle_mutex_);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    // Wake both idle waiters and blocked admitters; admission waits on
    // the same condition variable.
    idle_cv_.notify_all();
  }

  [[nodiscard]] bool has_slot_locked() const noexcept {
    return config_.max_in_flight == 0 ||
           in_flight_.load(std::memory_order_acquire) < config_.max_in_flight;
  }

  util::ThreadPool& pool_;
  ServiceMetrics* metrics_;
  Config config_;
  util::BufferPool* buffer_pool_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

  // Batching state (untouched when Config::batch is disabled).
  std::mutex batch_mutex_;
  std::condition_variable batch_cv_;
  std::unordered_map<const void*, std::shared_ptr<BatchGroupBase>> gathering_;
  bool flusher_stop_ = false;  ///< guarded by batch_mutex_
  std::thread flusher_;
};

}  // namespace hmm::runtime
