#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "util/check.hpp"

namespace hmm::util {

namespace {
/// Set while a thread runs a worker_loop; identifies "my" pool (for
/// on_worker_thread and the NUMA queue a worker's tasks land on).
thread_local const ThreadPool* tls_worker_pool = nullptr;
/// The node the current worker was pinned to (0 when unpinned).
thread_local int tls_worker_node = 0;
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads, bool pin_workers) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  pinned_ = pin_workers && numa::node_count() > 1;
  queues_.resize(pinned_ ? static_cast<std::size_t>(numa::node_count()) : 1);
  workers_.reserve(num_threads);
  worker_nodes_.reserve(num_threads);
  const unsigned nodes = static_cast<unsigned>(numa::node_count());
  for (unsigned i = 0; i < num_threads; ++i) {
    // Contiguous worker blocks per node, proportional to pool size:
    // worker i of n lands on node floor(i * nodes / n). Pinning
    // happens on the worker thread itself, before it takes any task,
    // so every kernel chunk it runs (and every pool page it
    // first-touches) stays on its node.
    const int node = pinned_ ? static_cast<int>((static_cast<std::uint64_t>(i) * nodes) /
                                                num_threads)
                             : 0;
    worker_nodes_.push_back(node);
    workers_.emplace_back([this, node] {
      if (pinned_) numa::pin_current_thread_to_node(node);
      worker_loop(node);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() const noexcept { return tls_worker_pool == this; }

ThreadPool::Task ThreadPool::pop_locked(int preferred) {
  const std::size_t n = queues_.size();
  std::size_t q = static_cast<std::size_t>(preferred) < n
                      ? static_cast<std::size_t>(preferred)
                      : 0;
  // Own node first, then round-robin steal: remote work beats idling.
  for (std::size_t tried = 0; tried < n; ++tried, q = (q + 1) % n) {
    if (!queues_[q].empty()) break;
  }
  Task task = std::move(queues_[q].front());
  queues_[q].pop_front();
  --pending_;
  return task;
}

int ThreadPool::submit_node() const noexcept {
  if (queues_.size() <= 1) return 0;
  // A pinned worker requeues onto its own node (so fanned-out chunks
  // stay local); an external thread lands on whichever node it is
  // currently running on.
  return tls_worker_pool == this ? tls_worker_node : numa::current_node();
}

void ThreadPool::worker_loop(int node) {
  tls_worker_pool = this;
  tls_worker_node = node;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_ && pending_ == 0) return;
      task = pop_locked(node);
    }
    task.fn();
  }
}

void ThreadPool::submit(std::function<void()> fn) { post(std::move(fn), 1); }

namespace {

/// How long a fork-join's caller spins on chunks still running on
/// helpers before it sleeps on the condition variable. The helpers'
/// last chunks end close to the caller's own, so a short spin saves a
/// futex sleep and wake-up on most joins; the bound keeps a caller that
/// waits on a long chunk from burning its core.
constexpr std::chrono::microseconds kJoinSpin{20};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// One fork-join's shared state. The caller and every helper claim
/// chunks from `next`; helper tasks co-own the state because one may
/// start only after the caller has returned (every chunk already
/// claimed), and then it just finds nothing to claim. `body` is
/// dereferenced only for a claimed chunk, and the caller cannot return
/// before every claimed chunk is done, so borrowing it is safe.
struct ForkJoin {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t step = 0;
  std::uint64_t chunks = 0;
  const std::function<void(std::uint64_t, std::uint64_t)>* body = nullptr;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr first_error;  // guarded by mutex

  /// Claim and run chunks until none is left.
  void drain() {
    for (;;) {
      const std::uint64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::uint64_t lo = begin + c * step;
      try {
        (*body)(lo, std::min(end, lo + step));
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        // Lock-then-notify pairs with the caller's predicate recheck
        // under the same mutex: it either observes the count before
        // sleeping or is asleep when this notify fires.
        std::lock_guard lock(mutex);
        cv.notify_all();
      }
    }
  }

  [[nodiscard]] bool finished() const noexcept {
    return done.load(std::memory_order_acquire) == chunks;
  }
};

}  // namespace

void ThreadPool::post(std::function<void()> fn, std::uint64_t copies) {
  if (copies == 0) return;
  {
    std::lock_guard lock(mutex_);
    std::size_t q = static_cast<std::size_t>(submit_node());
    if (q >= queues_.size()) q = 0;
    for (std::uint64_t i = 1; i < copies; ++i) queues_[q].push_back(Task{fn});
    queues_[q].push_back(Task{std::move(fn)});
    pending_ += copies;
  }
  if (copies == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

void ThreadPool::parallel_for_chunks(std::uint64_t begin, std::uint64_t end,
                                     const std::function<void(std::uint64_t, std::uint64_t)>& fn,
                                     unsigned chunks_per_thread) {
  if (begin >= end) return;
  const std::uint64_t total = end - begin;
  const std::uint64_t max_chunks =
      static_cast<std::uint64_t>(size()) * std::max(1u, chunks_per_thread);
  const std::uint64_t chunks = std::min<std::uint64_t>(total, std::max<std::uint64_t>(1, max_chunks));

  if (chunks == 1 || size() <= 1) {
    fn(begin, end);  // exceptions propagate directly
    return;
  }

  auto job = std::make_shared<ForkJoin>();
  job->begin = begin;
  job->end = end;
  job->step = (total + chunks - 1) / chunks;
  job->chunks = (total + job->step - 1) / job->step;  // non-empty chunks
  job->body = &fn;

  // The caller runs chunks too, so it never waits on a queued task: a
  // nested call from a worker needs nothing from the queue, and it
  // cannot pick up an unrelated task while its own loop is pending.
  // With the caller, size() - 1 helpers make one thread per worker: a
  // nested caller's idle peers, or, for an outside caller, as many
  // threads as the pool has, so a pool sized to the cores is not
  // oversubscribed (a helper more measured 2-3 µs dearer per empty
  // fork-join and no faster on the sweeps).
  post([job] { job->drain(); }, std::min<std::uint64_t>(size() - 1, job->chunks - 1));
  job->drain();

  if (!job->finished()) {
    const auto spin_until = std::chrono::steady_clock::now() + kJoinSpin;
    while (!job->finished() && std::chrono::steady_clock::now() < spin_until) cpu_relax();
  }
  if (!job->finished()) {
    std::unique_lock lock(job->mutex);
    job->cv.wait(lock, [&] { return job->finished(); });
  }

  // The acq_rel increments order every first_error store before the
  // acquire load that observed the last one, so this read needs no lock.
  if (job->first_error) std::rethrow_exception(job->first_error);
}

void ThreadPool::parallel_for(std::uint64_t begin, std::uint64_t end,
                              const std::function<void(std::uint64_t)>& fn,
                              unsigned chunks_per_thread) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) fn(i);
      },
      chunks_per_thread);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace hmm::util
