#pragma once
/// \file thread_pool.hpp
/// \brief Small fixed-size thread pool with a blocking parallel_for and
///        a futures-based task submission API.
///
/// The CPU backend launches its "CUDA blocks" through this pool. The
/// pool is deliberately simple (single mutex-protected deque): kernel
/// granularity here is whole matrix rows or tile strips, so queue
/// contention is negligible compared to the work item cost.
///
/// Two usage layers share the worker threads:
///  - `parallel_for` / `parallel_for_chunks`: blocking data-parallel
///    loops used by the CPU kernels. Exceptions thrown by the loop body
///    are captured and rethrown on the calling thread (first one wins).
///  - `submit_task`: fire-and-forget task submission returning a
///    `std::future` (exceptions propagate through the future). The
///    runtime executor (src/runtime/executor.hpp) drains its request
///    queue through this API.
///
/// Fork-join is caller-joined: `parallel_for_chunks` posts at most
/// `size() - 1` helper tasks under one lock with one notify, and the
/// caller and the helpers claim chunks from one atomic counter. The caller
/// then waits for chunks still running elsewhere with a short bounded
/// spin before sleeping on a condition variable; idle workers never
/// spin. Because the caller can finish every chunk itself, nested use
/// is safe without help-draining: a worker thread (e.g. a submitted
/// task executing a permutation kernel) that fans out never blocks on
/// queued work, and never runs an unrelated queued task inline while
/// its own loop is pending. A helper that starts after its loop is done
/// finds nothing to claim and returns.
///
/// NUMA placement (multi-node machines only): workers are pinned to
/// nodes in contiguous blocks, and the queue splits per node. A task
/// is enqueued under the submitting thread's node — so the chunks a
/// pinned worker fans out land back on its own node's queue — and
/// workers pop their node's queue first, stealing from other nodes
/// only when theirs is empty. Locality is a preference, not a fence:
/// a saturated node's overflow is stolen by remote workers rather
/// than left idle. Single-node machines collapse to one queue and the
/// exact pre-NUMA behavior.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/numa.hpp"

namespace hmm::util {

class ThreadPool {
 public:
  /// \param num_threads 0 means hardware_concurrency (min 1).
  /// \param pin_workers split the workers into contiguous per-node
  ///   groups and pin each group to its node's CPU set, so a request
  ///   whose scratch lives on one node is executed by threads that
  ///   stay there (first-touch then binds fresh pool pages locally).
  ///   Defaults on only when placement matters (`numa::aware()`:
  ///   multiple nodes and HMM_NUMA != 0); single-node machines keep
  ///   today's unpinned behavior.
  explicit ThreadPool(unsigned num_threads = 0, bool pin_workers = numa::aware());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// True when workers were pinned per NUMA node at construction.
  [[nodiscard]] bool workers_pinned() const noexcept { return pinned_; }

  /// Node worker `i` was pinned to (0 when unpinned or out of range).
  [[nodiscard]] int worker_node(unsigned i) const noexcept {
    return i < worker_nodes_.size() ? worker_nodes_[i] : 0;
  }

  /// Run fn(i) for i in [begin, end), split into ~`chunks_per_thread`
  /// contiguous chunks per worker; blocks until every index is done.
  /// The calling thread runs chunks alongside the workers. With a
  /// single worker (or a tiny range) this degrades to a serial loop on
  /// the calling thread — no task overhead. If any invocation of `fn`
  /// throws, the first captured exception is rethrown here, once,
  /// after all chunks have finished.
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    const std::function<void(std::uint64_t)>& fn,
                    unsigned chunks_per_thread = 4);

  /// Run fn(chunk_begin, chunk_end) over a blocked partition of the range.
  /// Same exception semantics as `parallel_for`.
  void parallel_for_chunks(std::uint64_t begin, std::uint64_t end,
                           const std::function<void(std::uint64_t, std::uint64_t)>& fn,
                           unsigned chunks_per_thread = 4);

  /// Enqueue a callable and return a future for its result. Exceptions
  /// thrown by the callable are delivered through the future. The task
  /// may itself call `parallel_for` on this pool (see header comment).
  template <class F>
  auto submit_task(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

  /// True iff the calling thread is a worker of *this* pool.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Global pool shared by the CPU backend (constructed on first use).
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop(int node);
  void submit(std::function<void()> fn);

  /// Enqueue `copies` copies of `fn` under one lock, then wake workers
  /// with one notify.
  void post(std::function<void()> fn, std::uint64_t copies);

  /// Pop from `preferred`'s queue, stealing from the others when it is
  /// empty. Pre: mutex_ held and pending_ > 0.
  Task pop_locked(int preferred);

  /// Node hint for a task submitted by the calling thread.
  [[nodiscard]] int submit_node() const noexcept;

  std::vector<std::thread> workers_;
  std::vector<int> worker_nodes_;  ///< node per worker (set iff pinned_)
  bool pinned_ = false;
  /// One task queue per node (a single queue when unpinned).
  std::vector<std::deque<Task>> queues_;
  std::size_t pending_ = 0;  ///< total queued tasks, guarded by mutex_
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace hmm::util
