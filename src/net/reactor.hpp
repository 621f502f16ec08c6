#pragma once
/// \file reactor.hpp
/// \brief `net::Reactor` — the one network core under both HMMP
///        front-ends, `net::Server` and `net::Router`: an epoll reactor
///        over nonblocking sockets plus a bounded handler pool.
///
/// Threads (DESIGN.md §3.3), all started by start() and joined by stop():
///  - one accept thread: admits connections under `max_connections` and
///    hands each to an io thread. It never writes: an over-cap
///    connection's RETRY_LATER is flushed by its io thread.
///  - `io_threads` io threads: each an epoll loop over the connections
///    it owns, with an eventfd doorbell for its mailbox (new
///    connections, finished replies, response watches). Frames are
///    assembled resumably into pooled storage and flushed
///    scatter-gather, so an idle connection costs a map entry.
///  - `handler_threads` handler threads: each decoded request goes to
///    the front-end's handler with a `Reply` it may complete later, from
///    any thread. Kinds the front-end marks inline run on the io thread.
///
/// While a request is in flight its connection's EPOLLIN is paused, so
/// the request's `FrameView` stays valid until its Reply is sent.
/// stop() stops accepting, drains in-flight requests (bounded by
/// kDrainTimeout), then joins the io threads and the handler pool.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "runtime/status.hpp"

namespace hmm::net {

class Reactor {
  struct Conn;
  struct Loop;

 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    std::uint32_t max_payload_bytes = kDefaultMaxPayload;
    /// Connection cap; excess connections get a RETRY_LATER error
    /// frame and a close, never a silent drop.
    std::uint32_t max_connections = 256;
    /// Io threads; connections are assigned round-robin at accept time.
    std::uint32_t io_threads = 2;
    /// Handler threads (0 = auto: max(16, 2 x hardware threads)). This
    /// bounds concurrent handler runs, not connections.
    std::uint32_t handler_threads = 0;
    /// A connection mid-frame (or with an unflushed response) that
    /// makes no progress for this long is closed.
    std::chrono::milliseconds io_timeout{30'000};
    /// A connection that starts no frame for this long is closed
    /// quietly (0 = never): `io_timeout` only covers mid-frame stalls.
    std::chrono::milliseconds idle_timeout{0};
    /// Io-thread tick and accept-poll slice: timeouts, the tick hook
    /// and the stop flag are honored at this granularity.
    std::chrono::milliseconds poll_interval{50};
  };

  /// How long an over-cap RETRY_LATER may spend flushing before the
  /// connection is dropped anyway (the frame is ~64 bytes).
  static constexpr std::chrono::milliseconds kRejectWriteBudget{50};
  /// How long stop() waits for in-flight requests to drain.
  static constexpr std::chrono::milliseconds kDrainTimeout{10'000};

  /// Monotonic counters (relaxed; advisory).
  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0;  ///< over max_connections
    std::uint64_t requests_ok = 0;           ///< success responses actually written
    std::uint64_t requests_error = 0;        ///< ERROR responses actually written
    std::uint64_t protocol_errors = 0;       ///< framing violations received
    std::uint64_t idle_closed = 0;           ///< connections closed by idle_timeout
  };

  /// The answer slot of one request. Move-only; send it once, from any
  /// thread. A Reply dropped unsent answers kUnavailable, so no
  /// connection waits forever on a lost request.
  class Reply {
   public:
    Reply() = default;
    Reply(Reply&&) noexcept = default;
    Reply& operator=(Reply&& other) noexcept;
    Reply(const Reply&) = delete;
    Reply& operator=(const Reply&) = delete;
    ~Reply();

    void send(OutboundFrame frame);
    /// An owned frame, tagged ok or error by its kind.
    void send(Frame frame);

    [[nodiscard]] bool pending() const noexcept { return conn_ != nullptr; }
    [[nodiscard]] std::uint64_t request_id() const noexcept { return request_id_; }

   private:
    friend class Reactor;
    Reply(std::shared_ptr<Loop> loop, std::shared_ptr<Conn> conn, std::uint64_t request_id)
        : loop_(std::move(loop)), conn_(std::move(conn)), request_id_(request_id) {}
    void abandon() noexcept;

    std::shared_ptr<Loop> loop_;
    std::shared_ptr<Conn> conn_;
    std::uint64_t request_id_ = 0;
  };

  struct Handlers {
    /// Runs each decoded request. `request` borrows the connection's
    /// read buffer and stays valid until `reply` is sent. The handler
    /// sends `reply` or moves it away to send later; an exception that
    /// escapes with the reply still here is answered typed.
    std::function<void(const FrameView& request, Reply& reply)> on_request = {};
    /// Kinds that run on the io thread instead of the handler pool.
    /// Such a handler must not block.
    std::function<bool(std::uint16_t kind)> run_inline = {};
    /// Called on the first io thread once per poll_interval.
    std::function<void(std::chrono::steady_clock::time_point now)> on_tick = {};
  };

  /// `name` prefixes the over-cap rejection text ("server", "router").
  Reactor(Config config, std::string name, Handlers handlers);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind + listen + start the io threads, handler pool and accept
  /// thread. Error if already running or the bind fails.
  runtime::Status start();

  /// Stop accepting, drain in-flight requests, join every thread.
  /// Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::size_t io_threads() const noexcept { return loops_.size(); }
  [[nodiscard]] Counters counters() const;

  /// An owned frame as an OutboundFrame, tagged ok or error by its kind.
  [[nodiscard]] static OutboundFrame outbound(Frame frame);

  /// Queue `task` on the handler pool. Dropped once the pool stopped.
  void post(std::function<void()> task);

  /// Hand `stream` — a connection this process opened, its request
  /// already written — to an io thread, which reads the one response
  /// frame and calls `on_response` with it on the io thread, then
  /// closes the stream. A transport or framing failure, a close, or
  /// `deadline` passing answers the failure instead. The view is valid
  /// only during the call, which must not block.
  void await_response(TcpStream stream, std::chrono::steady_clock::time_point deadline,
                      std::function<void(runtime::StatusOr<FrameView>)> on_response);

 private:
  void accept_loop();
  void run_loop(Loop& loop);
  void handler_loop();

  /// Hand `conn` to the next io thread's mailbox.
  void assign(std::shared_ptr<Conn> conn);
  /// Register incoming connections; apply completions (consume the
  /// request, enqueue and flush the response).
  void drain_inbox(Loop& loop);
  /// Read until the socket would block, dispatching at most one frame.
  void pump_reads(Loop& loop, const std::shared_ptr<Conn>& conn);
  void dispatch(Loop& loop, const std::shared_ptr<Conn>& conn);
  void invoke(const FrameView& request, Reply reply);
  void flush_conn(Loop& loop, const std::shared_ptr<Conn>& conn);
  void update_interest(Loop& loop, Conn& conn);
  void close_conn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Timeouts, reject budgets and watch deadlines; the tick hook.
  void tick(Loop& loop, std::chrono::steady_clock::time_point now);

  static void on_frame_complete(void* ctx, const OutboundFrame& frame);

  Config config_;
  std::string name_;
  Handlers handlers_;
  TcpListener listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point drain_deadline_{};  ///< written before stop_
  std::thread accept_thread_;
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::size_t> next_loop_{0};

  std::vector<std::shared_ptr<Loop>> loops_;

  std::vector<std::thread> handler_threads_;
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> work_;
  bool workers_stop_ = true;

  std::atomic<std::uint32_t> active_connections_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
};

}  // namespace hmm::net
