#include "net/reactor.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <new>
#include <unordered_map>
#include <utility>

#include "net/protocol.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

/// Per-connection io-thread state. A Conn is owned by exactly one io
/// thread; handler threads only read the decoded request (stable while
/// EPOLLIN is paused) and never touch the flags.
struct Reactor::Conn {
  enum class Role : std::uint8_t {
    kServed,    ///< an admitted client connection
    kRejected,  ///< over the cap: flush RETRY_LATER within the budget, uncounted
    kOutbound,  ///< a connection this process opened: read one response
  };

  Conn(std::uint64_t conn_id, TcpStream s, Role r, std::uint32_t max_payload)
      : id(conn_id),
        role(r),
        stream(std::move(s)),
        reader(util::BufferPool::global(), max_payload) {}

  const std::uint64_t id;
  const Role role;
  TcpStream stream;
  FrameReader reader;
  FrameWriter writer;
  std::chrono::steady_clock::time_point last_activity;
  /// kRejected: the flush budget; kOutbound: the response deadline.
  std::chrono::steady_clock::time_point deadline;
  /// kOutbound: the response's consumer, until it is answered.
  std::function<void(StatusOr<FrameView>)> on_response;
  std::uint32_t armed = 0;  ///< epoll interest currently registered
  bool in_flight = false;   ///< a decoded request is being executed
  bool closing = false;     ///< flush the writer, then close
  bool closed = false;
};

/// One io thread: an epoll loop plus the mailbox other threads use to
/// hand it work, with an eventfd as the doorbell.
struct Reactor::Loop : std::enable_shared_from_this<Loop> {
  Epoll epoll;
  EventFd wakeup;
  std::thread thread;
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns;

  struct Completion {
    std::shared_ptr<Conn> conn;
    OutboundFrame frame;
  };
  std::mutex inbox_mutex;
  std::vector<std::shared_ptr<Conn>> incoming;
  std::vector<Completion> completions;

  void post(std::shared_ptr<Conn> conn, OutboundFrame frame) {
    {
      std::lock_guard lock(inbox_mutex);
      completions.push_back(Completion{std::move(conn), std::move(frame)});
    }
    wakeup.signal();
  }
};

OutboundFrame Reactor::outbound(Frame frame) {
  // Owned frames are always within bounds (small control payloads).
  return make_outbound_frame(frame.kind, frame.request_id, {}, {}, std::move(frame.payload))
      .value();
}

namespace {

/// A typed answer to no request (request_id 0): it ends the connection
/// and counts as no response.
OutboundFrame pre_frame_error(const Status& why) {
  OutboundFrame frame = Reactor::outbound(make_error_frame(0, why));
  frame.tag = OutboundFrame::kTagNone;
  return frame;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reply
// ---------------------------------------------------------------------------

Reactor::Reply& Reactor::Reply::operator=(Reply&& other) noexcept {
  if (this != &other) {
    abandon();
    loop_ = std::move(other.loop_);
    conn_ = std::move(other.conn_);
    request_id_ = other.request_id_;
  }
  return *this;
}

Reactor::Reply::~Reply() { abandon(); }

void Reactor::Reply::abandon() noexcept {
  if (conn_ == nullptr) return;
  try {
    send(make_error_frame(request_id_, Status(StatusCode::kUnavailable,
                                              "request dropped without an answer")));
  } catch (...) {
    loop_.reset();
    conn_.reset();
  }
}

void Reactor::Reply::send(OutboundFrame frame) {
  if (conn_ == nullptr) return;
  loop_->post(std::move(conn_), std::move(frame));
  loop_.reset();
}

void Reactor::Reply::send(Frame frame) { send(outbound(std::move(frame))); }

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Reactor::Reactor(Config config, std::string name, Handlers handlers)
    : config_(std::move(config)), name_(std::move(name)), handlers_(std::move(handlers)) {}

Reactor::~Reactor() { stop(); }

Status Reactor::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kInvalidArgument, name_ + " already running");
  }
  StatusOr<TcpListener> bound = TcpListener::bind(config_.host, config_.port);
  if (!bound.ok()) return bound.status();
  listener_ = std::move(bound).value();
  port_ = listener_.port();

  const std::uint32_t io_threads = std::max(1u, config_.io_threads);
  loops_.clear();
  loops_.reserve(io_threads);
  for (std::uint32_t i = 0; i < io_threads; ++i) {
    auto loop = std::make_shared<Loop>();
    StatusOr<Epoll> epoll = Epoll::create();
    StatusOr<EventFd> wakeup = EventFd::create();
    Status armed = Status::ok();
    if (epoll.ok() && wakeup.ok()) {
      loop->epoll = std::move(epoll).value();
      loop->wakeup = std::move(wakeup).value();
      // Connection ids start at 1; id 0 is the loop's own doorbell.
      armed = loop->epoll.add(loop->wakeup.fd(), kEpollIn, 0);
    }
    if (!epoll.ok() || !wakeup.ok() || !armed.is_ok()) {
      loops_.clear();
      listener_.close();
      return !epoll.ok() ? epoll.status() : !wakeup.ok() ? wakeup.status() : armed;
    }
    loops_.push_back(std::move(loop));
  }

  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(work_mutex_);
    workers_stop_ = false;
    work_.clear();
  }
  running_.store(true, std::memory_order_release);

  for (const std::shared_ptr<Loop>& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { run_loop(*l); });
  }
  std::uint32_t handlers = config_.handler_threads;
  if (handlers == 0) {
    handlers = std::max(16u, 2 * std::max(1u, std::thread::hardware_concurrency()));
  }
  handler_threads_.reserve(handlers);
  for (std::uint32_t i = 0; i < handlers; ++i) {
    handler_threads_.emplace_back([this] { handler_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void Reactor::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // drain_deadline_ is published by the release store on stop_ and read
  // only after the loops observe stop_ == true.
  drain_deadline_ = std::chrono::steady_clock::now() + kDrainTimeout;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  // The loops drain: every in-flight request finishes and its response
  // is flushed (bounded by kDrainTimeout) before the loop exits. The
  // handler pool must outlive them — it is what completes those
  // requests — so it joins after.
  for (const std::shared_ptr<Loop>& loop : loops_) loop->wakeup.signal();
  for (const std::shared_ptr<Loop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    std::lock_guard lock(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  handler_threads_.clear();
}

Reactor::Counters Reactor::counters() const {
  Counters c;
  c.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  c.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  c.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  c.requests_error = requests_error_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// Accept path and outbound watches
// ---------------------------------------------------------------------------

void Reactor::assign(std::shared_ptr<Conn> conn) {
  Loop& loop = *loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size()];
  {
    std::lock_guard lock(loop.inbox_mutex);
    loop.incoming.push_back(std::move(conn));
  }
  loop.wakeup.signal();
}

void Reactor::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    StatusOr<TcpStream> accepted = listener_.accept(config_.poll_interval);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kDeadlineExceeded) continue;  // poll slice
      break;  // listener is gone; stop() owns cleanup
    }
    TcpStream stream = std::move(accepted).value();
    (void)stream.set_nonblocking(true);

    const std::uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<Conn> conn;
    if (active_connections_.load(std::memory_order_acquire) >= config_.max_connections) {
      // Typed rejection instead of a dropped connection: the client
      // sees RETRY_LATER (request_id 0: this answers the connection
      // attempt, not any frame). An io thread flushes it under
      // kRejectWriteBudget — the accept thread never writes.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      conn = std::make_shared<Conn>(id, std::move(stream), Conn::Role::kRejected,
                                    config_.max_payload_bytes);
      conn->closing = true;
      conn->deadline = std::chrono::steady_clock::now() + kRejectWriteBudget;
      conn->writer.enqueue(pre_frame_error(Status(StatusCode::kResourceExhausted,
                                                  name_ + " at connection capacity; retry later")));
    } else {
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      active_connections_.fetch_add(1, std::memory_order_acq_rel);
      conn = std::make_shared<Conn>(id, std::move(stream), Conn::Role::kServed,
                                    config_.max_payload_bytes);
    }
    assign(std::move(conn));
  }
}

void Reactor::await_response(TcpStream stream, std::chrono::steady_clock::time_point deadline,
                             std::function<void(StatusOr<FrameView>)> on_response) {
  if (!running_.load(std::memory_order_acquire) || !stream.set_nonblocking(true).is_ok()) {
    on_response(Status(StatusCode::kUnavailable, "no io thread to read the response"));
    return;
  }
  auto conn = std::make_shared<Conn>(next_conn_id_.fetch_add(1, std::memory_order_relaxed),
                                     std::move(stream), Conn::Role::kOutbound,
                                     config_.max_payload_bytes);
  conn->deadline = deadline;
  conn->on_response = std::move(on_response);
  assign(std::move(conn));
}

// ---------------------------------------------------------------------------
// Io threads
// ---------------------------------------------------------------------------

void Reactor::on_frame_complete(void* ctx, const OutboundFrame& frame) {
  auto* self = static_cast<Reactor*>(ctx);
  if (frame.tag == OutboundFrame::kTagOk) {
    self->requests_ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (frame.tag == OutboundFrame::kTagError) {
    self->requests_error_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::update_interest(Loop& loop, Conn& conn) {
  if (conn.closed) return;
  std::uint32_t want = 0;
  if (!conn.closing && !conn.in_flight && !stop_.load(std::memory_order_acquire)) {
    want |= kEpollIn;
  }
  if (!conn.writer.idle()) want |= kEpollOut;
  if (want != conn.armed) {
    // events == 0 is legal: ERR/HUP are still delivered, so a parked
    // in-flight connection's death is noticed.
    if (loop.epoll.mod(conn.stream.fd(), want, conn.id).is_ok()) conn.armed = want;
  }
}

void Reactor::close_conn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  (void)loop.epoll.del(conn->stream.fd());
  conn->stream.close();
  if (conn->role == Conn::Role::kServed) {
    active_connections_.fetch_sub(1, std::memory_order_acq_rel);
  }
  loop.conns.erase(conn->id);
  if (conn->on_response) {
    std::exchange(conn->on_response, nullptr)(
        Status(StatusCode::kUnavailable, "connection closed before its response"));
  }
}

void Reactor::flush_conn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  StatusOr<bool> drained = conn->writer.flush(conn->stream, &Reactor::on_frame_complete, this);
  conn->last_activity = std::chrono::steady_clock::now();
  if (!drained.ok() || (drained.value() && conn->closing)) {
    close_conn(loop, conn);
    return;
  }
  update_interest(loop, *conn);
}

void Reactor::invoke(const FrameView& request, Reply reply) {
  // The last-resort boundary: a request never takes the connection (let
  // alone the process) down without a typed answer.
  try {
    handlers_.on_request(request, reply);
  } catch (const std::bad_alloc&) {
    reply.send(make_error_frame(request.request_id,
                                Status(StatusCode::kResourceExhausted, "allocation failed")));
  } catch (const std::exception& e) {
    reply.send(make_error_frame(request.request_id, Status(StatusCode::kUnavailable, e.what())));
  } catch (...) {
    // Answered by the Reply's destructor.
  }
}

void Reactor::dispatch(Loop& loop, const std::shared_ptr<Conn>& conn) {
  conn->in_flight = true;
  const FrameView request = conn->reader.view();
  if (handlers_.run_inline && handlers_.run_inline(request.kind)) {
    invoke(request, Reply(loop.shared_from_this(), conn, request.request_id));
    return;
  }
  post([this, l = loop.shared_from_this(), conn, request] {
    invoke(request, Reply(l, conn, request.request_id));
  });
}

void Reactor::pump_reads(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->closing || conn->in_flight) return;
  StatusOr<bool> ready = conn->reader.poll(conn->stream);
  conn->last_activity = std::chrono::steady_clock::now();
  if (conn->role == Conn::Role::kOutbound) {
    if (!ready.ok()) {
      std::exchange(conn->on_response, nullptr)(ready.status());
    } else if (ready.value()) {
      std::exchange(conn->on_response, nullptr)(conn->reader.view());
    } else {
      return;  // the response is still on its way
    }
    close_conn(loop, conn);
    return;
  }
  if (!ready.ok()) {
    const StatusCode code = ready.status().code();
    if (code == StatusCode::kInvalidArgument || code == StatusCode::kResourceExhausted) {
      // A framing violation, or the pool refused the payload buffer with
      // the payload still on the socket: either way the stream position
      // is unrecoverable. Answer typed (best effort) — RETRY_LATER for
      // the pool — then close.
      if (code == StatusCode::kInvalidArgument) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      conn->writer.enqueue(pre_frame_error(ready.status()));
      conn->closing = true;
      flush_conn(loop, conn);
    } else {
      close_conn(loop, conn);  // transport errors (EOF/reset) close quietly
    }
    return;
  }
  if (ready.value()) {
    dispatch(loop, conn);  // strict alternation: EPOLLIN pauses below
  }
  update_interest(loop, *conn);
}

void Reactor::drain_inbox(Loop& loop) {
  std::vector<std::shared_ptr<Conn>> incoming;
  std::vector<Loop::Completion> completions;
  {
    std::lock_guard lock(loop.inbox_mutex);
    incoming.swap(loop.incoming);
    completions.swap(loop.completions);
  }
  const bool draining = stop_.load(std::memory_order_acquire);
  for (const std::shared_ptr<Conn>& conn : incoming) {
    conn->last_activity = std::chrono::steady_clock::now();
    conn->armed = conn->closing ? kEpollOut : kEpollIn;
    loop.conns.emplace(conn->id, conn);
    if ((draining && !conn->closing) ||
        !loop.epoll.add(conn->stream.fd(), conn->armed, conn->id).is_ok()) {
      // Raced past stop() (the listener is closing anyway), or the
      // descriptor cannot be watched.
      close_conn(loop, conn);
    } else if (conn->closing) {
      // The rejection frame usually fits the empty send buffer whole:
      // flush now and the connection is gone before its first event.
      flush_conn(loop, conn);
    }
  }
  for (Loop::Completion& completion : completions) {
    const std::shared_ptr<Conn>& conn = completion.conn;
    if (conn->closed) continue;  // died while the handler ran: drop the frame
    conn->reader.consume();
    conn->in_flight = false;
    conn->writer.enqueue(std::move(completion.frame));
    flush_conn(loop, conn);
  }
}

void Reactor::tick(Loop& loop, std::chrono::steady_clock::time_point now) {
  std::vector<std::shared_ptr<Conn>> stalled;
  std::vector<std::shared_ptr<Conn>> idle;
  for (const auto& [id, conn] : loop.conns) {
    if (conn->role != Conn::Role::kServed) {
      if (now >= conn->deadline) stalled.push_back(conn);
      continue;
    }
    const bool mid_io = conn->reader.mid_frame() || !conn->writer.idle();
    if (config_.io_timeout.count() > 0 && mid_io &&
        now - conn->last_activity >= config_.io_timeout) {
      // A slow-loris read or a peer that stopped draining its response:
      // no progress inside a frame for io_timeout. Closed quietly.
      stalled.push_back(conn);
      continue;
    }
    if (config_.idle_timeout.count() > 0 && !conn->in_flight && !mid_io &&
        now - conn->last_activity >= config_.idle_timeout) {
      idle.push_back(conn);
    }
  }
  for (const std::shared_ptr<Conn>& conn : stalled) {
    if (conn->on_response) {
      std::exchange(conn->on_response, nullptr)(
          Status(StatusCode::kDeadlineExceeded, "no response before the deadline"));
    }
    close_conn(loop, conn);
  }
  for (const std::shared_ptr<Conn>& conn : idle) {
    // A slot-holding connection that never starts a frame: close it
    // quietly (no ERROR — there is no request to answer).
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    close_conn(loop, conn);
  }
  if (&loop == loops_.front().get() && handlers_.on_tick) handlers_.on_tick(now);
}

void Reactor::run_loop(Loop& loop) {
  std::array<Epoll::Event, 64> events;
  auto last_tick = std::chrono::steady_clock::now();
  bool draining = false;
  for (;;) {
    StatusOr<std::size_t> n = loop.epoll.wait(events, config_.poll_interval);
    if (!n.ok()) break;  // the epoll fd itself broke; close everything below
    drain_inbox(loop);
    for (std::size_t i = 0; i < n.value(); ++i) {
      const Epoll::Event& event = events[i];
      if (event.data == 0) {
        loop.wakeup.drain();
        continue;
      }
      auto it = loop.conns.find(event.data);
      if (it == loop.conns.end()) continue;  // stale event for a just-closed conn
      std::shared_ptr<Conn> conn = it->second;
      if ((event.events & (kEpollErr | kEpollHup)) != 0) {
        close_conn(loop, conn);
        continue;
      }
      if ((event.events & kEpollOut) != 0) flush_conn(loop, conn);
      if (conn->closed) continue;
      if ((event.events & (kEpollIn | kEpollRdHup)) != 0) pump_reads(loop, conn);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now - last_tick >= config_.poll_interval) {
      tick(loop, now);
      last_tick = now;
    }
    if (!draining && stop_.load(std::memory_order_acquire)) draining = true;
    if (draining) {
      // Drain: close connections with nothing left to deliver; keep
      // pumping completions/flushes for the busy ones until they
      // quiesce or the deadline passes.
      std::vector<std::shared_ptr<Conn>> done;
      bool busy = false;
      for (const auto& [id, conn] : loop.conns) {
        if (conn->in_flight || !conn->writer.idle()) {
          busy = true;
        } else {
          done.push_back(conn);
        }
      }
      for (const std::shared_ptr<Conn>& conn : done) close_conn(loop, conn);
      if (!busy || now >= drain_deadline_) break;
    }
  }
  std::vector<std::shared_ptr<Conn>> rest;
  rest.reserve(loop.conns.size());
  for (const auto& [id, conn] : loop.conns) rest.push_back(conn);
  for (const std::shared_ptr<Conn>& conn : rest) close_conn(loop, conn);
}

// ---------------------------------------------------------------------------
// Handler pool
// ---------------------------------------------------------------------------

void Reactor::post(std::function<void()> task) {
  {
    std::lock_guard lock(work_mutex_);
    if (workers_stop_) return;  // the task's captures release after the unlock
    work_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void Reactor::handler_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(work_mutex_);
      work_cv_.wait(lock, [&] { return workers_stop_ || !work_.empty(); });
      if (work_.empty()) return;  // stopping and fully drained
      task = std::move(work_.front());
      work_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // A task owns its answers: requests answer through their Reply.
    }
  }
}

}  // namespace hmm::net
