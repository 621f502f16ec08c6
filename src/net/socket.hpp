#pragma once
/// \file socket.hpp
/// \brief Thin RAII layer over POSIX TCP sockets: listener, stream,
///        connect-with-timeout, typed I/O errors, and the nonblocking
///        readiness primitives (`Epoll`, `EventFd`, single-shot
///        `send_some`/`recv_some`) the reactor server is built on.
///
/// Two I/O disciplines share this file. The client and the shard
/// exchange links use *blocking* streams with SO_RCVTIMEO/SO_SNDTIMEO
/// (`send_all`/`recv_all`): those paths block on a round trip anyway.
/// The server runs *nonblocking* streams driven by epoll readiness:
/// `set_nonblocking(true)` plus the `*_some` calls, which do at most
/// one syscall and report would-block instead of sleeping.
///
/// Error taxonomy (the same `runtime::Status` the serving stack uses):
///  - `kDeadlineExceeded` — an I/O timeout (SO_RCVTIMEO/SO_SNDTIMEO) or
///    poll timeout elapsed;
///  - `kUnavailable` — the peer went away (EOF, ECONNRESET, EPIPE) or
///    the OS refused (transient): callers treat the *connection* as
///    dead, never the process.
///
/// `EPIPE`/`ECONNRESET` are per-connection facts of life; writes use
/// `MSG_NOSIGNAL` so a dead peer can never raise SIGPIPE from inside
/// the library, and `ignore_sigpipe()` belts-and-braces the daemons for
/// any path outside it (stdio to a closed pipe, third-party writes).

#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "runtime/status.hpp"

namespace hmm::net {

/// One element of a scatter-gather send: a borrowed byte range.
struct ConstBuffer {
  const void* data = nullptr;
  std::size_t len = 0;
};

/// Process-wide `signal(SIGPIPE, SIG_IGN)`. Idempotent; call early in
/// any program that writes to sockets.
void ignore_sigpipe();

/// Owning file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// A connected TCP stream with whole-buffer send/recv.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Socket s) noexcept : sock_(std::move(s)) {}

  [[nodiscard]] bool valid() const noexcept { return sock_.valid(); }
  [[nodiscard]] int fd() const noexcept { return sock_.fd(); }

  /// Per-direction I/O timeouts (0 = never time out). Only meaningful
  /// for blocking streams — a nonblocking fd never sleeps in a syscall.
  runtime::Status set_io_timeout(std::chrono::milliseconds recv_timeout,
                                 std::chrono::milliseconds send_timeout);

  /// Toggle O_NONBLOCK. In nonblocking mode use `send_some`/`recv_some`
  /// (the `*_all` calls would spin on would-block).
  runtime::Status set_nonblocking(bool nonblocking);

  /// Send exactly `len` bytes. Typed failure, never SIGPIPE.
  runtime::Status send_all(const void* data, std::size_t len);

  /// Send every part, in order, as if concatenated — one sendmsg(2)
  /// per kernel round instead of one send per part, so a frame built
  /// from [header | borrowed payload] goes out without ever being
  /// copied into a contiguous buffer. (sendmsg rather than writev:
  /// writev cannot pass MSG_NOSIGNAL.) Zero-length parts are allowed.
  runtime::Status send_vectored(std::span<const ConstBuffer> parts);

  /// Receive exactly `len` bytes. EOF mid-buffer is kUnavailable (a
  /// torn frame); a clean EOF before the first byte is also
  /// kUnavailable with a "closed" message callers can treat as quiet,
  /// unless `mid_frame` says the bytes continue a frame already begun.
  runtime::Status recv_all(void* data, std::size_t len, bool mid_frame = false);

  /// Wait up to `timeout` for readability. OK(true) = data or EOF
  /// pending, OK(false) = timeout, error = the socket is dead.
  runtime::StatusOr<bool> poll_readable(std::chrono::milliseconds timeout);

  /// One nonblocking read attempt: at most one recv(2). OK(n > 0) =
  /// `n` bytes landed, OK(0) = the socket would block (wait for
  /// readiness); EOF and resets surface as kUnavailable. Callers that
  /// care whether EOF tore a frame know their own parse position —
  /// this call cannot.
  runtime::StatusOr<std::size_t> recv_some(void* data, std::size_t len);

  /// One nonblocking scatter-gather write attempt: at most one
  /// sendmsg(2) over the parts as if concatenated. OK(n) = the kernel
  /// accepted `n` bytes (possibly short — resume from there), OK(0) =
  /// would block (wait for writability); EPIPE/ECONNRESET surface as
  /// kUnavailable, never SIGPIPE. Zero-length parts are skipped.
  runtime::StatusOr<std::size_t> send_some(std::span<const ConstBuffer> parts);

  void close() noexcept { sock_.close(); }

 private:
  Socket sock_;
};

/// Readiness bits for `Epoll`, numerically identical to the kernel's
/// EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP/EPOLLRDHUP (asserted in the
/// .cpp) so the header stays free of <sys/epoll.h>.
inline constexpr std::uint32_t kEpollIn = 0x001;
inline constexpr std::uint32_t kEpollOut = 0x004;
inline constexpr std::uint32_t kEpollErr = 0x008;
inline constexpr std::uint32_t kEpollHup = 0x010;
inline constexpr std::uint32_t kEpollRdHup = 0x2000;

/// RAII epoll(7) instance. `data` is an opaque caller key (the reactor
/// uses connection ids, not fds, so a stale event after close can never
/// alias a recycled descriptor). Level-triggered throughout: the frame
/// state machines re-arm interest explicitly and never need EPOLLET's
/// drain-to-EAGAIN contract.
class Epoll {
 public:
  struct Event {
    std::uint64_t data = 0;
    std::uint32_t events = 0;
  };

  Epoll() = default;
  static runtime::StatusOr<Epoll> create();

  [[nodiscard]] bool valid() const noexcept { return epfd_.valid(); }

  runtime::Status add(int fd, std::uint32_t events, std::uint64_t data);
  runtime::Status mod(int fd, std::uint32_t events, std::uint64_t data);
  runtime::Status del(int fd);

  /// Wait up to `timeout` (-1ms = forever) for readiness; fills at most
  /// `out.size()` events and returns the count (0 = timeout). EINTR is
  /// reported as 0 events, like a timeout slice.
  runtime::StatusOr<std::size_t> wait(std::span<Event> out,
                                      std::chrono::milliseconds timeout);

 private:
  explicit Epoll(Socket s) noexcept : epfd_(std::move(s)) {}
  Socket epfd_;
};

/// Nonblocking eventfd(2) wakeup: any thread `signal()`s, the owning
/// reactor sees kEpollIn on `fd()` and `drain()`s. Coalescing is the
/// point — N signals before a drain still cost one wakeup.
class EventFd {
 public:
  EventFd() = default;
  static runtime::StatusOr<EventFd> create();

  [[nodiscard]] bool valid() const noexcept { return efd_.valid(); }
  [[nodiscard]] int fd() const noexcept { return efd_.fd(); }

  void signal() noexcept;
  void drain() noexcept;

 private:
  explicit EventFd(Socket s) noexcept : efd_(std::move(s)) {}
  Socket efd_;
};

/// Connect to host:port within `timeout` (non-blocking connect + poll,
/// then back to blocking mode). Numeric IPv4 addresses and hostnames
/// both resolve (AF_INET).
runtime::StatusOr<TcpStream> tcp_connect(const std::string& host, std::uint16_t port,
                                         std::chrono::milliseconds timeout);

/// A bound, listening TCP socket.
class TcpListener {
 public:
  TcpListener() = default;

  /// Bind and listen on host:port. Port 0 binds an ephemeral port —
  /// read the real one back with `port()`.
  static runtime::StatusOr<TcpListener> bind(const std::string& host, std::uint16_t port,
                                             int backlog = 128);

  [[nodiscard]] bool valid() const noexcept { return sock_.valid(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Wait up to `timeout` for a connection. OK carries the stream;
  /// kDeadlineExceeded = timeout (normal in an accept loop polling a
  /// stop flag); kUnavailable = the listener is closed/broken.
  runtime::StatusOr<TcpStream> accept(std::chrono::milliseconds timeout);

  void close() noexcept { sock_.close(); }

 private:
  explicit TcpListener(Socket s, std::uint16_t bound_port) noexcept
      : sock_(std::move(s)), port_(bound_port) {}

  Socket sock_;
  std::uint16_t port_ = 0;
};

}  // namespace hmm::net
