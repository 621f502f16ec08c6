#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

namespace {

Status errno_status(const char* op) {
  return Status(StatusCode::kUnavailable, std::string(op) + ": " + std::strerror(errno));
}

/// EPIPE / ECONNRESET / EOF are per-connection events, never fatal to
/// the process: they all collapse to kUnavailable ("this connection is
/// done"), which server loops treat as a quiet close.
Status peer_gone(const char* what) { return Status(StatusCode::kUnavailable, what); }

Status set_fd_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status("fcntl(F_GETFL)");
  const int next = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) < 0) return errno_status("fcntl(F_SETFL)");
  return Status::ok();
}

timeval to_timeval(std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
  return tv;
}

/// Resolve host:port to an IPv4 sockaddr.
StatusOr<sockaddr_in> resolve(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "cannot resolve host '" + host + "': " + gai_strerror(rc));
  }
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return addr;
}

}  // namespace

void ignore_sigpipe() {
  // SIG_IGN survives exec and is inherited by threads; one call per
  // process is enough. MSG_NOSIGNAL already covers library writes —
  // this covers everything else.
  std::signal(SIGPIPE, SIG_IGN);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpStream::set_io_timeout(std::chrono::milliseconds recv_timeout,
                                 std::chrono::milliseconds send_timeout) {
  if (!valid()) return peer_gone("socket closed");
  const timeval rtv = to_timeval(recv_timeout);
  const timeval stv = to_timeval(send_timeout);
  if (::setsockopt(fd(), SOL_SOCKET, SO_RCVTIMEO, &rtv, sizeof(rtv)) < 0 ||
      ::setsockopt(fd(), SOL_SOCKET, SO_SNDTIMEO, &stv, sizeof(stv)) < 0) {
    return errno_status("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)");
  }
  return Status::ok();
}

Status TcpStream::send_all(const void* data, std::size_t len) {
  if (!valid()) return peer_gone("socket closed");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd(), p + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status(StatusCode::kDeadlineExceeded, "send timed out");
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return peer_gone("peer closed the connection");
    }
    return errno_status("send");
  }
  return Status::ok();
}

Status TcpStream::send_vectored(std::span<const ConstBuffer> parts) {
  if (!valid()) return peer_gone("socket closed");
  // iovec array advanced in place across partial writes. IOV_MAX-sized
  // batches would matter for huge part counts; the serving path sends
  // 2-3 parts per frame, far under any platform's limit.
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const ConstBuffer& part : parts) {
    if (part.len == 0) continue;
    iov.push_back(iovec{const_cast<void*>(part.data), part.len});
  }
  std::size_t next = 0;  // first iovec not yet fully sent
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = iov.size() - next;
    const ssize_t n = ::sendmsg(fd(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      std::size_t advanced = static_cast<std::size_t>(n);
      while (next < iov.size() && advanced >= iov[next].iov_len) {
        advanced -= iov[next].iov_len;
        ++next;
      }
      if (next < iov.size() && advanced > 0) {
        iov[next].iov_base = static_cast<std::uint8_t*>(iov[next].iov_base) + advanced;
        iov[next].iov_len -= advanced;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status(StatusCode::kDeadlineExceeded, "send timed out");
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return peer_gone("peer closed the connection");
    }
    return errno_status("sendmsg");
  }
  return Status::ok();
}

Status TcpStream::recv_all(void* data, std::size_t len, bool mid_frame) {
  if (!valid()) return peer_gone("socket closed");
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd(), p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      return got == 0 && !mid_frame ? peer_gone("connection closed")
                      : peer_gone("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(StatusCode::kDeadlineExceeded, "recv timed out");
    }
    if (errno == ECONNRESET) return peer_gone("connection reset by peer");
    return errno_status("recv");
  }
  return Status::ok();
}

StatusOr<bool> TcpStream::poll_readable(std::chrono::milliseconds timeout) {
  if (!valid()) return peer_gone("socket closed");
  pollfd pfd{fd(), POLLIN, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (rc < 0) {
    if (errno == EINTR) return false;  // treat as a timeout slice
    return errno_status("poll");
  }
  if (rc == 0) return false;
  if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return peer_gone("socket error");
  // POLLIN and POLLHUP both mean "recv will not block" (data or EOF).
  return true;
}

Status TcpStream::set_nonblocking(bool nonblocking) {
  if (!valid()) return peer_gone("socket closed");
  return set_fd_nonblocking(fd(), nonblocking);
}

StatusOr<std::size_t> TcpStream::recv_some(void* data, std::size_t len) {
  if (!valid()) return peer_gone("socket closed");
  for (;;) {
    const ssize_t n = ::recv(fd(), data, len, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return peer_gone("connection closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
    if (errno == ECONNRESET) return peer_gone("connection reset by peer");
    return errno_status("recv");
  }
}

StatusOr<std::size_t> TcpStream::send_some(std::span<const ConstBuffer> parts) {
  if (!valid()) return peer_gone("socket closed");
  iovec iov[16];
  std::size_t count = 0;
  for (const ConstBuffer& part : parts) {
    if (part.len == 0) continue;
    if (count == std::size(iov)) break;  // the remainder goes out next round
    iov[count++] = iovec{const_cast<void*>(part.data), part.len};
  }
  if (count == 0) return std::size_t{0};
  for (;;) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd(), &msg, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
    if (errno == EPIPE || errno == ECONNRESET) return peer_gone("peer closed the connection");
    return errno_status("sendmsg");
  }
}

static_assert(kEpollIn == EPOLLIN && kEpollOut == EPOLLOUT && kEpollErr == EPOLLERR &&
                  kEpollHup == EPOLLHUP && kEpollRdHup == EPOLLRDHUP,
              "readiness bits must mirror the kernel's");

StatusOr<Epoll> Epoll::create() {
  Socket epfd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epfd.valid()) return errno_status("epoll_create1");
  return Epoll(std::move(epfd));
}

Status Epoll::add(int fd, std::uint32_t events, std::uint64_t data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  if (::epoll_ctl(epfd_.fd(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    return errno_status("epoll_ctl(ADD)");
  }
  return Status::ok();
}

Status Epoll::mod(int fd, std::uint32_t events, std::uint64_t data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  if (::epoll_ctl(epfd_.fd(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return errno_status("epoll_ctl(MOD)");
  }
  return Status::ok();
}

Status Epoll::del(int fd) {
  if (::epoll_ctl(epfd_.fd(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return errno_status("epoll_ctl(DEL)");
  }
  return Status::ok();
}

StatusOr<std::size_t> Epoll::wait(std::span<Event> out, std::chrono::milliseconds timeout) {
  if (out.empty()) return std::size_t{0};
  epoll_event events[64];
  const int want = static_cast<int>(std::min(out.size(), std::size(events)));
  const int rc = ::epoll_wait(epfd_.fd(), events, want, static_cast<int>(timeout.count()));
  if (rc < 0) {
    if (errno == EINTR) return std::size_t{0};
    return errno_status("epoll_wait");
  }
  for (int i = 0; i < rc; ++i) {
    out[static_cast<std::size_t>(i)] = Event{events[i].data.u64, events[i].events};
  }
  return static_cast<std::size_t>(rc);
}

StatusOr<EventFd> EventFd::create() {
  Socket efd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!efd.valid()) return errno_status("eventfd");
  return EventFd(std::move(efd));
}

void EventFd::signal() noexcept {
  if (!valid()) return;
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending
  // wakeup; any other failure here has no recovery path worth taking.
  [[maybe_unused]] ssize_t rc = ::write(efd_.fd(), &one, sizeof(one));
}

void EventFd::drain() noexcept {
  if (!valid()) return;
  std::uint64_t count = 0;
  [[maybe_unused]] ssize_t rc = ::read(efd_.fd(), &count, sizeof(count));
}

StatusOr<TcpStream> tcp_connect(const std::string& host, std::uint16_t port,
                                std::chrono::milliseconds timeout) {
  StatusOr<sockaddr_in> addr = resolve(host, port);
  if (!addr.ok()) return addr.status();

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return errno_status("socket");

  // Non-blocking connect bounded by poll, then back to blocking mode
  // (everything downstream relies on SO_RCVTIMEO semantics).
  if (Status s = set_fd_nonblocking(sock.fd(), true); !s.is_ok()) return s;
  const sockaddr_in& sa = addr.value();
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    if (errno != EINPROGRESS) return errno_status("connect");
    pollfd pfd{sock.fd(), POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (rc < 0) return errno_status("poll(connect)");
    if (rc == 0) return Status(StatusCode::kDeadlineExceeded, "connect timed out");
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) {
      return errno_status("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status(StatusCode::kUnavailable,
                    std::string("connect failed: ") + std::strerror(err));
    }
  }
  if (Status s = set_fd_nonblocking(sock.fd(), false); !s.is_ok()) return s;

  // Frames are written whole; Nagle only adds latency here.
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(sock));
}

StatusOr<TcpListener> TcpListener::bind(const std::string& host, std::uint16_t port,
                                        int backlog) {
  StatusOr<sockaddr_in> addr = resolve(host, port);
  if (!addr.ok()) return addr.status();

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return errno_status("socket");
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in& sa = addr.value();
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    return errno_status("bind");
  }
  if (::listen(sock.fd(), backlog) < 0) return errno_status("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    return errno_status("getsockname");
  }
  return TcpListener(std::move(sock), ntohs(bound.sin_port));
}

StatusOr<TcpStream> TcpListener::accept(std::chrono::milliseconds timeout) {
  if (!valid()) return Status(StatusCode::kUnavailable, "listener closed");
  pollfd pfd{sock_.fd(), POLLIN, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (rc < 0) {
    if (errno == EINTR) return Status(StatusCode::kDeadlineExceeded, "accept interrupted");
    return errno_status("poll(accept)");
  }
  if (rc == 0) return Status(StatusCode::kDeadlineExceeded, "accept timed out");
  const int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) {
    // Transient accept errors (the connection died in the backlog) are
    // not listener failures; report a timeout so the loop just retries.
    if (errno == ECONNABORTED || errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(StatusCode::kDeadlineExceeded, "connection aborted in backlog");
    }
    return errno_status("accept");
  }
  Socket conn(fd);
  const int one = 1;
  ::setsockopt(conn.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(conn));
}

}  // namespace hmm::net
