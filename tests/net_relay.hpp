#pragma once
/// A loopback relay in front of one permd, shared by the networked test
/// suites. It relays every connection to the backend, and can hold
/// SHARD_EXECs at a gate, hold every SUBMIT_PLAN and SHARD_PLAN ack for
/// a fixed delay, corrupt a shard's band in flight, and cut every
/// connection at once.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace hmm::test {

using namespace std::chrono_literals;

/// Relays every connection to the backend at `backend_port`, frame by
/// frame, except:
///  - while held (`hold()`), each SHARD_EXEC waits at the relay before
///    it reaches the backend;
///  - each PLAN_OK and SHARD_PLAN_OK answer waits `ack_delay` before it
///    reaches the client (the backend has done its work by then);
///  - after `corrupt_next_band()`, the next SHARD_EXEC_OK reaches the
///    client with one band byte flipped;
///  - after `kill()` every relayed connection closes, any held answer is
///    dropped, and new connections are closed as soon as they arrive.
class Relay {
 public:
  explicit Relay(std::uint16_t backend_port, std::chrono::milliseconds ack_delay = 0ms)
      : backend_port_(backend_port), ack_delay_(ack_delay) {
    auto bound = net::TcpListener::bind("127.0.0.1", 0);
    EXPECT_TRUE(bound.ok()) << bound.status().to_string();
    if (bound.ok()) listener_ = std::move(bound).value();
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  ~Relay() {
    release();
    stop_.store(true);
    released_.notify_all();
    acceptor_.join();
    for (std::thread& t : relays_) t.join();
  }
  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  void hold() {
    std::lock_guard lock(mutex_);
    held_ = true;
  }
  void release() {
    {
      std::lock_guard lock(mutex_);
      held_ = false;
    }
    released_.notify_all();
  }
  void kill() {
    {
      std::lock_guard lock(mutex_);
      killed_.store(true);
    }
    released_.notify_all();
  }
  void corrupt_next_band() { corrupt_.store(true); }
  /// SHARD_EXECs waiting at the gate.
  [[nodiscard]] std::size_t waiting() {
    std::lock_guard lock(mutex_);
    return waiting_;
  }

 private:
  [[nodiscard]] bool live() const { return !stop_.load() && !killed_.load(); }

  void accept_loop() {
    while (!stop_.load()) {
      runtime::StatusOr<net::TcpStream> client = listener_.accept(10ms);
      if (!client.ok()) continue;
      relays_.emplace_back(
          [this, c = std::move(client).value()]() mutable { relay(c); });
    }
  }

  void relay(net::TcpStream& client) {
    if (!live()) return;
    (void)client.set_io_timeout(10'000ms, 10'000ms);
    runtime::StatusOr<net::TcpStream> backend =
        net::tcp_connect("127.0.0.1", backend_port_, 1'000ms);
    if (!backend.ok()) return;
    (void)backend.value().set_io_timeout(10'000ms, 10'000ms);
    net::TcpStream& server = backend.value();
    // Either side closing ends the relayed connection: each pump shuts
    // both sockets down as it returns, which wakes the other.
    const auto hang_up = [&] {
      ::shutdown(client.fd(), SHUT_RDWR);
      ::shutdown(server.fd(), SHUT_RDWR);
    };
    std::thread back([&] {
      pump(server, client, /*to_backend=*/false);
      hang_up();
    });
    pump(client, server, /*to_backend=*/true);
    hang_up();
    back.join();
  }

  static net::MsgKind kind_of(const std::uint8_t* header) {
    return static_cast<net::MsgKind>(header[6] | (header[7] << 8));
  }

  /// False when the relay stopped while a SHARD_EXEC waited at the gate.
  bool pass_gate() {
    std::unique_lock lock(mutex_);
    ++waiting_;
    released_.wait(lock, [this] { return !held_ || !live(); });
    --waiting_;
    return live();
  }

  /// False when the relay stopped while an ack was held.
  bool delay_ack() {
    std::unique_lock lock(mutex_);
    return !released_.wait_for(lock, ack_delay_, [this] { return !live(); });
  }

  /// Copy frames from `from` to `to` until either closes or the relay
  /// stops; a payload streams through in 16 KiB pieces.
  void pump(net::TcpStream& from, net::TcpStream& to, bool to_backend) {
    std::array<std::uint8_t, 16 << 10> buf;
    while (live()) {
      runtime::StatusOr<bool> readable = from.poll_readable(10ms);
      if (!readable.ok()) return;
      if (!readable.value()) continue;
      std::array<std::uint8_t, net::kHeaderBytes> header{};
      if (!from.recv_all(header.data(), header.size()).is_ok()) return;
      const net::MsgKind kind = kind_of(header.data());
      if (to_backend && kind == net::MsgKind::kShardExec && !pass_gate()) return;
      if (!to_backend && ack_delay_ > 0ms &&
          (kind == net::MsgKind::kPlanOk || kind == net::MsgKind::kShardPlanOk) &&
          !delay_ack()) {
        return;
      }
      bool corrupt =
          !to_backend && kind == net::MsgKind::kShardExecOk && corrupt_.exchange(false);
      if (!to.send_all(header.data(), header.size()).is_ok()) return;
      std::size_t left = header[16] | (header[17] << 8) | (header[18] << 16) |
                         (static_cast<std::size_t>(header[19]) << 24);
      while (left > 0 && live()) {
        const std::size_t n = std::min(left, buf.size());
        if (!from.recv_all(buf.data(), n).is_ok()) return;
        // The last byte of the first piece lies past the 8-byte count.
        if (std::exchange(corrupt, false)) buf[n - 1] ^= 0x5a;
        if (!to.send_all(buf.data(), n).is_ok()) return;
        left -= n;
      }
    }
  }

  std::uint16_t backend_port_;
  std::chrono::milliseconds ack_delay_;
  net::TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> corrupt_{false};
  std::thread acceptor_;
  std::vector<std::thread> relays_;  ///< touched by the acceptor, then the destructor
  std::mutex mutex_;
  std::condition_variable released_;
  bool held_ = false;
  std::size_t waiting_ = 0;
};

}  // namespace hmm::test
