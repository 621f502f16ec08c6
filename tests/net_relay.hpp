#pragma once
/// A loopback relay in front of one permd, shared by the networked test
/// suites. It relays every connection to the backend, and can hold
/// SHARD_EXECs at a gate, hold every SUBMIT_PLAN and SHARD_PLAN ack for
/// a fixed delay, and cut every connection at once.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace hmm::test {

using namespace std::chrono_literals;

/// Relays every connection to the backend at `backend_port`, except:
///  - while held (`hold()`), a connection whose first frame is a
///    SHARD_EXEC waits at the relay before it reaches the backend;
///  - each PLAN_OK and SHARD_PLAN_OK answer waits `ack_delay` before it
///    reaches the client (the backend has done its work by then);
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
    (void)client.set_io_timeout(10'000ms, 10'000ms);
    std::array<std::uint8_t, net::kHeaderBytes> header{};
    if (!live() || !client.recv_all(header.data(), header.size()).is_ok()) return;
    if (kind_of(header.data()) == net::MsgKind::kShardExec) {
      std::unique_lock lock(mutex_);
      ++waiting_;
      released_.wait(lock, [this] { return !held_ || !live(); });
      --waiting_;
    }
    runtime::StatusOr<net::TcpStream> backend =
        net::tcp_connect("127.0.0.1", backend_port_, 1'000ms);
    if (!backend.ok() || !backend.value().send_all(header.data(), header.size()).is_ok()) {
      return;
    }
    (void)backend.value().set_io_timeout(10'000ms, 10'000ms);
    std::thread back([&] { pump_answers(backend.value(), client); });
    pump(client, backend.value());
    back.join();
  }

  static net::MsgKind kind_of(const std::uint8_t* header) {
    return static_cast<net::MsgKind>(header[6] | (header[7] << 8));
  }

  /// Copy bytes until `from` closes or the relay stops.
  void pump(net::TcpStream& from, net::TcpStream& to) {
    std::array<std::uint8_t, 16 << 10> buf;
    while (live()) {
      runtime::StatusOr<bool> readable = from.poll_readable(10ms);
      if (!readable.ok()) return;
      if (!readable.value()) continue;
      runtime::StatusOr<std::size_t> got = from.recv_some(buf.data(), buf.size());
      if (!got.ok()) return;
      if (got.value() > 0 && !to.send_all(buf.data(), got.value()).is_ok()) return;
    }
  }

  /// The backend's answers, frame by frame, each ack held for the delay.
  void pump_answers(net::TcpStream& from, net::TcpStream& to) {
    if (ack_delay_ == 0ms) return pump(from, to);
    std::vector<std::uint8_t> frame(net::kHeaderBytes);
    while (live()) {
      runtime::StatusOr<bool> readable = from.poll_readable(10ms);
      if (!readable.ok()) return;
      if (!readable.value()) continue;
      frame.resize(net::kHeaderBytes);
      if (!from.recv_all(frame.data(), frame.size()).is_ok()) return;
      const std::uint32_t len = frame[16] | (frame[17] << 8) | (frame[18] << 16) |
                                (static_cast<std::uint32_t>(frame[19]) << 24);
      frame.resize(net::kHeaderBytes + len);
      if (len > 0 && !from.recv_all(frame.data() + net::kHeaderBytes, len).is_ok()) return;
      const net::MsgKind kind = kind_of(frame.data());
      if (kind == net::MsgKind::kPlanOk || kind == net::MsgKind::kShardPlanOk) {
        std::unique_lock lock(mutex_);
        if (released_.wait_for(lock, ack_delay_, [this] { return !live(); })) return;
      }
      if (!to.send_all(frame.data(), frame.size()).is_ok()) return;
    }
  }

  std::uint16_t backend_port_;
  std::chrono::milliseconds ack_delay_;
  net::TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> killed_{false};
  std::thread acceptor_;
  std::vector<std::thread> relays_;  ///< touched by the acceptor, then the destructor
  std::mutex mutex_;
  std::condition_variable released_;
  bool held_ = false;
  std::size_t waiting_ = 0;
};

}  // namespace hmm::test
