#pragma once
/// \file client.hpp
/// \brief `net::Client` — a synchronous HMMP client with connect and
///        request timeouts, lazy connection, and reconnect-on-failure.
///
/// One client owns one connection and is **not** thread-safe (the
/// protocol is strictly request/response per connection); concurrent
/// callers each get their own Client, as permd_loadgen does.
///
/// Transport failures (`kUnavailable`: the server restarted, the
/// connection was idle-closed, a reset) are retried transparently: the
/// client reconnects and resends the request up to
/// `Config::max_retries` times. Typed *server* errors — RETRY_LATER,
/// DEADLINE_EXCEEDED, INVALID_ARGUMENT — are never retried here; they
/// are answers, and backoff policy belongs to the application.
/// Protocol violations from the server (bad framing, response id or
/// kind mismatch) surface as `kUnavailable` after dropping the
/// connection, since nothing after a framing error is trustworthy.
///
/// A connection that dies *inside* a response frame (the server hit
/// its drain deadline, or crashed after executing the request) is the
/// one transport failure that is **not** retried: the request may have
/// executed, so it surfaces as `kCancelled` ("outcome unknown") and
/// the resend decision belongs to the caller.
///
/// Borrowed storage: a PERMUTE or EXECUTE_PROGRAM sends the caller's
/// `data` span in place (a stack-built prefix plus the span, one
/// scatter-gather write), and its OK answer is received straight into
/// `out` (any other answer into storage the client keeps from the
/// process BufferPool, grown only when a larger response arrives). The
/// span is borrowed for the call only; on any error `out` is
/// unspecified. Same-sized requests allocate nothing of payload size.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "perm/permutation.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::net {

class Client {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::chrono::milliseconds connect_timeout{2'000};
    /// Socket-level budget per send/recv; covers the server's whole
    /// service time for a request, so keep it >= any PERMUTE deadline.
    std::chrono::milliseconds io_timeout{30'000};
    std::uint32_t max_payload_bytes = kDefaultMaxPayload;
    /// Reconnect-and-resend attempts after a transport failure.
    int max_retries = 1;
    /// Backoff before retry attempt k (k >= 1) is `base << (k-1)`
    /// capped at `retry_backoff_cap`, plus a deterministic jitter of up
    /// to the same amount (mirroring the service's build-retry backoff)
    /// — a down server gets spaced-out probes, not an instant hammer of
    /// max_retries reconnects. base = 0 disables the pause.
    std::chrono::milliseconds retry_backoff_base{25};
    std::chrono::milliseconds retry_backoff_cap{1'000};
    std::uint64_t retry_jitter_seed = 0x5eed5eed5eed5eedull;
    /// Trace prefix folded into the high 32 bits of every request id
    /// (the low 32 bits stay a per-connection sequence number). The
    /// server echoes the id verbatim and threads it to the slow-request
    /// log, so a nonzero prefix makes this client's requests traceable
    /// end to end. 0 = untagged (ids are the bare sequence, as in v1).
    std::uint32_t trace_prefix = 0;
  };

  /// The (deterministic) pause taken before retry `attempt` (1-based);
  /// attempt 0 is the initial try and never waits. Exposed so tests and
  /// capacity math can bound retry timing exactly.
  [[nodiscard]] static std::chrono::microseconds retry_backoff(const Config& config,
                                                               int attempt) noexcept;

  explicit Client(Config config) : config_(std::move(config)) {}
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establish the connection now (otherwise the first request does).
  runtime::Status connect();
  [[nodiscard]] bool connected() const noexcept { return stream_.valid(); }
  void close() noexcept { stream_.close(); }

  /// Liveness probe; round-trips a small payload and checks the echo.
  runtime::Status ping();

  /// Register `p` with the server; returns the plan id for permute().
  runtime::StatusOr<std::uint64_t> submit_plan(const perm::Permutation& p);

  /// Apply a registered plan: out[P(i)] = data[i]. `deadline` is the
  /// relative budget the server charges the request against (zero =
  /// none). `out` must be exactly data.size() elements.
  runtime::Status permute(std::uint64_t plan_id, std::span<const std::uint32_t> data,
                          std::span<std::uint32_t> out,
                          std::chrono::milliseconds deadline = std::chrono::milliseconds{0});

  /// Execute an op chain in one round trip: `ops` apply to `data` in
  /// list order (see runtime/program.hpp for the opcode vocabulary —
  /// PERMUTE/INVERSE reference plan ids from submit_plan(), the rest
  /// are parametric generators). `out` must be exactly data.size()
  /// elements.
  runtime::Status execute_program(
      std::span<const runtime::ProgramOp> ops, std::span<const std::uint32_t> data,
      std::span<std::uint32_t> out,
      std::chrono::milliseconds deadline = std::chrono::milliseconds{0});

  /// The server's ServiceMetrics snapshot as JSON.
  runtime::StatusOr<std::string> stats_json();

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  /// Transport-level reconnects performed since construction.
  [[nodiscard]] std::uint64_t reconnects() const noexcept { return reconnects_; }

 private:
  /// Send `kind` with the payload scattered over `parts`, receive the
  /// matching response frame into `sink` or else `storage_`. Reconnects
  /// and resends on transport failure (up to max_retries); returns the
  /// response frame (kError frames included — callers map them via
  /// ErrorResponse::to_status()), valid until the next round trip.
  runtime::StatusOr<FrameView> roundtrip(MsgKind kind, std::span<const ConstBuffer> parts,
                                         const PayloadSink* sink = nullptr);

  /// One attempt on the current connection; no retry logic.
  runtime::StatusOr<FrameView> roundtrip_once(MsgKind kind, std::span<const ConstBuffer> parts,
                                              std::uint64_t request_id,
                                              const PayloadSink* sink);

  /// `roundtrip` for a PERMUTE or EXECUTE_PROGRAM whose OK answer's
  /// elements are received straight into `out`.
  runtime::Status roundtrip_into(MsgKind kind, std::span<const ConstBuffer> parts,
                                 std::span<std::uint32_t> out);

  /// Next wire request id: trace prefix in the high half, sequence in
  /// the low half.
  [[nodiscard]] std::uint64_t next_request_id() noexcept {
    return (static_cast<std::uint64_t>(config_.trace_prefix) << 32) |
           (next_seq_++ & 0xffff'ffffull);
  }

  Config config_;
  TcpStream stream_;
  util::PooledBuffer storage_;  ///< response payloads, grow-only
  std::uint64_t next_seq_ = 1;
  std::uint64_t reconnects_ = 0;
};

}  // namespace hmm::net
