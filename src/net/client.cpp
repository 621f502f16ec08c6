#include "net/client.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

namespace {

bool is_error(const FrameView& frame) {
  return static_cast<MsgKind>(frame.kind) == MsgKind::kError;
}

/// The wire (little-endian) bytes of `words`: the caller's memory
/// itself on a little-endian host, else a converted copy in `staging`.
std::span<const std::uint8_t> wire_words(std::span<const std::uint32_t> words,
                                         std::vector<std::uint8_t>& staging) {
  if constexpr (std::endian::native == std::endian::little) {
    return {reinterpret_cast<const std::uint8_t*>(words.data()), words.size() * kElemBytes};
  }
  ByteWriter w;
  w.put_u32_span(words);
  staging = w.take();
  return staging;
}

/// Little-endian store of the low `bytes` bytes of `v` at `at`.
std::uint8_t* put_le(std::uint8_t* at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) *at++ = static_cast<std::uint8_t>(v >> (8 * i));
  return at;
}

}  // namespace

Status Client::connect() {
  close();
  StatusOr<TcpStream> conn = tcp_connect(config_.host, config_.port, config_.connect_timeout);
  if (!conn.ok()) return conn.status();
  stream_ = std::move(conn).value();
  return stream_.set_io_timeout(config_.io_timeout, config_.io_timeout);
}

StatusOr<FrameView> Client::roundtrip_once(MsgKind kind, std::span<const ConstBuffer> parts,
                                           std::uint64_t request_id, const PayloadSink* sink) {
  if (Status s = write_frame_parts(stream_, static_cast<std::uint16_t>(kind), request_id, parts);
      !s.is_ok()) {
    return s;
  }

  StatusOr<FrameView> response = read_frame_view(stream_, util::BufferPool::global(), storage_,
                                                 config_.max_payload_bytes, sink);
  if (!response.ok()) {
    // The request reached the wire. A clean EOF before any response
    // byte means the server never started answering (idle close, a
    // restart) — safe to resend. EOF *inside* a response frame means
    // the server was mid-answer when the connection died (a drain
    // deadline, a crash after execution): the request may well have
    // executed, so surface kCancelled — "outcome unknown" — instead of
    // a generic transport error the retry loop would resend blindly.
    const Status& s = response.status();
    if (s.code() == StatusCode::kUnavailable &&
        s.message().find("mid-frame") != std::string::npos) {
      return Status(StatusCode::kCancelled,
                    "connection closed mid-response; request outcome unknown");
    }
    return response;
  }
  const FrameView& frame = response.value();
  const auto resp_kind = static_cast<MsgKind>(frame.kind);
  if (frame.request_id != request_id) {
    if (frame.request_id == 0 && resp_kind == MsgKind::kError) {
      // Pre-frame admission rejection (the server answers a connection
      // it will not serve with an ERROR frame addressed to no request,
      // then closes). Surface the typed code — usually RETRY_LATER from
      // the connection cap — so the retry loop backs off instead of
      // treating this as a protocol violation.
      return error_status(frame.payload);
    }
    return Status(StatusCode::kUnavailable, "response id does not match the request");
  }
  if (resp_kind != MsgKind::kError &&
      frame.kind != (static_cast<std::uint16_t>(kind) | 0x80u)) {
    return Status(StatusCode::kUnavailable, "response kind does not answer the request");
  }
  return response;
}

std::chrono::microseconds Client::retry_backoff(const Config& config, int attempt) noexcept {
  return util::jittered_backoff(config.retry_backoff_base, config.retry_backoff_cap, attempt,
                                config.retry_jitter_seed);
}

StatusOr<FrameView> Client::roundtrip(MsgKind kind, std::span<const ConstBuffer> parts,
                                      const PayloadSink* sink) {
  Status last(StatusCode::kUnavailable, "not attempted");
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      const std::chrono::microseconds pause = retry_backoff(config_, attempt);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
    if (!connected()) {
      if (attempt > 0) ++reconnects_;
      if (Status s = connect(); !s.is_ok()) {
        last = s;
        continue;  // next attempt backs off and reconnects again
      }
    }
    StatusOr<FrameView> response = roundtrip_once(kind, parts, next_request_id(), sink);
    if (response.ok()) return response;
    last = response.status();
    // A frame-level violation or transport failure poisons the
    // connection; typed server errors arrive as kError *frames* (the
    // OK path above), so any Status here warrants a reconnect.
    close();
    if (last.code() == StatusCode::kInvalidArgument) {
      // Framing violation from the server: do not hammer a confused
      // peer with resends.
      return last;
    }
    if (last.code() == StatusCode::kCancelled) {
      // Torn response: the request may have executed server-side.
      // Resending is the application's call (idempotent PERMUTEs can;
      // anything with side effects must not), so never retry here.
      return last;
    }
  }
  return last;
}

Status Client::roundtrip_into(MsgKind kind, std::span<const ConstBuffer> parts,
                              std::span<std::uint32_t> out) {
  const auto ok_kind = static_cast<MsgKind>(static_cast<std::uint16_t>(kind) | 0x80u);
  std::array<std::uint8_t, 8> count{};
  const PayloadSink sink{static_cast<std::uint16_t>(ok_kind), count,
                         {reinterpret_cast<std::uint8_t*>(out.data()), out.size_bytes()}};
  // An empty `out` takes no answer the sink could hold.
  StatusOr<FrameView> response = roundtrip(kind, parts, out.empty() ? nullptr : &sink);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame.payload);
  // The sink took a well-sized answer (the payload is then its head);
  // a malformed one is a protocol breach, not our invalid argument.
  ByteReader r(frame.payload);
  std::uint64_t n = 0;
  const char* why = !r.get_u64(n)       ? "truncated header"
                    : n != out.size()   ? "element count does not match the request"
                    : frame.payload.data() != count.data()
                        ? "payload length does not match element count"
                        : nullptr;
  if (why != nullptr) {
    return Status(StatusCode::kUnavailable, "malformed " + std::string(to_string(ok_kind)) +
                                                " payload: PERMUTE_OK: " + why);
  }
  if constexpr (std::endian::native == std::endian::big) {
    for (std::uint32_t& w : out) w = __builtin_bswap32(w);
  }
  return Status::ok();
}

Status Client::ping() {
  static constexpr std::uint8_t kProbe[] = {'h', 'm', 'm', 'p', '?'};
  const ConstBuffer parts[] = {{kProbe, sizeof(kProbe)}};
  StatusOr<FrameView> response = roundtrip(MsgKind::kPing, parts);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame.payload);
  if (!std::equal(frame.payload.begin(), frame.payload.end(), std::begin(kProbe),
                  std::end(kProbe))) {
    return Status(StatusCode::kUnavailable, "PING echo mismatch");
  }
  return Status::ok();
}

StatusOr<std::uint64_t> Client::submit_plan(const perm::Permutation& p) {
  // The count on the stack, the mapping straight from the permutation's
  // words, as permute() sends its elements.
  std::array<std::uint8_t, 8> count{};
  put_le(count.data(), p.size(), 8);
  std::vector<std::uint8_t> staging;
  const std::span<const std::uint8_t> mapping = wire_words(p.data(), staging);
  const ConstBuffer parts[] = {{count.data(), count.size()}, {mapping.data(), mapping.size()}};
  StatusOr<FrameView> response = roundtrip(MsgKind::kSubmitPlan, parts);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame.payload);
  ByteReader r(frame.payload);
  std::uint64_t plan_id = 0;
  if (!r.get_u64(plan_id) || !r.exhausted()) {
    return Status(StatusCode::kUnavailable, "malformed PLAN_OK payload");
  }
  return plan_id;
}

Status Client::permute(std::uint64_t plan_id, std::span<const std::uint32_t> data,
                       std::span<std::uint32_t> out, std::chrono::milliseconds deadline) {
  if (out.size() != data.size()) {
    return Status(StatusCode::kInvalidArgument, "output span size does not match input");
  }
  // The PERMUTE header on the stack, the elements straight from the
  // caller's span: nothing of payload size is staged.
  std::array<std::uint8_t, 24> prefix{};
  std::uint8_t* at = put_le(prefix.data(), plan_id, 8);
  at = put_le(at, PermuteRequest::clamp_deadline(deadline), 4);
  at = put_le(at, kElemBytes, 4);
  put_le(at, data.size(), 8);
  std::vector<std::uint8_t> staging;
  const std::span<const std::uint8_t> body = wire_words(data, staging);
  const ConstBuffer parts[] = {{prefix.data(), prefix.size()}, {body.data(), body.size()}};
  return roundtrip_into(MsgKind::kPermute, parts, out);
}

Status Client::execute_program(std::span<const runtime::ProgramOp> ops,
                               std::span<const std::uint32_t> data, std::span<std::uint32_t> out,
                               std::chrono::milliseconds deadline) {
  if (out.size() != data.size()) {
    return Status(StatusCode::kInvalidArgument, "output span size does not match input");
  }
  if (ops.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty program");
  }
  if (ops.size() > runtime::kMaxProgramOps) {
    return Status(StatusCode::kInvalidArgument, "program op count exceeds the limit");
  }
  // The header and op list (at most kMaxProgramOps entries) on the
  // stack, the elements straight from the caller's span, as permute().
  std::array<std::uint8_t, 16 + 16 * runtime::kMaxProgramOps + 8> prefix{};
  std::uint8_t* at = put_le(prefix.data(), PermuteRequest::clamp_deadline(deadline), 4);
  at = put_le(at, kElemBytes, 4);
  at = put_le(at, 0, 4);  // flags: all reserved
  at = put_le(at, ops.size(), 4);
  for (const runtime::ProgramOp& op : ops) {
    at = put_le(at, static_cast<std::uint32_t>(op.op), 4);
    at = put_le(at, 0, 4);  // reserved
    at = put_le(at, op.arg, 8);
  }
  at = put_le(at, data.size(), 8);
  std::vector<std::uint8_t> staging;
  const std::span<const std::uint8_t> body = wire_words(data, staging);
  const ConstBuffer parts[] = {{prefix.data(), static_cast<std::size_t>(at - prefix.data())},
                               {body.data(), body.size()}};
  // PROGRAM_OK carries the PERMUTE_OK layout.
  return roundtrip_into(MsgKind::kExecuteProgram, parts, out);
}

StatusOr<std::string> Client::stats_json() {
  StatusOr<FrameView> response = roundtrip(MsgKind::kStats, {});
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame.payload);
  ByteReader r(frame.payload);
  return r.rest_as_string();
}

}  // namespace hmm::net
