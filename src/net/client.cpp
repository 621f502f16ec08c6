#include "net/client.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
  // A sink that took the answer holds its head as the payload and its
  // words in `out`; a malformed one is a protocol breach, not our
  // invalid argument.
  const std::size_t payload_len = frame.payload.data() == count.data()
                                      ? count.size() + out.size_bytes()
                                      : frame.payload.size();
  if (Status head = decode_words_ok_head(ok_kind, frame.payload, payload_len, out.size());
      !head.is_ok()) {
    return Status(StatusCode::kUnavailable, "malformed " + std::string(to_string(ok_kind)) +
                                                " payload: " + head.message());
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
  const Head8 count = encode_submit_plan(p.size());
  std::vector<std::uint8_t> staging;
  const std::span<const std::uint8_t> mapping = wire_words(p.data(), staging);
  const ConstBuffer parts[] = {{count.data(), count.size()}, {mapping.data(), mapping.size()}};
  StatusOr<FrameView> response = roundtrip(MsgKind::kSubmitPlan, parts);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame.payload);
  StatusOr<std::uint64_t> plan_id = decode_plan_ok(frame.payload);
  if (!plan_id.ok()) return Status(StatusCode::kUnavailable, "malformed PLAN_OK payload");
  return plan_id;
}

Status Client::permute(std::uint64_t plan_id, std::span<const std::uint32_t> data,
                       std::span<std::uint32_t> out, std::chrono::milliseconds deadline) {
  if (out.size() != data.size()) {
    return Status(StatusCode::kInvalidArgument, "output span size does not match input");
  }
  // The PERMUTE header on the stack, the elements straight from the
  // caller's span: nothing of payload size is staged.
  const std::array<std::uint8_t, 24> prefix =
      encode_permute({plan_id, clamp_deadline(deadline)}, data.size());
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
  // The header and op list on the stack, the elements straight from the
  // caller's span, as permute().
  const StatusOr<ProgramPrefix> prefix =
      encode_execute_program(clamp_deadline(deadline), ops, data.size());
  if (!prefix.ok()) return prefix.status();
  std::vector<std::uint8_t> staging;
  const std::span<const std::uint8_t> body = wire_words(data, staging);
  const ConstBuffer parts[] = {{prefix.value().data(), prefix.value().size()},
                               {body.data(), body.size()}};
  // PROGRAM_OK carries the PERMUTE_OK layout.
  return roundtrip_into(MsgKind::kExecuteProgram, parts, out);
}

StatusOr<std::string> Client::stats_json() {
  StatusOr<FrameView> response = roundtrip(MsgKind::kStats, {});
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (is_error(frame)) return error_status(frame.payload);
  return std::string(frame.payload.begin(), frame.payload.end());
}

}  // namespace hmm::net
