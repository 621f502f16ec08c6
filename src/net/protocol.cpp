#include "net/protocol.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

std::string_view to_string(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kPing: return "PING";
    case MsgKind::kSubmitPlan: return "SUBMIT_PLAN";
    case MsgKind::kPermute: return "PERMUTE";
    case MsgKind::kStats: return "STATS";
    case MsgKind::kExecuteProgram: return "EXECUTE_PROGRAM";
    case MsgKind::kShardExec: return "SHARD_EXEC";
    case MsgKind::kShardXchg: return "SHARD_XCHG";
    case MsgKind::kShardPlan: return "SHARD_PLAN";
    case MsgKind::kPingOk: return "PING_OK";
    case MsgKind::kPlanOk: return "PLAN_OK";
    case MsgKind::kPermuteOk: return "PERMUTE_OK";
    case MsgKind::kStatsOk: return "STATS_OK";
    case MsgKind::kProgramOk: return "PROGRAM_OK";
    case MsgKind::kShardExecOk: return "SHARD_EXEC_OK";
    case MsgKind::kShardXchgOk: return "SHARD_XCHG_OK";
    case MsgKind::kShardPlanOk: return "SHARD_PLAN_OK";
    case MsgKind::kError: return "ERROR";
  }
  return "UNKNOWN";
}

bool is_request_kind(std::uint16_t kind) noexcept {
  switch (static_cast<MsgKind>(kind)) {
    case MsgKind::kPing:
    case MsgKind::kSubmitPlan:
    case MsgKind::kPermute:
    case MsgKind::kStats:
    case MsgKind::kExecuteProgram:
    case MsgKind::kShardExec:
    case MsgKind::kShardXchg:
    case MsgKind::kShardPlan:
      return true;
    default:
      return false;
  }
}

std::string_view to_string(WireError e) noexcept {
  switch (e) {
    case WireError::kOk: return "OK";
    case WireError::kInvalidArgument: return "INVALID_ARGUMENT";
    case WireError::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireError::kRetryLater: return "RETRY_LATER";
    case WireError::kPlanBuildFailed: return "PLAN_BUILD_FAILED";
    case WireError::kCancelled: return "CANCELLED";
    case WireError::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

WireError to_wire(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return WireError::kOk;
    case StatusCode::kInvalidArgument: return WireError::kInvalidArgument;
    case StatusCode::kDeadlineExceeded: return WireError::kDeadlineExceeded;
    case StatusCode::kResourceExhausted: return WireError::kRetryLater;
    case StatusCode::kPlanBuildFailed: return WireError::kPlanBuildFailed;
    case StatusCode::kCancelled: return WireError::kCancelled;
    case StatusCode::kUnavailable: return WireError::kUnavailable;
  }
  return WireError::kUnavailable;
}

StatusCode from_wire(std::uint32_t code) noexcept {
  switch (static_cast<WireError>(code)) {
    case WireError::kOk: return StatusCode::kOk;
    case WireError::kInvalidArgument: return StatusCode::kInvalidArgument;
    case WireError::kDeadlineExceeded: return StatusCode::kDeadlineExceeded;
    case WireError::kRetryLater: return StatusCode::kResourceExhausted;
    case WireError::kPlanBuildFailed: return StatusCode::kPlanBuildFailed;
    case WireError::kCancelled: return StatusCode::kCancelled;
    case WireError::kUnavailable: return StatusCode::kUnavailable;
  }
  return StatusCode::kUnavailable;
}

namespace {

/// Little-endian store of `v` at `at`; returns the byte after it.
template <typename T>
std::uint8_t* put_le(std::uint8_t* at, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) *at++ = static_cast<std::uint8_t>(v >> (8 * i));
  return at;
}

Head8 head8(std::uint64_t v) noexcept {
  Head8 out;
  put_le(out.data(), v);
  return out;
}

Status invalid(std::string_view kind, std::string_view why) {
  return Status(StatusCode::kInvalidArgument, std::string(kind) + ": " + std::string(why));
}

/// Shared tail decoder for "u64 count + count u32 words" payloads; the
/// element bytes are borrowed. `max_elements` bounds the count before
/// any receiver sizes a buffer from it — a hostile header cannot make it
/// reserve count*4 bytes blindly.
StatusOr<WordsView> decode_words_view(ByteReader& r, std::uint64_t count,
                                      std::uint64_t max_elements, std::string_view kind) {
  if (count == 0) return invalid(kind, "empty element array");
  if (count > max_elements) return invalid(kind, "element count exceeds the receiver's limit");
  if (r.remaining() != count * kElemBytes) {
    return invalid(kind, "payload length does not match element count");
  }
  WordsView view;
  view.count = count;
  if (!r.get_bytes(count * kElemBytes, view.bytes)) return invalid(kind, "truncated elements");
  return view;
}

/// The element count of a SHARD_EXEC or SHARD_PLAN: every band needs an
/// element, and band tables hold u32 indexes. Each refusal is a
/// distinct kInvalidArgument.
Status check_elements(std::string_view kind, std::uint64_t n, std::uint32_t shard_count) {
  if (n == 0) return invalid(kind, "zero elements");
  if (n < shard_count) return invalid(kind, "fewer elements than shards");
  if (n > (1ull << 32)) return invalid(kind, "element count exceeds the 32-bit element index");
  return Status::ok();
}

}  // namespace

std::span<const std::uint8_t> wire_words(std::span<const std::uint32_t> words,
                                         std::vector<std::uint8_t>& staging) {
  if constexpr (std::endian::native == std::endian::little) {
    return {reinterpret_cast<const std::uint8_t*>(words.data()), words.size() * kElemBytes};
  }
  staging.resize(words.size() * kElemBytes);
  for (std::size_t i = 0; i < words.size(); ++i) put_le(&staging[i * kElemBytes], words[i]);
  return staging;
}

void WordsView::copy_to(std::span<std::uint32_t> out) const noexcept {
  if (out.size() != count || count == 0) return;  // a mismatch is a contract violation
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), bytes.data(), count * kElemBytes);
  } else {
    for (std::uint64_t i = 0; i < count; ++i) out[i] = util::load_le32(&bytes[i * kElemBytes]);
  }
}

Head8 encode_submit_plan(std::uint64_t n) noexcept { return head8(n); }

StatusOr<SubmitPlanRequestView> SubmitPlanRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  ByteReader r(payload);
  std::uint64_t n = 0;
  if (!r.get_u64(n)) return invalid("SUBMIT_PLAN", "truncated header");
  StatusOr<WordsView> words = decode_words_view(r, n, max_elements, "SUBMIT_PLAN");
  if (!words.ok()) return words.status();
  return SubmitPlanRequestView{words.value()};
}

Head8 encode_plan_ok(std::uint64_t plan_id) noexcept { return head8(plan_id); }

StatusOr<std::uint64_t> decode_plan_ok(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  std::uint64_t plan_id = 0;
  if (!r.get_u64(plan_id) || !r.exhausted()) {
    return invalid("PLAN_OK", "payload is not one u64 plan id");
  }
  return plan_id;
}

std::array<std::uint8_t, 24> encode_permute(const PermuteHeader& header,
                                            std::uint64_t count) noexcept {
  std::array<std::uint8_t, 24> out;
  std::uint8_t* at = put_le(out.data(), header.plan_id);
  at = put_le(at, header.deadline_ms);
  at = put_le(at, kElemBytes);
  put_le(at, count);
  return out;
}

StatusOr<PermuteRequestView> PermuteRequestView::decode(std::span<const std::uint8_t> payload,
                                                        std::uint64_t max_elements) {
  ByteReader r(payload);
  PermuteRequestView view;
  std::uint32_t elem_bytes = 0;
  std::uint64_t count = 0;
  if (!r.get_u64(view.plan_id) || !r.get_u32(view.deadline_ms) || !r.get_u32(elem_bytes) ||
      !r.get_u64(count)) {
    return invalid("PERMUTE", "truncated header");
  }
  if (elem_bytes != kElemBytes) {
    return invalid("PERMUTE", "unsupported element width (v1 speaks 4-byte elements)");
  }
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, "PERMUTE");
  if (!words.ok()) return words.status();
  view.data = words.value();
  return view;
}

Head8 encode_words_ok(std::uint64_t count) noexcept { return head8(count); }

Status decode_words_ok_head(MsgKind kind, std::span<const std::uint8_t> head,
                            std::size_t payload_len, std::uint64_t expect) {
  const std::string_view name = to_string(kind);
  if (head.size() < sizeof(Head8) || payload_len < sizeof(Head8)) {
    return invalid(name, "truncated header");
  }
  const std::uint64_t count = util::load_le64(head.data());
  if (count == 0) return invalid(name, "empty element array");
  if (count != expect) return invalid(name, "element count does not match the request");
  const std::size_t words_len = payload_len - sizeof(Head8);
  if (words_len % kElemBytes != 0 || words_len / kElemBytes != count) {
    return invalid(name, "payload length does not match element count");
  }
  return Status::ok();
}

StatusOr<WordsResponseView> WordsResponseView::decode(MsgKind kind,
                                                      std::span<const std::uint8_t> payload,
                                                      std::uint64_t expect) {
  Status head = decode_words_ok_head(kind, payload, payload.size(), expect);
  if (!head.is_ok()) return head;
  return WordsResponseView{WordsView{expect, payload.subspan(sizeof(Head8))}};
}

StatusOr<ProgramPrefix> encode_execute_program(std::uint32_t deadline_ms,
                                               std::span<const runtime::ProgramOp> ops,
                                               std::uint64_t count) {
  if (ops.empty()) return invalid("EXECUTE_PROGRAM", "empty program");
  if (ops.size() > runtime::kMaxProgramOps) {
    return invalid("EXECUTE_PROGRAM", "program op count exceeds the limit");
  }
  ProgramPrefix prefix;
  std::uint8_t* at = put_le(prefix.bytes.data(), deadline_ms);
  at = put_le(at, kElemBytes);
  at = put_le(at, std::uint32_t{0});  // flags: all reserved
  at = put_le(at, static_cast<std::uint32_t>(ops.size()));
  for (const runtime::ProgramOp& op : ops) {
    at = put_le(at, static_cast<std::uint32_t>(op.op));
    at = put_le(at, std::uint32_t{0});  // reserved
    at = put_le(at, op.arg);
  }
  at = put_le(at, count);
  prefix.len = static_cast<std::size_t>(at - prefix.bytes.data());
  return prefix;
}

StatusOr<ExecuteProgramRequestView> ExecuteProgramRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  constexpr std::string_view kKind = "EXECUTE_PROGRAM";
  ByteReader r(payload);
  ExecuteProgramRequestView view;
  std::uint32_t elem_bytes = 0;
  std::uint32_t flags = 0;
  std::uint32_t op_count = 0;
  if (!r.get_u32(view.deadline_ms) || !r.get_u32(elem_bytes) || !r.get_u32(flags) ||
      !r.get_u32(op_count)) {
    return invalid(kKind, "truncated header");
  }
  if (elem_bytes != kElemBytes) {
    return invalid(kKind, "unsupported element width (v1 speaks 4-byte elements)");
  }
  if ((flags & ~kProgramFlagsMask) != 0) {
    return invalid(kKind, "unknown flag bits (reserved bits must be zero)");
  }
  if (op_count == 0) return invalid(kKind, "empty program");
  if (op_count > runtime::kMaxProgramOps) {
    return invalid(kKind, "program op count exceeds the limit");
  }
  view.ops.reserve(op_count);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    std::uint32_t opcode = 0;
    std::uint32_t reserved = 0;
    std::uint64_t arg = 0;
    if (!r.get_u32(opcode) || !r.get_u32(reserved) || !r.get_u64(arg)) {
      return invalid(kKind, "truncated op list");
    }
    if (reserved != 0) return invalid(kKind, "reserved op field must be zero");
    if (!runtime::is_known_opcode(opcode)) return invalid(kKind, "unknown program opcode");
    view.ops.push_back(runtime::ProgramOp{static_cast<runtime::ProgramOpCode>(opcode), arg});
  }
  std::uint64_t count = 0;
  if (!r.get_u64(count)) return invalid(kKind, "truncated element count");
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, kKind);
  if (!words.ok()) return words.status();
  view.data = words.value();
  return view;
}

std::vector<std::uint8_t> encode_shard_exec(const ShardExecHeader& header,
                                            std::uint64_t count) {
  ByteWriter w;
  w.put_u32(kShardProtocolVersion);
  w.put_u32(kElemBytes);
  w.put_u64(header.session_id);
  w.put_u64(header.plan_id);
  w.put_u32(header.deadline_ms);
  w.put_u32(header.shard_index);
  w.put_u32(header.shard_count());
  w.put_u32(0);  // reserved
  w.put_u64(header.n);
  for (const ShardPeer& peer : header.peers) {
    w.put_u16(peer.port);
    w.put_u16(static_cast<std::uint16_t>(peer.host.size()));
    w.put_string(peer.host);
  }
  while (w.bytes().size() % 8 != 0) w.put_u8(0);
  w.put_u64(count);
  return w.take();
}

StatusOr<ShardExecRequestView> ShardExecRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  constexpr std::string_view kKind = "SHARD_EXEC";
  ByteReader r(payload);
  ShardExecRequestView view;
  std::uint32_t version = 0;
  std::uint32_t elem_bytes = 0;
  std::uint32_t shard_count = 0;
  std::uint32_t reserved = 0;
  if (!r.get_u32(version) || !r.get_u32(elem_bytes) || !r.get_u64(view.session_id) ||
      !r.get_u64(view.plan_id) || !r.get_u32(view.deadline_ms) ||
      !r.get_u32(view.shard_index) || !r.get_u32(shard_count) || !r.get_u32(reserved) ||
      !r.get_u64(view.n)) {
    return invalid(kKind, "truncated header");
  }
  if (version != kShardProtocolVersion) {
    return invalid(kKind, "unsupported shard protocol version");
  }
  if (elem_bytes != kElemBytes) {
    return invalid(kKind, "unsupported element width (v1 speaks 4-byte elements)");
  }
  if (reserved != 0) return invalid(kKind, "reserved field must be zero");
  if (shard_count == 0 || shard_count > runtime::kMaxShards) {
    return invalid(kKind, "shard count out of range");
  }
  if (view.shard_index >= shard_count) {
    return invalid(kKind, "shard index out of range for the shard count");
  }
  if (Status elements = check_elements(kKind, view.n, shard_count); !elements.is_ok()) {
    return elements;
  }
  view.peers.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    std::uint16_t port = 0;
    std::uint16_t host_len = 0;
    std::span<const std::uint8_t> host;
    if (!r.get_u16(port) || !r.get_u16(host_len) || !r.get_bytes(host_len, host)) {
      return invalid(kKind, "truncated peer table");
    }
    if (port == 0) return invalid(kKind, "peer port must be nonzero");
    if (host_len == 0 || host_len > kMaxShardHostLen) {
      return invalid(kKind, "peer host length out of range");
    }
    view.peers.push_back(
        ShardPeer{std::string(reinterpret_cast<const char*>(host.data()), host.size()), port});
  }
  const std::size_t pad = (8 - (payload.size() - r.remaining()) % 8) % 8;
  std::span<const std::uint8_t> pad_bytes;
  if (!r.get_bytes(pad, pad_bytes)) return invalid(kKind, "truncated padding");
  if (std::ranges::any_of(pad_bytes, [](std::uint8_t b) { return b != 0; })) {
    return invalid(kKind, "padding must be zero");
  }
  std::uint64_t count = 0;
  if (!r.get_u64(count)) return invalid(kKind, "truncated element count");
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, kKind);
  if (!words.ok()) return words.status();
  view.band = words.value();
  return view;
}

std::array<std::uint8_t, 24> encode_shard_xchg(const ShardXchgHeader& header,
                                               std::uint64_t count) noexcept {
  std::array<std::uint8_t, 24> out;
  std::uint8_t* at = put_le(out.data(), header.session_id);
  at = put_le(at, std::uint32_t{0});  // reserved
  at = put_le(at, header.src_shard);
  put_le(at, count);
  return out;
}

StatusOr<ShardXchgRequestView> ShardXchgRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  constexpr std::string_view kKind = "SHARD_XCHG";
  ByteReader r(payload);
  ShardXchgRequestView view;
  std::uint32_t reserved = 0;
  std::uint64_t count = 0;
  if (!r.get_u64(view.session_id) || !r.get_u32(reserved) || !r.get_u32(view.src_shard) ||
      !r.get_u64(count)) {
    return invalid(kKind, "truncated header");
  }
  // The reserved word held revision 1's round number, so a block from a
  // revision-1 peer is refused here.
  if (reserved != 0) return invalid(kKind, "reserved field must be zero");
  if (view.src_shard >= runtime::kMaxShards) return invalid(kKind, "source shard out of range");
  // A block may be empty (every peer gets one), but then nothing may
  // follow the header.
  if (count == 0) {
    if (r.remaining() != 0) return invalid(kKind, "bytes after an empty block");
    return view;
  }
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, kKind);
  if (!words.ok()) return words.status();
  view.block = words.value();
  return view;
}

std::vector<std::uint8_t> encode_shard_plan(std::uint64_t plan_id,
                                            const runtime::BandPlan& bands, std::uint32_t shard,
                                            std::span<const std::uint64_t> send,
                                            std::span<const std::uint64_t> recv) {
  ByteWriter w;
  w.put_u64(plan_id);
  w.put_u32(shard);
  w.put_u32(bands.shards());
  w.put_u64(bands.elements());
  for (const std::uint64_t c : send) w.put_u64(c);
  for (const std::uint64_t c : recv) w.put_u64(c);
  return w.take();
}

StatusOr<ShardPlanRequest> ShardPlanRequest::decode(std::span<const std::uint8_t> payload) {
  constexpr std::string_view kKind = "SHARD_PLAN";
  ByteReader r(payload);
  std::uint64_t plan_id = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t n = 0;
  if (!r.get_u64(plan_id) || !r.get_u32(shard_index) || !r.get_u32(shard_count) ||
      !r.get_u64(n)) {
    return invalid(kKind, "truncated header");
  }
  if (shard_count == 0 || shard_count > runtime::kMaxShards) {
    return invalid(kKind, "shard count out of range");
  }
  if (shard_index >= shard_count) {
    return invalid(kKind, "shard index out of range for the shard count");
  }
  if (Status elements = check_elements(kKind, n, shard_count); !elements.is_ok()) {
    return elements;
  }
  StatusOr<runtime::BandPlan> bands = runtime::BandPlan::build(n, shard_count);
  if (!bands.ok()) return bands.status();
  runtime::BandExchange::Counts send(shard_count);
  runtime::BandExchange::Counts recv(shard_count);
  for (runtime::BandExchange::Counts* counts : {&send, &recv}) {
    for (std::uint64_t& c : *counts) {
      if (!r.get_u64(c)) return invalid(kKind, "truncated block lengths");
    }
  }
  const std::uint64_t band = bands.value().band_elements(shard_index);
  if (r.remaining() != 2 * band * sizeof(std::uint32_t)) {
    return invalid(kKind, "table bytes do not match the band geometry");
  }
  runtime::BandExchange::Table pack(band);
  runtime::BandExchange::Table merge(band);
  for (runtime::BandExchange::Table* table : {&pack, &merge}) {
    std::span<const std::uint8_t> bytes;
    (void)r.get_bytes(band * sizeof(std::uint32_t), bytes);
    WordsView{band, bytes}.copy_to(*table);
  }
  StatusOr<runtime::BandExchange> adopted = runtime::BandExchange::from_tables(
      std::move(bands).value(), shard_index, std::move(send), std::move(recv), std::move(pack),
      std::move(merge));
  if (!adopted.ok()) return invalid(kKind, adopted.status().message());
  return ShardPlanRequest{plan_id, std::move(adopted).value()};
}

Status shard_plan_outcome(std::uint16_t kind, std::span<const std::uint8_t> payload) {
  if (static_cast<MsgKind>(kind) == MsgKind::kShardPlanOk) return Status::ok();
  if (static_cast<MsgKind>(kind) == MsgKind::kError) return error_status(payload);
  return Status(StatusCode::kUnavailable, "shard sent an unexpected SHARD_PLAN answer");
}

Status error_status(std::span<const std::uint8_t> payload) {
  StatusOr<ErrorResponse> err = ErrorResponse::decode(payload);
  return err.ok() ? err.value().to_status()
                  : Status(StatusCode::kUnavailable, "malformed ERROR frame");
}

std::vector<std::uint8_t> ErrorResponse::encode() const {
  // Sized up front: the code and the message are all the payload.
  std::vector<std::uint8_t> out(sizeof(std::uint32_t) + message.size());
  for (std::size_t i = 0; i < sizeof(std::uint32_t); ++i) {
    out[i] = static_cast<std::uint8_t>(code >> (8 * i));
  }
  std::copy(message.begin(), message.end(), out.begin() + sizeof(std::uint32_t));
  return out;
}

StatusOr<ErrorResponse> ErrorResponse::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ErrorResponse resp;
  if (!r.get_u32(resp.code)) {
    return Status(StatusCode::kInvalidArgument, "ERROR: truncated code");
  }
  resp.message = r.rest_as_string();
  return resp;
}

Status ErrorResponse::to_status() const {
  const StatusCode sc = from_wire(code);
  if (sc == StatusCode::kOk) {
    // An ERROR frame claiming OK is itself a protocol violation.
    return Status(StatusCode::kUnavailable, "peer sent an ERROR frame with code OK");
  }
  return Status(sc, message);
}

Frame make_ok_frame(std::uint64_t request_id, MsgKind kind, std::vector<std::uint8_t> payload) {
  Frame f;
  f.kind = static_cast<std::uint16_t>(kind);
  f.request_id = request_id;
  f.payload = std::move(payload);
  return f;
}

Frame make_error_frame(std::uint64_t request_id, const Status& status) {
  ErrorResponse err;
  err.code = static_cast<std::uint32_t>(to_wire(status.code()));
  err.message = status.message();
  Frame f;
  f.kind = static_cast<std::uint16_t>(MsgKind::kError);
  f.request_id = request_id;
  f.payload = err.encode();
  return f;
}

}  // namespace hmm::net
