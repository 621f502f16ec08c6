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

/// Shared tail decoder for "u64 count + count u32 words" payloads; the
/// element bytes are borrowed. `max_elements` bounds the count before
/// any receiver sizes a buffer from it — a hostile header cannot make it
/// reserve count*4 bytes blindly.
StatusOr<WordsView> decode_words_view(ByteReader& r, std::uint64_t count,
                                      std::uint64_t max_elements, std::string_view what) {
  if (count == 0) {
    return Status(StatusCode::kInvalidArgument, std::string(what) + ": empty element array");
  }
  if (count > max_elements) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(what) + ": element count exceeds the receiver's limit");
  }
  if (r.remaining() != count * kElemBytes) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(what) + ": payload length does not match element count");
  }
  WordsView view;
  view.count = count;
  if (!r.get_bytes(count * kElemBytes, view.bytes)) {
    return Status(StatusCode::kInvalidArgument, std::string(what) + ": truncated elements");
  }
  return view;
}

/// The owning decoders are the view decoders plus one copy.
std::vector<std::uint32_t> to_vector(const WordsView& words) {
  std::vector<std::uint32_t> out(words.count);
  words.copy_to(out);
  return out;
}

}  // namespace

void WordsView::copy_to(std::span<std::uint32_t> out) const noexcept {
  if (out.size() != count || count == 0) return;  // a mismatch is a contract violation
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), bytes.data(), count * kElemBytes);
  } else {
    for (std::uint64_t i = 0; i < count; ++i) out[i] = util::load_le32(&bytes[i * kElemBytes]);
  }
}

std::vector<std::uint8_t> SubmitPlanRequest::encode() const {
  ByteWriter w;
  w.put_u64(mapping.size());
  w.put_u32_span(mapping);
  return w.take();
}

StatusOr<SubmitPlanRequest> SubmitPlanRequest::decode(std::span<const std::uint8_t> payload,
                                                      std::uint64_t max_elements) {
  StatusOr<SubmitPlanRequestView> view = SubmitPlanRequestView::decode(payload, max_elements);
  if (!view.ok()) return view.status();
  return SubmitPlanRequest{to_vector(view.value().mapping)};
}

StatusOr<SubmitPlanRequestView> SubmitPlanRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  ByteReader r(payload);
  std::uint64_t n = 0;
  if (!r.get_u64(n)) {
    return Status(StatusCode::kInvalidArgument, "SUBMIT_PLAN: truncated header");
  }
  StatusOr<WordsView> words = decode_words_view(r, n, max_elements, "SUBMIT_PLAN");
  if (!words.ok()) return words.status();
  SubmitPlanRequestView view;
  view.mapping = words.value();
  return view;
}

std::vector<std::uint8_t> PermuteRequest::encode() const {
  ByteWriter w;
  w.put_u64(plan_id);
  w.put_u32(deadline_ms);
  w.put_u32(kElemBytes);
  w.put_u64(data.size());
  w.put_u32_span(data);
  return w.take();
}

StatusOr<PermuteRequest> PermuteRequest::decode(std::span<const std::uint8_t> payload,
                                                std::uint64_t max_elements) {
  StatusOr<PermuteRequestView> view = PermuteRequestView::decode(payload, max_elements);
  if (!view.ok()) return view.status();
  return PermuteRequest{view.value().plan_id, view.value().deadline_ms,
                        to_vector(view.value().data)};
}

StatusOr<PermuteRequestView> PermuteRequestView::decode(std::span<const std::uint8_t> payload,
                                                        std::uint64_t max_elements) {
  ByteReader r(payload);
  PermuteRequestView view;
  std::uint32_t elem_bytes = 0;
  std::uint64_t count = 0;
  if (!r.get_u64(view.plan_id) || !r.get_u32(view.deadline_ms) || !r.get_u32(elem_bytes) ||
      !r.get_u64(count)) {
    return Status(StatusCode::kInvalidArgument, "PERMUTE: truncated header");
  }
  if (elem_bytes != kElemBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "PERMUTE: unsupported element width (v1 speaks 4-byte elements)");
  }
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, "PERMUTE");
  if (!words.ok()) return words.status();
  view.data = words.value();
  return view;
}

std::vector<std::uint8_t> PermuteResponse::encode() const {
  ByteWriter w;
  w.put_u64(data.size());
  w.put_u32_span(data);
  return w.take();
}

StatusOr<PermuteResponse> PermuteResponse::decode(std::span<const std::uint8_t> payload,
                                                  std::uint64_t max_elements) {
  StatusOr<WordsResponseView> view = WordsResponseView::decode(payload, max_elements);
  if (!view.ok()) return view.status();
  return PermuteResponse{to_vector(view.value().data)};
}

namespace {

/// The element count of a SHARD_EXEC or SHARD_PLAN: every band needs an
/// element, and band tables hold u32 indexes. Each refusal is a
/// distinct kInvalidArgument.
Status check_elements(const char* kind, std::uint64_t n, std::uint32_t shard_count) {
  const auto invalid = [kind](const char* why) {
    return Status(StatusCode::kInvalidArgument, std::string(kind) + ": " + why);
  };
  if (n == 0) return invalid("zero elements");
  if (n < shard_count) return invalid("fewer elements than shards");
  if (n > (1ull << 32)) return invalid("element count exceeds the 32-bit element index");
  return Status::ok();
}

/// Shared SHARD_EXEC prefix decoder: fixed header, peer table, and the
/// zero padding that puts the band on an 8-byte payload offset. On
/// success `count_out` holds the band element count and `r` sits at the
/// first band byte. Strict: every malformed field is a typed
/// kInvalidArgument.
Status decode_shard_exec_prefix(ByteReader& r, std::size_t payload_len,
                                std::uint64_t& session_id, std::uint64_t& plan_id,
                                std::uint32_t& deadline_ms, std::uint32_t& shard_index,
                                std::uint64_t& n, std::vector<ShardPeer>& peers,
                                std::uint64_t& count_out) {
  std::uint32_t version = 0;
  std::uint32_t elem_bytes = 0;
  std::uint32_t shard_count = 0;
  std::uint32_t reserved = 0;
  if (!r.get_u32(version) || !r.get_u32(elem_bytes) || !r.get_u64(session_id) ||
      !r.get_u64(plan_id) || !r.get_u32(deadline_ms) || !r.get_u32(shard_index) ||
      !r.get_u32(shard_count) || !r.get_u32(reserved) || !r.get_u64(n)) {
    return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: truncated header");
  }
  if (version != kShardProtocolVersion) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_EXEC: unsupported shard protocol version");
  }
  if (elem_bytes != kElemBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_EXEC: unsupported element width (v1 speaks 4-byte elements)");
  }
  if (reserved != 0) {
    return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: reserved field must be zero");
  }
  if (shard_count == 0 || shard_count > runtime::kMaxShards) {
    return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: shard count out of range");
  }
  if (shard_index >= shard_count) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_EXEC: shard index out of range for the shard count");
  }
  if (Status elements = check_elements("SHARD_EXEC", n, shard_count); !elements.is_ok()) {
    return elements;
  }
  peers.clear();
  peers.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    std::uint16_t port = 0;
    std::uint16_t host_len = 0;
    std::span<const std::uint8_t> host;
    if (!r.get_u16(port) || !r.get_u16(host_len) ||
        !r.get_bytes(host_len, host)) {
      return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: truncated peer table");
    }
    if (port == 0) {
      return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: peer port must be nonzero");
    }
    if (host_len == 0 || host_len > kMaxShardHostLen) {
      return Status(StatusCode::kInvalidArgument,
                    "SHARD_EXEC: peer host length out of range");
    }
    peers.push_back(ShardPeer{
        std::string(reinterpret_cast<const char*>(host.data()), host.size()), port});
  }
  const std::size_t consumed = payload_len - r.remaining();
  const std::size_t pad = (8 - consumed % 8) % 8;
  std::span<const std::uint8_t> pad_bytes;
  if (!r.get_bytes(pad, pad_bytes)) {
    return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: truncated padding");
  }
  for (std::uint8_t b : pad_bytes) {
    if (b != 0) {
      return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: padding must be zero");
    }
  }
  if (!r.get_u64(count_out)) {
    return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: truncated element count");
  }
  return Status::ok();
}

/// Everything of a SHARD_EXEC frame before the band bytes.
std::vector<std::uint8_t> encode_shard_exec_prefix(
    std::uint64_t session_id, std::uint64_t plan_id, std::uint32_t deadline_ms,
    std::uint32_t shard_index, std::uint64_t n, std::span<const ShardPeer> peers,
    std::uint64_t count) {
  ByteWriter w;
  w.put_u32(kShardProtocolVersion);
  w.put_u32(kElemBytes);
  w.put_u64(session_id);
  w.put_u64(plan_id);
  w.put_u32(deadline_ms);
  w.put_u32(shard_index);
  w.put_u32(static_cast<std::uint32_t>(peers.size()));
  w.put_u32(0);  // reserved
  w.put_u64(n);
  std::size_t offset = 48;
  for (const ShardPeer& peer : peers) {
    w.put_u16(peer.port);
    w.put_u16(static_cast<std::uint16_t>(peer.host.size()));
    w.put_string(peer.host);
    offset += 4 + peer.host.size();
  }
  const std::size_t pad = (8 - offset % 8) % 8;
  for (std::size_t i = 0; i < pad; ++i) w.put_u8(0);
  w.put_u64(count);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> ShardExecRequest::encode() const {
  std::vector<std::uint8_t> out = encode_prefix(band.size());
  ByteWriter w;
  w.put_u32_span(band);
  std::vector<std::uint8_t> data = w.take();
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

std::vector<std::uint8_t> ShardExecRequest::encode_prefix(std::uint64_t count) const {
  return encode_shard_exec_prefix(session_id, plan_id, deadline_ms, shard_index, n, peers,
                                  count);
}

StatusOr<ShardExecRequest> ShardExecRequest::decode(std::span<const std::uint8_t> payload,
                                                    std::uint64_t max_elements) {
  StatusOr<ShardExecRequestView> view = ShardExecRequestView::decode(payload, max_elements);
  if (!view.ok()) return view.status();
  const ShardExecRequestView& v = view.value();
  return ShardExecRequest{v.session_id, v.plan_id, v.deadline_ms, v.shard_index,
                          v.n,          v.peers,   to_vector(v.band)};
}

StatusOr<ShardExecRequestView> ShardExecRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  ByteReader r(payload);
  ShardExecRequestView view;
  std::uint64_t count = 0;
  Status prefix = decode_shard_exec_prefix(r, payload.size(), view.session_id, view.plan_id,
                                           view.deadline_ms, view.shard_index, view.n,
                                           view.peers, count);
  if (!prefix.is_ok()) return prefix;
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, "SHARD_EXEC");
  if (!words.ok()) return words.status();
  view.band = words.value();
  return view;
}

std::vector<std::uint8_t> ShardXchgRequest::encode() const {
  std::vector<std::uint8_t> out = encode_prefix(block.size());
  ByteWriter w;
  w.put_u32_span(block);
  std::vector<std::uint8_t> data = w.take();
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

std::vector<std::uint8_t> ShardXchgRequest::encode_prefix(std::uint64_t count) const {
  ByteWriter w;
  w.put_u64(session_id);
  w.put_u32(0);  // reserved
  w.put_u32(src_shard);
  w.put_u64(count);
  return w.take();
}

namespace {

/// Shared SHARD_XCHG header decoder; `r` then sits at the first block
/// byte. The reserved word holds revision 1's round number, so a block
/// from a revision-1 peer is refused here. A block may be empty (every
/// peer gets one), but then nothing may follow the header.
Status decode_xchg_header(ByteReader& r, std::uint64_t& session_id, std::uint32_t& src_shard,
                          std::uint64_t& count) {
  std::uint32_t reserved = 0;
  if (!r.get_u64(session_id) || !r.get_u32(reserved) || !r.get_u32(src_shard) ||
      !r.get_u64(count)) {
    return Status(StatusCode::kInvalidArgument, "SHARD_XCHG: truncated header");
  }
  if (reserved != 0) {
    return Status(StatusCode::kInvalidArgument, "SHARD_XCHG: reserved field must be zero");
  }
  if (src_shard >= runtime::kMaxShards) {
    return Status(StatusCode::kInvalidArgument, "SHARD_XCHG: source shard out of range");
  }
  if (count == 0 && r.remaining() != 0) {
    return Status(StatusCode::kInvalidArgument, "SHARD_XCHG: bytes after an empty block");
  }
  return Status::ok();
}

}  // namespace

StatusOr<ShardXchgRequest> ShardXchgRequest::decode(std::span<const std::uint8_t> payload,
                                                    std::uint64_t max_elements) {
  StatusOr<ShardXchgRequestView> view = ShardXchgRequestView::decode(payload, max_elements);
  if (!view.ok()) return view.status();
  return ShardXchgRequest{view.value().session_id, view.value().src_shard,
                          to_vector(view.value().block)};
}

StatusOr<ShardXchgRequestView> ShardXchgRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  ByteReader r(payload);
  ShardXchgRequestView view;
  std::uint64_t count = 0;
  if (Status header = decode_xchg_header(r, view.session_id, view.src_shard, count);
      !header.is_ok()) {
    return header;
  }
  if (count > 0) {
    StatusOr<WordsView> words = decode_words_view(r, count, max_elements, "SHARD_XCHG");
    if (!words.ok()) return words.status();
    view.block = words.value();
  }
  return view;
}

std::vector<std::uint8_t> ShardPlanRequest::encode_header(std::uint64_t plan_id,
                                                          const runtime::BandPlan& bands,
                                                          std::uint32_t shard,
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

std::vector<std::uint8_t> ShardPlanRequest::encode() const {
  ByteWriter w;
  w.put_bytes(encode_header(plan_id, band.bands(), band.shard(), band.send(), band.recv()));
  w.put_u32_span(band.pack());
  w.put_u32_span(band.merge());
  return w.take();
}

StatusOr<ShardPlanRequest> ShardPlanRequest::decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  std::uint64_t plan_id = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t n = 0;
  if (!r.get_u64(plan_id) || !r.get_u32(shard_index) || !r.get_u32(shard_count) ||
      !r.get_u64(n)) {
    return Status(StatusCode::kInvalidArgument, "SHARD_PLAN: truncated header");
  }
  if (shard_count == 0 || shard_count > runtime::kMaxShards) {
    return Status(StatusCode::kInvalidArgument, "SHARD_PLAN: shard count out of range");
  }
  if (shard_index >= shard_count) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_PLAN: shard index out of range for the shard count");
  }
  if (Status elements = check_elements("SHARD_PLAN", n, shard_count); !elements.is_ok()) {
    return elements;
  }
  StatusOr<runtime::BandPlan> bands = runtime::BandPlan::build(n, shard_count);
  if (!bands.ok()) return bands.status();
  runtime::BandExchange::Counts send(shard_count);
  runtime::BandExchange::Counts recv(shard_count);
  for (runtime::BandExchange::Counts* counts : {&send, &recv}) {
    for (std::uint64_t& c : *counts) {
      if (!r.get_u64(c)) {
        return Status(StatusCode::kInvalidArgument, "SHARD_PLAN: truncated block lengths");
      }
    }
  }
  const std::uint64_t band = bands.value().band_elements(shard_index);
  if (r.remaining() != 2 * band * sizeof(std::uint32_t)) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_PLAN: table bytes do not match the band geometry");
  }
  runtime::BandExchange::Table pack(band);
  runtime::BandExchange::Table merge(band);
  for (runtime::BandExchange::Table* table : {&pack, &merge}) {
    if constexpr (std::endian::native == std::endian::little) {
      std::span<const std::uint8_t> bytes;
      (void)r.get_bytes(band * sizeof(std::uint32_t), bytes);
      std::memcpy(table->data(), bytes.data(), bytes.size());
    } else {
      for (std::uint32_t& v : *table) (void)r.get_u32(v);
    }
  }
  StatusOr<runtime::BandExchange> adopted = runtime::BandExchange::from_tables(
      std::move(bands).value(), shard_index, std::move(send), std::move(recv), std::move(pack),
      std::move(merge));
  if (!adopted.ok()) {
    return Status(StatusCode::kInvalidArgument, "SHARD_PLAN: " + adopted.status().message());
  }
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

StatusOr<WordsResponseView> WordsResponseView::decode(std::span<const std::uint8_t> payload,
                                                      std::uint64_t max_elements) {
  ByteReader r(payload);
  std::uint64_t count = 0;
  if (!r.get_u64(count)) {
    return Status(StatusCode::kInvalidArgument, "PERMUTE_OK: truncated header");
  }
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, "PERMUTE_OK");
  if (!words.ok()) return words.status();
  WordsResponseView view;
  view.data = words.value();
  return view;
}

namespace {

/// Shared EXECUTE_PROGRAM prefix decoder: everything before the element
/// region. On success `count_out` holds the wire element count and `r`
/// sits at the first element byte. Strict: any malformed field is a
/// typed kInvalidArgument, never an exception or a partial decode.
Status decode_program_prefix(ByteReader& r, std::uint32_t& deadline_ms, std::uint32_t& flags,
                             std::vector<runtime::ProgramOp>& ops, std::uint64_t& count_out) {
  std::uint32_t elem_bytes = 0;
  std::uint32_t op_count = 0;
  if (!r.get_u32(deadline_ms) || !r.get_u32(elem_bytes) || !r.get_u32(flags) ||
      !r.get_u32(op_count)) {
    return Status(StatusCode::kInvalidArgument, "EXECUTE_PROGRAM: truncated header");
  }
  if (elem_bytes != kElemBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "EXECUTE_PROGRAM: unsupported element width (v1 speaks 4-byte elements)");
  }
  if ((flags & ~kProgramFlagsMask) != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "EXECUTE_PROGRAM: unknown flag bits (reserved bits must be zero)");
  }
  if (op_count == 0) {
    return Status(StatusCode::kInvalidArgument, "EXECUTE_PROGRAM: empty program");
  }
  if (op_count > runtime::kMaxProgramOps) {
    return Status(StatusCode::kInvalidArgument,
                  "EXECUTE_PROGRAM: program op count exceeds the limit");
  }
  ops.clear();
  ops.reserve(op_count);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    std::uint32_t opcode = 0;
    std::uint32_t reserved = 0;
    std::uint64_t arg = 0;
    if (!r.get_u32(opcode) || !r.get_u32(reserved) || !r.get_u64(arg)) {
      return Status(StatusCode::kInvalidArgument, "EXECUTE_PROGRAM: truncated op list");
    }
    if (reserved != 0) {
      return Status(StatusCode::kInvalidArgument,
                    "EXECUTE_PROGRAM: reserved op field must be zero");
    }
    if (!runtime::is_known_opcode(opcode)) {
      return Status(StatusCode::kInvalidArgument, "EXECUTE_PROGRAM: unknown program opcode");
    }
    ops.push_back(runtime::ProgramOp{static_cast<runtime::ProgramOpCode>(opcode), arg});
  }
  if (!r.get_u64(count_out)) {
    return Status(StatusCode::kInvalidArgument, "EXECUTE_PROGRAM: truncated element count");
  }
  return Status::ok();
}

}  // namespace

std::vector<std::uint8_t> ExecuteProgramRequest::encode() const {
  ByteWriter w;
  w.put_u32(deadline_ms);
  w.put_u32(kElemBytes);
  w.put_u32(flags);
  w.put_u32(static_cast<std::uint32_t>(ops.size()));
  for (const runtime::ProgramOp& op : ops) {
    w.put_u32(static_cast<std::uint32_t>(op.op));
    w.put_u32(0);  // reserved
    w.put_u64(op.arg);
  }
  w.put_u64(data.size());
  w.put_u32_span(data);
  return w.take();
}

StatusOr<ExecuteProgramRequest> ExecuteProgramRequest::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  StatusOr<ExecuteProgramRequestView> view =
      ExecuteProgramRequestView::decode(payload, max_elements);
  if (!view.ok()) return view.status();
  return ExecuteProgramRequest{view.value().deadline_ms, view.value().flags, view.value().ops,
                               to_vector(view.value().data)};
}

StatusOr<ExecuteProgramRequestView> ExecuteProgramRequestView::decode(
    std::span<const std::uint8_t> payload, std::uint64_t max_elements) {
  ByteReader r(payload);
  ExecuteProgramRequestView view;
  std::uint64_t count = 0;
  Status prefix = decode_program_prefix(r, view.deadline_ms, view.flags, view.ops, count);
  if (!prefix.is_ok()) return prefix;
  StatusOr<WordsView> words = decode_words_view(r, count, max_elements, "EXECUTE_PROGRAM");
  if (!words.ok()) return words.status();
  view.data = words.value();
  return view;
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
