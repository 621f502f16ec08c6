#pragma once
/// \file protocol.hpp
/// \brief The HMMP message layer on top of the framing in wire.hpp:
///        request/response kinds, payload schemas, and the 1:1 mapping
///        between `runtime::StatusCode` and wire error codes.
///
/// A connection is a sequence of strictly alternating request/response
/// frames (no pipelining in v1; see docs/PROTOCOL.md for the normative
/// spec). Eight request kinds cover the serving surface and the shard
/// exchange:
///
///   PING             liveness probe; the payload is echoed back verbatim
///   SUBMIT_PLAN      register a permutation mapping; returns a 64-bit
///                    plan id (the mapping's fingerprint) for later
///                    PERMUTE / EXECUTE_PROGRAM calls
///   PERMUTE          apply a registered plan to a payload of elements,
///                    under an optional relative deadline
///   EXECUTE_PROGRAM  apply an op *chain* (registered plans, their
///                    inverses, and parametric generators — see
///                    runtime/program.hpp) to a payload in one round
///                    trip; the server fuses the chain into a single
///                    composite plan
///   STATS            fetch the server's ServiceMetrics snapshot as JSON
///   SHARD_EXEC       coordinator -> shard: execute one band of a
///                    distributed PERMUTE (pack, one peer-to-peer
///                    exchange, merge)
///   SHARD_XCHG       shard -> shard: the one block a shard sends a peer
///                    in an exchange
///   SHARD_PLAN       coordinator -> shard: prime one shard with its
///                    band's pack and merge tables of a plan the
///                    coordinator compiled, so SHARD_EXEC runs with no
///                    compile
///
/// Every failure travels as an ERROR response whose code is the wire
/// image of the `runtime::Status` the serving stack produced — the
/// mapping is a bijection (tested as such), with one renaming:
/// `kResourceExhausted` appears on the wire as RETRY_LATER, because
/// from the client's seat an admission-control rejection is precisely
/// an invitation to back off and retry. A degradation-ladder fallback,
/// by contrast, is invisible here: a degraded execution still returns
/// PERMUTE_OK (the ladder exists so the wire contract can stay simple).
///
/// Payload schemas (all integers little-endian; each kind's one encoder
/// and one decoder are below, and its bytes are pinned by a golden
/// test, `NetProtocol.Golden*`):
///
///   SUBMIT_PLAN  req:  u64 n, u32 mapping[n]        (must be a bijection)
///   PLAN_OK      resp: u64 plan_id
///   PERMUTE      req:  u64 plan_id, u32 deadline_ms (0 = none),
///                      u32 elem_bytes (4 in v1), u64 count,
///                      u8 data[count * elem_bytes]
///   PERMUTE_OK   resp: u64 count, u8 data[count * elem_bytes]
///   EXECUTE_PROGRAM
///                req:  u32 deadline_ms (0 = none), u32 elem_bytes (4),
///                      u32 flags (all bits reserved; must be 0),
///                      u32 op_count (1..kMaxProgramOps),
///                      op_count x { u32 opcode, u32 reserved (0),
///                                   u64 arg },
///                      u64 count, u8 data[count * elem_bytes]
///                      (the data offset, 24 + 16*op_count, is a
///                      multiple of 8, so pooled payloads stay 4-byte
///                      aligned and decode in place)
///   PROGRAM_OK   resp: u64 count, u8 data[count * elem_bytes]
///                      (identical layout to PERMUTE_OK)
///   STATS_OK     resp: UTF-8 JSON bytes
///   SHARD_EXEC   req:  u32 version (3), u32 elem_bytes (4),
///                      u64 session_id, u64 plan_id, u32 deadline_ms,
///                      u32 shard_index, u32 shard_count (1..64),
///                      u32 reserved (0), u64 n (shard_count..2^32),
///                      shard_count x { u16 port, u16 host_len (1..255),
///                                      u8 host[host_len] },
///                      u8 pad[] (zeros, to an 8-byte boundary),
///                      u64 count, u8 data[count * elem_bytes]
///                      (the pad puts the band data on an 8-byte
///                      boundary so pooled payloads decode in place)
///   SHARD_EXEC_OK
///                resp: u64 count, u8 data[count * elem_bytes]
///                      (identical layout to PERMUTE_OK)
///   SHARD_XCHG   req:  u64 session_id, u32 reserved (0),
///                      u32 src_shard, u64 count (may be 0),
///                      u8 data[count * elem_bytes]
///   SHARD_XCHG_OK
///                resp: empty
///   SHARD_PLAN   req:  u64 plan_id, u32 shard_index,
///                      u32 shard_count (1..64), u64 n (shard_count..2^32),
///                      u64 send[shard_count], u64 recv[shard_count],
///                      u32 pack[band], u32 merge[band]
///                      (band = the shard's band of the even split of n;
///                      both tables start on 8-byte offsets)
///   SHARD_PLAN_OK
///                resp: empty
///   ERROR        resp: u32 code, UTF-8 message bytes

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.hpp"
#include "runtime/distributed.hpp"
#include "runtime/program.hpp"
#include "runtime/status.hpp"

namespace hmm::net {

/// Frame kinds. Responses set the high bit of the request they answer;
/// ERROR answers any request.
enum class MsgKind : std::uint16_t {
  kPing = 0x01,
  kSubmitPlan = 0x02,
  kPermute = 0x03,
  kStats = 0x04,
  kExecuteProgram = 0x05,
  kShardExec = 0x06,
  kShardXchg = 0x07,
  kShardPlan = 0x08,
  kPingOk = 0x81,
  kPlanOk = 0x82,
  kPermuteOk = 0x83,
  kStatsOk = 0x84,
  kProgramOk = 0x85,
  kShardExecOk = 0x86,
  kShardXchgOk = 0x87,
  kShardPlanOk = 0x88,
  kError = 0xff,
};

[[nodiscard]] std::string_view to_string(MsgKind kind) noexcept;
[[nodiscard]] bool is_request_kind(std::uint16_t kind) noexcept;

/// Wire error codes: the on-the-wire image of `runtime::StatusCode`.
/// Values are frozen by docs/PROTOCOL.md — append, never renumber.
enum class WireError : std::uint32_t {
  kOk = 0,
  kInvalidArgument = 1,
  kDeadlineExceeded = 2,
  kRetryLater = 3,  ///< admission bound / registry full; back off and retry
  kPlanBuildFailed = 4,
  kCancelled = 5,
  kUnavailable = 6,
};

[[nodiscard]] std::string_view to_string(WireError e) noexcept;

/// StatusCode -> wire code. Total: every StatusCode has a wire image.
[[nodiscard]] WireError to_wire(runtime::StatusCode code) noexcept;
/// Wire code -> StatusCode. Codes outside the enum map to kUnavailable
/// (a peer speaking a newer protocol is a transient condition here).
[[nodiscard]] runtime::StatusCode from_wire(std::uint32_t code) noexcept;

/// In v1 every PERMUTE element is a 4-byte word (the paper's kernels
/// move 32-bit elements; wider payloads are a protocol rev away).
inline constexpr std::uint32_t kElemBytes = 4;

/// Saturating conversion of a caller-side deadline into the u32
/// `deadline_ms` field of PERMUTE and EXECUTE_PROGRAM: negative -> 0 (no
/// deadline), > UINT32_MAX ms (~49.7 days) -> UINT32_MAX. A plain cast
/// would *wrap*, silently turning a huge "effectively no deadline"
/// budget into a tiny one.
[[nodiscard]] constexpr std::uint32_t clamp_deadline(
    std::chrono::milliseconds deadline) noexcept {
  if (deadline.count() <= 0) return 0;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  if (static_cast<std::uint64_t>(deadline.count()) >= kMax) return kMax;
  return static_cast<std::uint32_t>(deadline.count());
}

// --- Codecs ------------------------------------------------------------
// Each message kind has one encoder and one decoder. The encoder writes
// only the bytes before the element words, on the caller's stack where
// their size is fixed; the caller sends them and the borrowed words
// (`wire_words`) as `ConstBuffer` parts of one frame. The decoder is a
// view over the received payload: strict (a short field, trailing
// bytes, an out-of-range value each fail with a typed kInvalidArgument
// naming the kind, never an exception), and the element words stay
// borrowed — a view is valid only while the payload it decoded is. On
// a little-endian host with aligned storage the words are usable in
// place; the fallback is one bounded copy.

/// The wire (little-endian) bytes of `words`: their own memory on a
/// little-endian host, else a converted copy in `staging`.
[[nodiscard]] std::span<const std::uint8_t> wire_words(std::span<const std::uint32_t> words,
                                                       std::vector<std::uint8_t>& staging);

/// A decoded u32 element region.
struct WordsView {
  std::uint64_t count = 0;
  std::span<const std::uint8_t> bytes;  ///< count * kElemBytes, wire (LE) order

  /// The elements as a directly-usable span: non-empty only on a
  /// little-endian host when the wire bytes are 4-byte aligned (true
  /// for every request layout when the payload sits in pooled storage —
  /// see util::kBufferAlignment — since their element offsets are
  /// multiples of 4). Callers must handle the empty fallback.
  [[nodiscard]] std::span<const std::uint32_t> in_place() const noexcept {
    if constexpr (std::endian::native == std::endian::little) {
      if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(std::uint32_t) == 0) {
        return {reinterpret_cast<const std::uint32_t*>(bytes.data()), count};
      }
    }
    return {};
  }

  /// Decode the elements into caller storage (out.size() must be count).
  void copy_to(std::span<std::uint32_t> out) const noexcept;
};

/// The 8-byte head of SUBMIT_PLAN, PLAN_OK and the count-headed answers.
using Head8 = std::array<std::uint8_t, 8>;

/// SUBMIT_PLAN: `u64 n`, then the mapping's n words.
[[nodiscard]] Head8 encode_submit_plan(std::uint64_t n) noexcept;

struct SubmitPlanRequestView {
  WordsView mapping;

  [[nodiscard]] static runtime::StatusOr<SubmitPlanRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// PLAN_OK: the registered plan's id.
[[nodiscard]] Head8 encode_plan_ok(std::uint64_t plan_id) noexcept;
[[nodiscard]] runtime::StatusOr<std::uint64_t> decode_plan_ok(
    std::span<const std::uint8_t> payload);

/// PERMUTE's fields before its elements.
struct PermuteHeader {
  std::uint64_t plan_id = 0;
  std::uint32_t deadline_ms = 0;  ///< relative; 0 = no deadline (clamp_deadline)
};

/// PERMUTE: the 24 bytes before `count` element words.
[[nodiscard]] std::array<std::uint8_t, 24> encode_permute(const PermuteHeader& header,
                                                          std::uint64_t count) noexcept;

struct PermuteRequestView : PermuteHeader {
  WordsView data;

  [[nodiscard]] static runtime::StatusOr<PermuteRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// PERMUTE_OK, PROGRAM_OK and SHARD_EXEC_OK share one layout: `u64
/// count`, then the words. The coordinator gathers band answers
/// zero-copy and relays them scatter-gather instead of reassembling
/// the full array.
[[nodiscard]] Head8 encode_words_ok(std::uint64_t count) noexcept;

/// The count head of such an answer (`kind`) to a request of `expect`
/// elements, whose payload is `payload_len` bytes — the head alone
/// suffices when the words landed elsewhere (a PayloadSink). Strict:
/// a short head, a count of zero or other than `expect`, and a length
/// other than 8 + 4 * count are each a kInvalidArgument naming `kind`.
[[nodiscard]] runtime::Status decode_words_ok_head(MsgKind kind,
                                                   std::span<const std::uint8_t> head,
                                                   std::size_t payload_len,
                                                   std::uint64_t expect);

struct WordsResponseView {
  WordsView data;

  /// `decode_words_ok_head` over a whole payload, the words borrowed.
  [[nodiscard]] static runtime::StatusOr<WordsResponseView> decode(
      MsgKind kind, std::span<const std::uint8_t> payload, std::uint64_t expect);
};

// --- EXECUTE_PROGRAM -------------------------------------------------

/// Wire flags for EXECUTE_PROGRAM. Bits outside the mask are reserved
/// and must be zero (strictly rejected, so they stay available for
/// future revs). Every bit is reserved today.
inline constexpr std::uint32_t kProgramFlagsMask = 0;

/// The bytes of an EXECUTE_PROGRAM before its elements, on the stack:
/// the first `size()` of `bytes` (16 + 16 * ops + 8).
struct ProgramPrefix {
  std::array<std::uint8_t, 24 + 16 * runtime::kMaxProgramOps> bytes{};
  std::size_t len = 0;

  [[nodiscard]] const std::uint8_t* data() const noexcept { return bytes.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return len; }
};

/// EXECUTE_PROGRAM's prefix for `ops` over `count` elements, flags
/// zero. Refuses, as the decoder would, an empty op list or one over
/// runtime::kMaxProgramOps.
[[nodiscard]] runtime::StatusOr<ProgramPrefix> encode_execute_program(
    std::uint32_t deadline_ms, std::span<const runtime::ProgramOp> ops, std::uint64_t count);

/// EXECUTE_PROGRAM's decoder. The op list is small (<=
/// runtime::kMaxProgramOps) and is copied; only the element region is
/// borrowed. Unsupported element width, unknown flag bits, zero /
/// over-cap op counts, nonzero reserved op fields, and unknown opcodes
/// are all typed kInvalidArgument — nothing malformed survives to the
/// service layer.
struct ExecuteProgramRequestView {
  std::uint32_t deadline_ms = 0;
  std::vector<runtime::ProgramOp> ops;
  WordsView data;

  [[nodiscard]] static runtime::StatusOr<ExecuteProgramRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

// --- SHARD_EXEC / SHARD_XCHG / SHARD_PLAN ------------------------------
// Distributed permutation (docs/PROTOCOL.md §3.8): the coordinator
// splits a PERMUTE's n elements into bands and sends each shard its
// band via SHARD_EXEC; each shard packs its band, pushes one SHARD_XCHG
// block to every peer (keyed by session_id), and merges the blocks it
// receives.

/// SHARD_EXEC wire revision. Bumped only for incompatible changes to
/// the exchange; a shard strictly rejects versions it does not speak.
/// Revision 3 carries n where revision 2 carried the matrix's rows and
/// cols; revision 2 introduced the single exchange (revision 1 ran three
/// passes and two transpose rounds).
inline constexpr std::uint32_t kShardProtocolVersion = 3;

/// Bound on a peer hostname in the SHARD_EXEC peer table.
inline constexpr std::size_t kMaxShardHostLen = 255;

/// One entry of the SHARD_EXEC peer table. Entry `shard_index` is the
/// receiving shard itself (unused for sends, kept for symmetry).
struct ShardPeer {
  std::string host;
  std::uint16_t port = 0;
};

/// SHARD_EXEC's fields before its band.
struct ShardExecHeader {
  std::uint64_t session_id = 0;
  std::uint64_t plan_id = 0;
  std::uint32_t deadline_ms = 0;  ///< relative; 0 = none
  std::uint32_t shard_index = 0;
  std::uint64_t n = 0;            ///< elements of the full plan
  std::vector<ShardPeer> peers;   ///< size = shard_count, band order

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(peers.size());
  }
};

/// SHARD_EXEC: everything before the `count` band words (the u64 count
/// included), padded so the band lands on an 8-byte payload offset.
[[nodiscard]] std::vector<std::uint8_t> encode_shard_exec(const ShardExecHeader& header,
                                                          std::uint64_t count);

/// SHARD_EXEC's decoder: the peer table is small and copied, the band
/// bytes are borrowed (8-byte aligned by layout, so `band.in_place()`
/// succeeds on little-endian hosts).
struct ShardExecRequestView : ShardExecHeader {
  WordsView band;

  [[nodiscard]] static runtime::StatusOr<ShardExecRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// SHARD_XCHG's fields before its block: the one block `src_shard`
/// sends the receiver in an exchange.
struct ShardXchgHeader {
  std::uint64_t session_id = 0;
  std::uint32_t src_shard = 0;  ///< sender's shard index
};

/// SHARD_XCHG: the 24 bytes before `count` block words.
[[nodiscard]] std::array<std::uint8_t, 24> encode_shard_xchg(const ShardXchgHeader& header,
                                                             std::uint64_t count) noexcept;

/// SHARD_XCHG's decoder (block offset 24 — 8-byte aligned in pooled
/// storage, so the copy reads the block in place).
struct ShardXchgRequestView : ShardXchgHeader {
  WordsView block;

  [[nodiscard]] static runtime::StatusOr<ShardXchgRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// Bytes of a SHARD_PLAN payload before its two tables, for `shards`
/// shards.
[[nodiscard]] constexpr std::size_t shard_plan_header_bytes(std::uint32_t shards) noexcept {
  return 24 + 16 * std::size_t{shards};
}

/// SHARD_PLAN: those bytes for shard `shard` of `bands`, with its block
/// lengths. The pack and merge tables follow, 4 bytes per band element
/// each.
[[nodiscard]] std::vector<std::uint8_t> encode_shard_plan(std::uint64_t plan_id,
                                                          const runtime::BandPlan& bands,
                                                          std::uint32_t shard,
                                                          std::span<const std::uint64_t> send,
                                                          std::span<const std::uint64_t> recv);

/// SHARD_PLAN's decoder: one shard's part of a plan the coordinator
/// compiled — its block lengths and its pack and merge tables, copied
/// out because the shard keeps them. The plan id is the coordinator's
/// claim (a shard holds no mapping to check it against); what decode
/// guarantees is that the tables are safe to run: the header fields
/// are in range, the tables are exactly as long as the band geometry
/// says, and `runtime::BandExchange::from_tables` accepts them. Each
/// failure is a distinct kInvalidArgument.
struct ShardPlanRequest {
  std::uint64_t plan_id = 0;
  runtime::BandExchange band;

  [[nodiscard]] static runtime::StatusOr<ShardPlanRequest> decode(
      std::span<const std::uint8_t> payload);
};

/// What a SHARD_PLAN answer says: OK for SHARD_PLAN_OK, the typed
/// status of an ERROR frame, kUnavailable for anything else.
[[nodiscard]] runtime::Status shard_plan_outcome(std::uint16_t kind,
                                                 std::span<const std::uint8_t> payload);

struct ErrorResponse {
  std::uint32_t code = 0;  ///< a WireError value
  std::string message;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static runtime::StatusOr<ErrorResponse> decode(
      std::span<const std::uint8_t> payload);

  /// The Status a client surfaces for this error frame.
  [[nodiscard]] runtime::Status to_status() const;
};

/// The typed status an ERROR frame's payload carries; kUnavailable
/// when the payload is malformed.
[[nodiscard]] runtime::Status error_status(std::span<const std::uint8_t> payload);

/// Build an ERROR frame answering `request_id` from a serving Status.
[[nodiscard]] Frame make_error_frame(std::uint64_t request_id, const runtime::Status& status);

/// Build a success frame answering `request_id`. The payload is taken
/// by value and moved into the frame — no copy for callers that hand
/// over ownership.
[[nodiscard]] Frame make_ok_frame(std::uint64_t request_id, MsgKind kind,
                                  std::vector<std::uint8_t> payload);

}  // namespace hmm::net
