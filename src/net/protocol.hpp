#pragma once
/// \file protocol.hpp
/// \brief The HMMP message layer on top of the framing in wire.hpp:
///        request/response kinds, payload schemas, and the 1:1 mapping
///        between `runtime::StatusCode` and wire error codes.
///
/// A connection is a sequence of strictly alternating request/response
/// frames (no pipelining in v1; see docs/PROTOCOL.md for the normative
/// spec). Four request kinds cover the serving surface:
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
/// Payload schemas (all integers little-endian; see ByteWriter/Reader):
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

// --- Typed payloads -------------------------------------------------
// Each request/response payload gets an encode() producing the frame
// payload bytes and a decode() that is strict: trailing garbage, short
// fields, and out-of-range values all fail with a reason. decode()
// never throws on malformed input.

struct SubmitPlanRequest {
  std::vector<std::uint32_t> mapping;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static runtime::StatusOr<SubmitPlanRequest> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

struct PermuteRequest {
  std::uint64_t plan_id = 0;
  std::uint32_t deadline_ms = 0;  ///< relative; 0 = no deadline
  std::vector<std::uint32_t> data;

  /// Saturating conversion of a caller-side deadline into the u32 wire
  /// field: negative -> 0 (no deadline), > UINT32_MAX ms (~49.7 days)
  /// -> UINT32_MAX. A plain cast would *wrap*, silently turning a huge
  /// "effectively no deadline" budget into a tiny one.
  [[nodiscard]] static std::uint32_t clamp_deadline(std::chrono::milliseconds deadline) noexcept {
    if (deadline.count() <= 0) return 0;
    constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
    if (static_cast<std::uint64_t>(deadline.count()) >= kMax) return kMax;
    return static_cast<std::uint32_t>(deadline.count());
  }

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static runtime::StatusOr<PermuteRequest> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

struct PermuteResponse {
  std::vector<std::uint32_t> data;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static runtime::StatusOr<PermuteResponse> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

// --- Borrowing payload views ----------------------------------------
// The serving hot path decodes requests from a pooled, connection-owned
// buffer (see read_frame_view). These views validate the payload with
// the same strictness as their owning decode() counterparts but borrow
// the element bytes instead of copying them — on a little-endian host
// with aligned storage the element array is usable in place, and the
// fallback is one bounded copy. A view is valid only while the payload
// buffer it was decoded from is.

/// Decoded u32 element region common to SUBMIT_PLAN and PERMUTE.
struct WordsView {
  std::uint64_t count = 0;
  std::span<const std::uint8_t> bytes;  ///< count * kElemBytes, wire (LE) order

  /// The elements as a directly-usable span: non-empty only on a
  /// little-endian host when the wire bytes are 4-byte aligned (true
  /// for both request layouts when the payload sits in pooled storage —
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

struct SubmitPlanRequestView {
  WordsView mapping;

  [[nodiscard]] static runtime::StatusOr<SubmitPlanRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

struct PermuteRequestView {
  std::uint64_t plan_id = 0;
  std::uint32_t deadline_ms = 0;
  WordsView data;

  [[nodiscard]] static runtime::StatusOr<PermuteRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

// --- SHARD_EXEC / SHARD_XCHG -----------------------------------------
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

/// Owning SHARD_EXEC request. The coordinator hot path encodes with
/// `encode_prefix` + a borrowed band part (scatter-gather send); the
/// owning `encode`/`decode` pair serves tests and non-pooled callers.
struct ShardExecRequest {
  std::uint64_t session_id = 0;
  std::uint64_t plan_id = 0;
  std::uint32_t deadline_ms = 0;  ///< relative; 0 = none
  std::uint32_t shard_index = 0;
  std::uint64_t n = 0;            ///< elements of the full plan
  std::vector<ShardPeer> peers;  ///< size = shard_count, band order
  std::vector<std::uint32_t> band;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Everything before the band bytes (including the u64 count), padded
  /// so the band lands on an 8-byte payload offset.
  [[nodiscard]] std::vector<std::uint8_t> encode_prefix(std::uint64_t count) const;
  [[nodiscard]] static runtime::StatusOr<ShardExecRequest> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// Borrowing decode of SHARD_EXEC: the peer table is small and copied,
/// the band bytes are borrowed from the pooled payload (8-byte aligned
/// by layout, so `band.in_place()` succeeds on little-endian hosts).
struct ShardExecRequestView {
  std::uint64_t session_id = 0;
  std::uint64_t plan_id = 0;
  std::uint32_t deadline_ms = 0;
  std::uint32_t shard_index = 0;
  std::uint64_t n = 0;
  std::vector<ShardPeer> peers;
  WordsView band;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(peers.size());
  }

  [[nodiscard]] static runtime::StatusOr<ShardExecRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// Owning SHARD_XCHG request (the one block `src_shard` sends the
/// receiver in an exchange).
struct ShardXchgRequest {
  std::uint64_t session_id = 0;
  std::uint32_t src_shard = 0;  ///< sender's shard index
  std::vector<std::uint32_t> block;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// The 24-byte header before the block bytes (scatter-gather send).
  [[nodiscard]] std::vector<std::uint8_t> encode_prefix(std::uint64_t count) const;
  [[nodiscard]] static runtime::StatusOr<ShardXchgRequest> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// Borrowing decode of SHARD_XCHG (block offset 24 — 8-byte aligned in
/// pooled storage, so the copy reads the block in place).
struct ShardXchgRequestView {
  std::uint64_t session_id = 0;
  std::uint32_t src_shard = 0;
  WordsView block;

  [[nodiscard]] static runtime::StatusOr<ShardXchgRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// SHARD_PLAN: one shard's part of a plan the coordinator compiled —
/// its block lengths and its pack and merge tables, 8 bytes per band
/// element. The plan id is the coordinator's claim (a shard holds no
/// mapping to check it against); what decode guarantees is that the
/// tables are safe to run: the header fields are in range, the tables
/// are exactly as long as the band geometry says, and
/// `runtime::BandExchange::from_tables` accepts them. Each failure is
/// a distinct kInvalidArgument.
struct ShardPlanRequest {
  std::uint64_t plan_id = 0;
  runtime::BandExchange band;

  /// Bytes of the payload before the two tables, for `shards` shards.
  [[nodiscard]] static constexpr std::size_t header_bytes(std::uint32_t shards) noexcept {
    return 24 + 16 * std::size_t{shards};
  }
  /// Those bytes for shard `shard` of `bands`, with its block lengths.
  [[nodiscard]] static std::vector<std::uint8_t> encode_header(
      std::uint64_t plan_id, const runtime::BandPlan& bands, std::uint32_t shard,
      std::span<const std::uint64_t> send, std::span<const std::uint64_t> recv);
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static runtime::StatusOr<ShardPlanRequest> decode(
      std::span<const std::uint8_t> payload);
};

/// What a SHARD_PLAN answer says: OK for SHARD_PLAN_OK, the typed
/// status of an ERROR frame, kUnavailable for anything else.
[[nodiscard]] runtime::Status shard_plan_outcome(std::uint16_t kind,
                                                 std::span<const std::uint8_t> payload);

/// Borrowing decode of the "u64 count + words" response layout shared
/// by PERMUTE_OK, PROGRAM_OK, and SHARD_EXEC_OK — the coordinator
/// gathers band responses zero-copy and relays them with scatter-gather
/// writes instead of reassembling the full array.
struct WordsResponseView {
  WordsView data;

  [[nodiscard]] static runtime::StatusOr<WordsResponseView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

// --- EXECUTE_PROGRAM -------------------------------------------------

/// Wire flags for EXECUTE_PROGRAM. Bits outside the mask are reserved
/// and must be zero (strictly rejected, so they stay available for
/// future revs). Every bit is reserved today.
inline constexpr std::uint32_t kProgramFlagsMask = 0;

/// Owning EXECUTE_PROGRAM request (client-side encode + strict decode).
struct ExecuteProgramRequest {
  std::uint32_t deadline_ms = 0;  ///< relative; 0 = no deadline
  std::uint32_t flags = 0;        ///< reserved (see kProgramFlagsMask)
  std::vector<runtime::ProgramOp> ops;
  std::vector<std::uint32_t> data;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static runtime::StatusOr<ExecuteProgramRequest> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

/// Borrowing decode of EXECUTE_PROGRAM for the serving hot path. The op
/// list is small (<= runtime::kMaxProgramOps) and is copied; only the
/// element region is borrowed. Validation is strict: unsupported
/// element width, unknown flag bits, zero / over-cap op counts, nonzero
/// reserved op fields, and unknown opcodes are all typed
/// kInvalidArgument — nothing malformed survives to the service layer.
struct ExecuteProgramRequestView {
  std::uint32_t deadline_ms = 0;
  std::uint32_t flags = 0;
  std::vector<runtime::ProgramOp> ops;
  WordsView data;

  [[nodiscard]] static runtime::StatusOr<ExecuteProgramRequestView> decode(
      std::span<const std::uint8_t> payload, std::uint64_t max_elements);
};

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
/// over ownership (`make_ok_frame(id, kind, writer.take())`).
[[nodiscard]] Frame make_ok_frame(std::uint64_t request_id, MsgKind kind,
                                  std::vector<std::uint8_t> payload);

}  // namespace hmm::net
