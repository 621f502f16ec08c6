#pragma once
/// \file frame_io.hpp
/// \brief Reading/writing HMMP frames over a TcpStream.
///
/// The header is read first (fixed 28 bytes, wire.hpp's `parse_header`),
/// validated, and only then is the payload — already bounded by
/// `max_payload` — pulled off the socket. A frame that fails validation
/// is a **protocol error** (`kInvalidArgument` carrying the FrameError
/// text); both peers respond by dropping the connection, because after
/// a framing violation the stream position is unrecoverable. Transport
/// failures keep their socket.hpp taxonomy (`kUnavailable` peer-gone,
/// `kDeadlineExceeded` timeout).

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::net {

/// Zero-copy frame send: the header goes on a 28-byte stack buffer, the
/// checksum is streamed across `parts`, and header + parts leave in one
/// `send_vectored` call — the payload is never concatenated. The parts
/// are borrowed for the duration of the call only.
runtime::Status write_frame_parts(TcpStream& stream, std::uint16_t kind,
                                  std::uint64_t request_id,
                                  std::span<const ConstBuffer> parts);

/// Receivers checksum a payload as it lands, this many bytes at most at
/// a time (still in cache): verification ends with the last byte.
inline constexpr std::size_t kChecksumChunk = 256 << 10;

/// A decoded frame whose payload borrows the caller's storage (valid
/// until the storage is reused for the next read).
struct FrameView {
  std::uint16_t kind = 0;
  std::uint64_t request_id = 0;
  std::span<const std::uint8_t> payload;
  std::uint64_t checksum = 0;  ///< the payload's, verified on arrival
};

/// Caller memory an expected answer is received straight into: a frame
/// of `kind` whose payload is exactly `head.size() + body.size()` bytes
/// lands in `head`, then `body`, and its view's payload is `head`.
struct PayloadSink {
  std::uint16_t kind = 0;
  std::span<std::uint8_t> head;
  std::span<std::uint8_t> body;
};

/// Receive one full frame into pooled, reused storage: the payload
/// lands in `storage` (acquired from `pool` and grown only when a larger
/// frame arrives — steady-state reads touch no allocator at all) and the
/// view borrows it, unless `sink` takes the frame. Error taxonomy:
///  - kInvalidArgument: framing violation (bad magic/version, oversized
///    or corrupt payload) — close the connection;
///  - kUnavailable / kDeadlineExceeded: transport-level, from socket.hpp
///    (EOF mid-frame is a torn frame);
///  - kResourceExhausted: the pool refused the payload buffer.
runtime::StatusOr<FrameView> read_frame_view(TcpStream& stream, util::BufferPool& pool,
                                             util::PooledBuffer& storage,
                                             std::uint32_t max_payload = kDefaultMaxPayload,
                                             const PayloadSink* sink = nullptr);

// ---------------------------------------------------------------------------
// Resumable frame machines for nonblocking streams (the reactor server).
// Same validation, same error taxonomy, same pooled grow-only storage as
// the blocking calls above — but each pump does at most what the socket
// will take right now and parks mid-frame instead of sleeping.
// ---------------------------------------------------------------------------

/// Incremental HMMP decoder over a nonblocking stream. Feed it
/// readiness via `poll()`; it assembles header-then-payload across any
/// number of partial reads (a slow-loris peer trickling one byte per
/// round costs one buffered byte per round, not a blocked thread).
///
/// `poll()` returns OK(true) when a full, checksum-verified frame is
/// ready in `view()`; OK(false) when the socket would block (re-arm
/// EPOLLIN and come back); otherwise the read_frame_view error taxonomy
/// (kInvalidArgument protocol violation, kResourceExhausted pool
/// refusal, kUnavailable peer gone — with EOF between frames kept
/// distinguishable via `mid_frame()`). After consuming the view, call
/// `consume()` to rearm for the next frame; the payload storage is
/// reused grow-only across frames.
class FrameReader {
 public:
  explicit FrameReader(util::BufferPool& pool,
                       std::uint32_t max_payload = kDefaultMaxPayload) noexcept
      : pool_(&pool), max_payload_(max_payload) {}

  runtime::StatusOr<bool> poll(TcpStream& stream);

  /// Valid only after poll() returned OK(true) and before consume().
  [[nodiscard]] FrameView view() const noexcept;
  void consume() noexcept;

  /// True while a frame is partially assembled (≥1 byte consumed toward
  /// the next frame). EOF here is a torn frame; EOF otherwise is a
  /// quiet close. Also the anchor for slow-read deadlines: the caller
  /// timestamps the transition into mid-frame.
  [[nodiscard]] bool mid_frame() const noexcept {
    return state_ == State::kPayload || (state_ == State::kHeader && have_ > 0);
  }

  /// Hand the payload storage back (e.g. to sample gauges in tests).
  [[nodiscard]] const util::PooledBuffer& storage() const noexcept { return storage_; }

 private:
  enum class State : std::uint8_t { kHeader, kPayload, kReady };

  util::BufferPool* pool_;
  std::uint32_t max_payload_;
  State state_ = State::kHeader;
  std::size_t have_ = 0;  // bytes assembled in the current state
  std::uint64_t crc_ = 0;  // checksum of the payload bytes assembled so far
  std::array<std::uint8_t, kHeaderBytes> header_{};
  FrameHeader frame_;  // parsed from header_ once it is complete
  util::PooledBuffer storage_;
};

/// One queued outbound frame: the 28-byte wire header plus a small
/// inline payload head (e.g. PERMUTE_OK's 8-byte count header) live in
/// `prefix`; the bulk payload rides as slices of pooled buffers and/or
/// an owned vector, never copied — a relayed response keeps the buffer
/// it was read into, and a gathered distributed response keeps one per
/// band. `tag` says what the frame answers, so the reactor can count ok
/// and error responses at the moment they actually reach the wire.
struct OutboundFrame {
  static constexpr std::uint8_t kTagNone = 0;  ///< pre-frame rejection: uncounted
  static constexpr std::uint8_t kTagOk = 1;
  static constexpr std::uint8_t kTagError = 2;

  /// `len` bytes of `buffer` from `offset`, owned by the frame.
  struct Segment {
    util::PooledBuffer buffer;
    std::size_t offset = 0;
    std::size_t len = 0;
  };

  std::array<std::uint8_t, kHeaderBytes + 24> prefix{};
  std::size_t prefix_len = 0;
  std::vector<Segment> segments;
  std::vector<std::uint8_t> owned;
  std::size_t size = 0;    // prefix + segments + owned
  std::size_t offset = 0;  // flush progress across the concatenation
  std::uint8_t tag = 0;

  [[nodiscard]] std::size_t total() const noexcept { return size; }
};

/// Build an OutboundFrame, tagged ok or error by `kind`. Payload =
/// inline_payload ∥ segments ∥ owned; the checksum is streamed across
/// all of them unless it is known already (verified on arrival, or
/// combined). `inline_payload.size()` must fit the prefix tail (≤ 24).
runtime::StatusOr<OutboundFrame> make_outbound_frame(
    std::uint16_t kind, std::uint64_t request_id,
    std::span<const std::uint8_t> inline_payload,
    std::vector<OutboundFrame::Segment> segments, std::vector<std::uint8_t> owned,
    std::optional<std::uint64_t> checksum = std::nullopt);

/// Incremental scatter-gather flusher for a nonblocking stream: a FIFO
/// of OutboundFrames drained with at most one sendmsg per pump round,
/// resuming mid-frame across partial writes. `flush()` returns OK(true)
/// when the queue is empty, OK(false) when the socket would block
/// (arm EPOLLOUT and come back), or the transport error. `on_complete`
/// (optional) fires once per frame the moment its last byte is
/// accepted by the kernel.
class FrameWriter {
 public:
  void enqueue(OutboundFrame frame) { queue_.push_back(std::move(frame)); }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

  using CompletionFn = void (*)(void* ctx, const OutboundFrame& frame);
  runtime::StatusOr<bool> flush(TcpStream& stream, CompletionFn on_complete = nullptr,
                                void* ctx = nullptr);

 private:
  std::deque<OutboundFrame> queue_;
};

}  // namespace hmm::net
