#pragma once
/// \file wire.hpp
/// \brief The HMMP framing layer: length-prefixed, checksummed binary
///        frames with explicit little-endian serialization.
///
/// Every message on a permd connection is one frame:
///
///   offset  size  field
///        0     4  magic        'H' 'M' 'M' 'P'
///        4     2  version      u16 LE (currently 2)
///        6     2  kind         u16 LE (protocol.hpp enumerates kinds)
///        8     8  request_id   u64 LE (echoed verbatim in the response)
///       16     4  payload_len  u32 LE (bounded by the peer's limit)
///       20     8  checksum     u64 LE, CRC32C of the payload, zero-extended
///       28     …  payload
///
/// The framing layer treats `kind` and the payload as opaque; it owns
/// exactly the properties a byte stream can violate: truncation, a
/// foreign magic, an unknown framing version, a length that exceeds the
/// receiver's budget, and payload corruption. `encode_header` /
/// `parse_header` are the one codec for the 28 header bytes; every
/// sender and receiver (blocking stream, reactor) goes through them, so
/// the checks and their order live in one place. Every rejection is a
/// distinct `FrameError`, and truncation surfaces as the stream's EOF
/// mid-frame, so tests and metrics can tell a short read from a corrupt
/// one.
///
/// The checksum is CRC32C (parameters in docs/PROTOCOL.md §2): it
/// catches every burst error of up to 32 bits. Every SIMD kernel tier
/// computes it as three interleaved SSE4.2 `crc32` streams joined by a
/// PCLMULQDQ shift; the kernels' `scalar` variant (cpu/dispatch.hpp)
/// uses a byte table. The two are bit-identical, so the path is not a
/// protocol matter. Version 1 frames (FNV-1a checksums) are refused as
/// `kBadVersion`.
///
/// `ByteWriter`/`ByteReader` are the only serialization primitives the
/// protocol layer uses; both commit to little-endian byte order
/// explicitly (byte shifts, not memcpy-of-host-integers), so the wire
/// format is identical across architectures.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hmm::net {

/// "HMMP" as a little-endian u32 (bytes on the wire: 'H','M','M','P').
inline constexpr std::uint32_t kMagic = 0x504d4d48u;
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kHeaderBytes = 28;
/// Default per-frame payload budget (requests carry whole arrays).
inline constexpr std::uint32_t kDefaultMaxPayload = 64u << 20;

/// One decoded frame. The payload is owned (frames outlive the socket
/// buffer they were parsed from).
struct Frame {
  std::uint16_t kind = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Why a frame failed to decode. Ordered by how early in the frame the
/// problem sits. A frame cut short is the stream's to report (EOF).
enum class FrameError {
  kOk = 0,
  kBadMagic,     ///< not an HMMP stream
  kBadVersion,   ///< framing version this build does not speak
  kOversized,    ///< payload_len exceeds the receiver's budget
  kBadChecksum,  ///< payload bytes do not hash to the header checksum
};

[[nodiscard]] std::string_view to_string(FrameError e) noexcept;

/// CRC32C over a byte span (the frame checksum), zero-extended.
[[nodiscard]] std::uint64_t checksum_bytes(std::span<const std::uint8_t> bytes) noexcept;

/// Streaming form of the frame checksum, for scatter-gather senders
/// that never materialize the payload as one buffer:
/// `checksum_extend(checksum_extend(seed, a), b) == checksum_bytes(a ++ b)`.
[[nodiscard]] std::uint64_t checksum_seed() noexcept;
[[nodiscard]] std::uint64_t checksum_extend(std::uint64_t state,
                                            std::span<const std::uint8_t> bytes) noexcept;

/// The checksum of a concatenation from its parts' checksums alone:
/// `combine(crc(a), crc(b), |b|) == crc(a ++ b)`. Adding is its own
/// inverse, so it also peels a prefix off: `combine(crc(a), crc(a ++ b),
/// |b|) == crc(b)`.
[[nodiscard]] std::uint64_t checksum_combine(std::uint64_t a, std::uint64_t b,
                                             std::size_t len_b) noexcept;

/// The header fields a frame carries besides magic and version, which
/// `encode_header` writes and `parse_header` checks.
struct FrameHeader {
  std::uint16_t kind = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t checksum = 0;
};

/// Write the 28-byte wire header: magic, kWireVersion, then `header`.
void encode_header(const FrameHeader& header,
                   std::span<std::uint8_t, kHeaderBytes> out) noexcept;

/// Parse and validate a 28-byte header: magic, then version, then
/// `payload_len` against the receiver's `max_payload` — the earliest
/// failing field is the one reported. On kOk `out` holds the fields;
/// on any error it is untouched. The payload checksum is the caller's
/// to verify once the payload has arrived.
[[nodiscard]] FrameError parse_header(std::span<const std::uint8_t, kHeaderBytes> in,
                                      std::uint32_t max_payload, FrameHeader& out) noexcept;

/// Append-only little-endian serializer for frame payloads.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) {
    put_u8(static_cast<std::uint8_t>(v));
    put_u8(static_cast<std::uint8_t>(v >> 8));
  }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void put_u32_span(std::span<const std::uint32_t> words) {
    // The wire is little-endian; on an LE host the in-memory words are
    // already wire bytes, so bulk-append instead of shifting per word.
    if constexpr (std::endian::native == std::endian::little) {
      const auto* raw = reinterpret_cast<const std::uint8_t*>(words.data());
      buf_.insert(buf_.end(), raw, raw + words.size() * 4);
    } else {
      buf_.reserve(buf_.size() + words.size() * 4);
      for (std::uint32_t w : words) put_u32(w);
    }
  }
  void put_string(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian cursor over a payload. Every getter
/// returns false (leaving the output untouched) instead of reading past
/// the end, so a malformed payload can never over-read.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  [[nodiscard]] bool get_u8(std::uint8_t& out) noexcept {
    if (remaining() < 1) return false;
    out = buf_[pos_++];
    return true;
  }
  [[nodiscard]] bool get_u16(std::uint16_t& out) noexcept {
    if (remaining() < 2) return false;
    out = static_cast<std::uint16_t>(buf_[pos_] | (buf_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  [[nodiscard]] bool get_u32(std::uint32_t& out) noexcept {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }
  [[nodiscard]] bool get_u64(std::uint64_t& out) noexcept {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }
  /// View of the next `len` bytes (no copy); false if fewer remain.
  [[nodiscard]] bool get_bytes(std::size_t len, std::span<const std::uint8_t>& out) noexcept {
    if (remaining() < len) return false;
    out = buf_.subspan(pos_, len);
    pos_ += len;
    return true;
  }
  /// The rest of the payload as a string (error messages, JSON).
  [[nodiscard]] std::string rest_as_string() {
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), remaining());
    pos_ = buf_.size();
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace hmm::net
