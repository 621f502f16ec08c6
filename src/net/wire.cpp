#include "net/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "cpu/dispatch.hpp"
#include "util/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HMM_HAVE_CRC32C_INSTRUCTION 1
#endif

namespace hmm::net {
namespace {

/// CRC32C (Castagnoli), reflected polynomial.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (kCrc32cPoly & (0u - (crc & 1u)));
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

/// Byte-at-a-time table CRC: the portable path and the test oracle.
/// `crc` is the raw register (pre-inverted), as is the result.
std::uint32_t crc32c_table(std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
  for (const std::uint8_t b : bytes) crc = kCrc32cTable[(crc ^ b) & 0xffu] ^ (crc >> 8);
  return crc;
}

#if defined(HMM_HAVE_CRC32C_INSTRUCTION)
/// The SSE4.2 `crc32` instruction computes the same register update
/// eight bytes at a time. Unaligned 8-byte loads go through memcpy.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t len = bytes.size();
  std::uint64_t crc64 = crc;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<std::uint32_t>(crc64);
  for (; len > 0; ++p, --len) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

/// Every SIMD kernel tier implies SSE4.2, so the kernel dispatcher's
/// choice doubles as the CRC path choice: `scalar` runs the table.
std::uint32_t crc32c_update(std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
#if defined(HMM_HAVE_CRC32C_INSTRUCTION)
  if (cpu::kernel_variant() != cpu::KernelVariant::kScalar) return crc32c_sse42(crc, bytes);
#endif
  return crc32c_table(crc, bytes);
}

void put_le(std::uint8_t* out, std::uint64_t v, int bytes) noexcept {
  for (int i = 0; i < bytes; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_le(const std::uint8_t* in, int bytes) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t{in[i]} << (8 * i);
  return v;
}

}  // namespace

std::string_view to_string(FrameError e) noexcept {
  switch (e) {
    case FrameError::kOk: return "ok";
    case FrameError::kShortHeader: return "short header";
    case FrameError::kBadMagic: return "bad magic";
    case FrameError::kBadVersion: return "unsupported wire version";
    case FrameError::kOversized: return "payload exceeds frame budget";
    case FrameError::kShortPayload: return "truncated payload";
    case FrameError::kBadChecksum: return "payload checksum mismatch";
  }
  return "unknown frame error";
}

std::uint64_t checksum_bytes(std::span<const std::uint8_t> bytes) noexcept {
  return checksum_extend(checksum_seed(), bytes);
}

std::uint64_t checksum_seed() noexcept { return 0; }

std::uint64_t checksum_extend(std::uint64_t state,
                              std::span<const std::uint8_t> bytes) noexcept {
  // A CRC's digest is its register with the final xor undone, so
  // folding more bytes into a prior digest is exactly checksumming the
  // concatenation. The empty input's digest (0) is the seed.
  const auto crc = static_cast<std::uint32_t>(state) ^ 0xffffffffu;
  return crc32c_update(crc, bytes) ^ 0xffffffffu;
}

void encode_header(const FrameHeader& header,
                   std::span<std::uint8_t, kHeaderBytes> out) noexcept {
  put_le(&out[0], kMagic, 4);
  put_le(&out[4], kWireVersion, 2);
  put_le(&out[6], header.kind, 2);
  put_le(&out[8], header.request_id, 8);
  put_le(&out[16], header.payload_len, 4);
  put_le(&out[20], header.checksum, 8);
}

FrameError parse_header(std::span<const std::uint8_t, kHeaderBytes> in,
                        std::uint32_t max_payload, FrameHeader& out) noexcept {
  // Magic before version before length: report the earliest field that
  // proves the stream is not (this version of) HMMP.
  if (get_le(&in[0], 4) != kMagic) return FrameError::kBadMagic;
  if (get_le(&in[4], 2) != kWireVersion) return FrameError::kBadVersion;
  const auto payload_len = static_cast<std::uint32_t>(get_le(&in[16], 4));
  if (payload_len > max_payload) return FrameError::kOversized;
  out = {.kind = static_cast<std::uint16_t>(get_le(&in[6], 2)),
         .request_id = get_le(&in[8], 8),
         .payload_len = payload_len,
         .checksum = get_le(&in[20], 8)};
  return FrameError::kOk;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  HMM_CHECK(frame.payload.size() <= UINT32_MAX);
  std::vector<std::uint8_t> bytes(kHeaderBytes + frame.payload.size());
  encode_header({.kind = frame.kind,
                 .request_id = frame.request_id,
                 .payload_len = static_cast<std::uint32_t>(frame.payload.size()),
                 .checksum = checksum_bytes(frame.payload)},
                std::span(bytes).first<kHeaderBytes>());
  std::copy(frame.payload.begin(), frame.payload.end(), bytes.begin() + kHeaderBytes);
  return bytes;
}

FrameError decode_frame(std::span<const std::uint8_t> buf, Frame& out, std::size_t& consumed,
                        std::uint32_t max_payload) {
  if (buf.size() < kHeaderBytes) return FrameError::kShortHeader;
  FrameHeader h;
  if (const FrameError e = parse_header(buf.first<kHeaderBytes>(), max_payload, h);
      e != FrameError::kOk) {
    return e;
  }
  if (buf.size() - kHeaderBytes < h.payload_len) return FrameError::kShortPayload;
  const std::span<const std::uint8_t> payload = buf.subspan(kHeaderBytes, h.payload_len);
  if (checksum_bytes(payload) != h.checksum) return FrameError::kBadChecksum;
  out.kind = h.kind;
  out.request_id = h.request_id;
  out.payload.assign(payload.begin(), payload.end());
  consumed = kHeaderBytes + h.payload_len;
  return FrameError::kOk;
}

}  // namespace hmm::net
