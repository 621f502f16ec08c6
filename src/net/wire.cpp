#include "net/wire.hpp"

#include <array>
#include <cstring>

#include "cpu/dispatch.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HMM_HAVE_CRC32C_INSTRUCTION 1
#endif

namespace hmm::net {
namespace {

/// CRC32C (Castagnoli), reflected polynomial.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

/// Multiply by x mod P in the reflected representation, where bit i is
/// the coefficient of x^(31-i): a right shift, reduced by P when the
/// x^31 term falls off the bottom.
constexpr std::uint32_t crc32c_times_x(std::uint32_t v) {
  return (v >> 1) ^ (kCrc32cPoly & (0u - (v & 1u)));
}

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) crc = crc32c_times_x(crc);
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

/// a·b mod P, both reflected: the top bit of `a` is x^0.
constexpr std::uint32_t crc32c_mul(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 0x80000000u; bit != 0; bit >>= 1, b = crc32c_times_x(b)) {
    if ((a & bit) != 0) product ^= b;
  }
  return product;
}

/// x^k mod P, reflected, by square-and-multiply.
constexpr std::uint32_t crc32c_x_pow(std::size_t k) {
  std::uint32_t result = 0x80000000u;  // x^0
  for (std::uint32_t square = 0x40000000u; k > 0; k >>= 1, square = crc32c_mul(square, square)) {
    if ((k & 1) != 0) result = crc32c_mul(result, square);
  }
  return result;
}

#if defined(HMM_HAVE_CRC32C_INSTRUCTION)
/// Three-stream block lengths, per stream (Gopal et al., "Fast CRC
/// Computation for iSCSI Polynomial Using CRC32 Instruction", Intel
/// 2011): long blocks amortize the join, short blocks serve the rest.
constexpr std::size_t kLongStream = 8192;
constexpr std::size_t kShortStream = 256;

/// Unaligned 8-byte load.
std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// One 3·kStream block as three independent `crc32` chains, one per
/// third, so the instruction's 3-cycle latency overlaps instead of
/// serializing. The chains join linearly: the first is shifted across
/// the two thirds after it and the second across one. Shifting a
/// register across n bytes multiplies it by x^(8n) mod P:
/// clmul(crc, x^(8n − 33)) is crc·x^(8n − 32) as a 64-bit reflected
/// word, and one `crc32` of it (shared by both shifts) multiplies by
/// the last x^32 and reduces mod P.
template <std::size_t kStream>
__attribute__((target("sse4.2,pclmul"))) std::uint32_t crc32c_three_streams(
    std::uint32_t crc, const std::uint8_t* p) noexcept {
  constexpr std::uint32_t kShift1 = crc32c_x_pow(8 * kStream - 33);
  constexpr std::uint32_t kShift2 = crc32c_x_pow(16 * kStream - 33);
  std::uint64_t a = crc, b = 0, c = 0;
  for (std::size_t i = 0; i < kStream; i += 8) {
    a = _mm_crc32_u64(a, load_u64(p + i));
    b = _mm_crc32_u64(b, load_u64(p + kStream + i));
    c = _mm_crc32_u64(c, load_u64(p + 2 * kStream + i));
  }
  const __m128i shifted = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(a)),
                           _mm_cvtsi32_si128(static_cast<int>(kShift2)), 0x00),
      _mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(b)),
                           _mm_cvtsi32_si128(static_cast<int>(kShift1)), 0x00));
  const auto word = static_cast<std::uint64_t>(_mm_cvtsi128_si64(shifted));
  return static_cast<std::uint32_t>(_mm_crc32_u64(0, word) ^ c);
}

/// The SSE4.2 `crc32` instruction computes the same register update
/// eight bytes at a time: three streams over 24 KiB then 768 B blocks,
/// and one chain over the tail.
__attribute__((target("sse4.2,pclmul"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t len = bytes.size();
  for (; len >= 3 * kLongStream; p += 3 * kLongStream, len -= 3 * kLongStream) {
    crc = crc32c_three_streams<kLongStream>(crc, p);
  }
  for (; len >= 3 * kShortStream; p += 3 * kShortStream, len -= 3 * kShortStream) {
    crc = crc32c_three_streams<kShortStream>(crc, p);
  }
  std::uint64_t crc64 = crc;
  for (; len >= 8; p += 8, len -= 8) crc64 = _mm_crc32_u64(crc64, load_u64(p));
  crc = static_cast<std::uint32_t>(crc64);
  for (; len > 0; ++p, --len) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

/// The kernel dispatcher admits a SIMD tier only where the CPU also has
/// SSE4.2 and PCLMULQDQ (cpu/dispatch.cpp), so its choice doubles as the
/// CRC path choice: `scalar` runs the table.
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
    case FrameError::kBadMagic: return "bad magic";
    case FrameError::kBadVersion: return "unsupported wire version";
    case FrameError::kOversized: return "payload exceeds frame budget";
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

std::uint64_t checksum_combine(std::uint64_t a, std::uint64_t b, std::size_t len_b) noexcept {
  // zlib's crc32_combine: a's digest times x^(8|b|) mod P, plus b's
  // (the pre- and post-inversions cancel: both are all ones).
  return crc32c_mul(crc32c_x_pow(8 * len_b), static_cast<std::uint32_t>(a)) ^
         static_cast<std::uint32_t>(b);
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

}  // namespace hmm::net
