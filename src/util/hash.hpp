#pragma once
/// \file hash.hpp
/// \brief The one in-tree 64-bit hash (plan ids, plan-cache keys,
///        program fingerprints, ring points and fault sites) and mixer.
///
/// Four independent lanes, each folding a 64×64→128-bit multiply per 16
/// bytes (the wyhash/xxh3 construction), folded together with the length
/// at the end. It reads little-endian words, so every host gives the
/// same value for the same bytes. Values are stable within one build
/// (tests pin them, so a change is deliberate); not cryptographic.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hmm::util {

/// The splitmix64 finalizer: a full-avalanche 64→64 mix, for ring points,
/// backoff jitter and fault rolls.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// `bytes` read as a little-endian u32 / u64, whatever the host order.
[[nodiscard]] inline std::uint32_t load_le32(const void* bytes) noexcept {
  std::uint32_t v;
  std::memcpy(&v, bytes, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}
[[nodiscard]] inline std::uint64_t load_le64(const void* bytes) noexcept {
  std::uint64_t v;
  std::memcpy(&v, bytes, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

class Hash64 {
 public:
  /// Bytes per block: 16 per lane.
  static constexpr std::size_t kBlock = 64;

  explicit Hash64(std::uint64_t seed = 0) noexcept {
    const std::uint64_t s = fold(seed ^ kSecret[4], kSecret[0]);
    for (int i = 0; i < 4; ++i) lane_[i] = s ^ kSecret[i];
  }

  Hash64& update(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    length_ += len;
    if (buffered_ > 0) {
      const std::size_t take = len < kBlock - buffered_ ? len : kBlock - buffered_;
      std::memcpy(tail_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      len -= take;
      if (buffered_ < kBlock) return *this;
      mix(lane_, tail_, kBlock);
      buffered_ = 0;
    }
    if (len >= kBlock) {
      // Local lanes stay in registers: the input bytes may alias lane_.
      std::uint64_t lane[4] = {lane_[0], lane_[1], lane_[2], lane_[3]};
      for (; len >= kBlock; p += kBlock, len -= kBlock) mix(lane, p, kBlock);
      std::memcpy(lane_, lane, sizeof lane);
    }
    std::memcpy(tail_, p, len);
    buffered_ = len;
    return *this;
  }

  /// `v`'s little-endian bytes.
  Hash64& update_u32(std::uint32_t v) noexcept {
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
    return update(&v, sizeof v);
  }
  Hash64& update_u64(std::uint64_t v) noexcept {
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    return update(&v, sizeof v);
  }

  /// The hash of every byte so far; the stream may continue after.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::uint64_t lane[4] = {lane_[0], lane_[1], lane_[2], lane_[3]};
    unsigned char last[kBlock] = {};  // the tail, zero-padded to whole 16-byte pairs
    std::memcpy(last, tail_, buffered_);
    mix(lane, last, (buffered_ + 15) / 16 * 16);
    const std::uint64_t h = fold(lane[0] ^ kSecret[4], lane[1] ^ length_);
    return fold(fold(lane[2] ^ h, lane[3] ^ kSecret[4]) ^ kSecret[0], length_ ^ kSecret[1]);
  }

 private:
  static constexpr std::uint64_t kSecret[5] = {0xa0761d6478bd642full, 0xe7037ed1a0b428dbull,
                                               0x8ebc6af09c88c6e3ull, 0x589965cc75374cc3ull,
                                               0x1d8e4e27c47d124full};

  /// The 128-bit product of a and b, its halves xored.
  static std::uint64_t fold(std::uint64_t a, std::uint64_t b) noexcept {
    const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
    return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
  }

  /// Fold `len` bytes (a multiple of 16, at most a block) into the lanes:
  /// pair k goes to lane k.
  static void mix(std::uint64_t (&lane)[4], const unsigned char* p, std::size_t len) noexcept {
    for (std::size_t k = 0; k < len / 16; ++k) {
      lane[k] = fold(load_le64(p + 16 * k) ^ kSecret[k], load_le64(p + 16 * k + 8) ^ lane[k]);
    }
  }

  std::uint64_t lane_[4];
  std::uint64_t length_ = 0;
  std::size_t buffered_ = 0;
  unsigned char tail_[kBlock];
};

/// One-shot Hash64 of `len` bytes.
[[nodiscard]] inline std::uint64_t hash64(const void* data, std::size_t len,
                                          std::uint64_t seed = 0) noexcept {
  return Hash64(seed).update(data, len).digest();
}

}  // namespace hmm::util
