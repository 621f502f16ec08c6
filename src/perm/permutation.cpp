#include "perm/permutation.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "model/host.hpp"
#include "util/bits.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace hmm::perm {

namespace {

/// Salt of the mapping hash, the wire plan id. Bumped whenever the id's
/// definition changes (2: util::Hash64 in place of FNV-1a).
constexpr std::uint64_t kMappingSchemaVersion = 2;

/// Marks v in `seen`, the bijection check's bit per element of [0, n)
/// (128 KiB at 1M, which stays in L2); false when v is out of range or
/// marked already.
bool mark(std::vector<std::uint64_t>& seen, std::uint64_t n, std::uint32_t v) {
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  if (v >= n || (seen[v >> 6] & bit)) return false;
  seen[v >> 6] |= bit;
  return true;
}

/// inv[map[i]] = i on the global pool: distribute the (P(i), i)
/// records into buckets of 2^bits destinations, then scatter each bucket
/// inside its window of the inverse, which stays in L2. A bijection sends
/// each bucket exactly its window's worth, so bucket b starts at b·2^bits.
void split_inverse(std::span<const std::uint32_t> map, std::span<std::uint32_t> inv,
                   unsigned bits) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::uint64_t n = map.size(), buckets = ((n - 1) >> bits) + 1, chunks = 4 * pool.size();
  // at[c·buckets + b]: chunk c's records for bucket b, counted, then where they
  // go. A chunk works on a copy of its row, as neighbouring rows share lines.
  std::vector<std::uint64_t> at(chunks * buckets);
  const auto per_chunk = [&](auto&& body) {
    pool.parallel_for(0, chunks, [&](std::uint64_t c) {
      const auto row = at.begin() + static_cast<std::ptrdiff_t>(c * buckets);
      std::vector<std::uint64_t> local(row, row + static_cast<std::ptrdiff_t>(buckets));
      for (std::uint64_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) body(local, i);
      std::copy(local.begin(), local.end(), row);
    });
  };
  per_chunk([&](auto& count, std::uint64_t i) { ++count[map[i] >> bits]; });
  for (std::uint64_t b = 0; b < buckets; ++b) {
    std::uint64_t k = b << bits;
    for (std::uint64_t c = 0; c < chunks; ++c) k += std::exchange(at[c * buckets + b], k);
  }
  const auto records = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  per_chunk([&](auto& next, std::uint64_t i) {
    records[next[map[i] >> bits]++] = (std::uint64_t{map[i]} << 32) | i;
  });
  pool.parallel_for(0, buckets, [&](std::uint64_t b) {
    for (std::uint64_t k = b << bits; k < std::min((b + 1) << bits, n); ++k) {
      inv[records[k] >> 32] = static_cast<std::uint32_t>(records[k]);
    }
  });
}

}  // namespace

Permutation::Permutation(std::uint64_t n) : map_(n) {
  HMM_CHECK(n > 0 && n <= (1ull << 32));
  std::iota(map_.begin(), map_.end(), 0u);
}

Permutation::Permutation(util::aligned_vector<std::uint32_t> mapping)
    : Permutation(Unchecked{}, std::move(mapping)) {
  HMM_CHECK_MSG(is_valid({map_.data(), map_.size()}), "mapping is not a permutation");
}

std::optional<Permutation> Permutation::adopt(util::aligned_vector<std::uint32_t> mapping) {
  if (!is_valid({mapping.data(), mapping.size()})) return std::nullopt;
  return Permutation(Unchecked{}, std::move(mapping));
}

std::optional<Permutation> Permutation::from_le_words(std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kWords = util::Hash64::kBlock / sizeof(std::uint32_t);
  const std::uint64_t n = bytes.size() / sizeof(std::uint32_t);
  if (n == 0 || bytes.size() % sizeof(std::uint32_t) != 0) return std::nullopt;
  util::aligned_vector<std::uint32_t> map(n);
  std::vector<std::uint64_t> seen((n + 63) / 64);
  util::Hash64 h(kMappingSchemaVersion);
  // A hash block at a time: its words are checked and copied, and its
  // bytes hashed while they are still in L1.
  for (std::uint64_t i = 0; i < n; i += kWords) {
    const std::uint64_t m = std::min(kWords, n - i);
    const std::uint8_t* at = bytes.data() + i * sizeof(std::uint32_t);
    for (std::uint64_t k = 0; k < m; ++k) {
      map[i + k] = util::load_le32(at + k * sizeof(std::uint32_t));
      if (!mark(seen, n, map[i + k])) return std::nullopt;
    }
    h.update(at, m * sizeof(std::uint32_t));
  }
  Permutation p(Unchecked{}, std::move(map));
  p.set_fingerprint_memo(h.digest());
  return p;
}

std::uint64_t Permutation::mapping_hash(std::span<const std::uint32_t> mapping) noexcept {
  util::Hash64 h(kMappingSchemaVersion);
  if constexpr (std::endian::native == std::endian::little) {
    h.update(mapping.data(), mapping.size_bytes());
  } else {
    for (const std::uint32_t w : mapping) h.update_u32(w);
  }
  return h.digest();
}

Permutation::Permutation(const Permutation& other)
    : map_(other.map_), fingerprint_(other.fingerprint_memo()) {}

Permutation::Permutation(Permutation&& other) noexcept
    : map_(std::move(other.map_)), fingerprint_(other.fingerprint_.exchange(0)) {}

Permutation& Permutation::operator=(const Permutation& other) {
  map_ = other.map_;
  set_fingerprint_memo(other.fingerprint_memo());
  return *this;
}

Permutation& Permutation::operator=(Permutation&& other) noexcept {
  map_ = std::move(other.map_);
  set_fingerprint_memo(other.fingerprint_.exchange(0));
  return *this;
}

bool Permutation::is_valid(std::span<const std::uint32_t> mapping) {
  std::vector<std::uint64_t> seen((mapping.size() + 63) / 64);
  return !mapping.empty() && std::ranges::all_of(mapping, [&](std::uint32_t v) {
    return mark(seen, mapping.size(), v);
  });
}

Permutation Permutation::inverse() const {
  util::aligned_vector<std::uint32_t> inv(map_.size());
  const model::HostParams& host = model::pool_geometry();
  if (host.fits_half_l2(inv.size() * sizeof(std::uint32_t))) {
    for (std::uint64_t i = 0; i < inv.size(); ++i) inv[map_[i]] = static_cast<std::uint32_t>(i);
  } else {  // windows as large as fit the same half of the L2
    split_inverse(map_, inv, util::log2_floor(host.l2_bytes / 2 / sizeof(std::uint32_t)));
  }
  return Permutation(Unchecked{}, std::move(inv));
}

Permutation Permutation::compose(const Permutation& other) const {
  HMM_CHECK(size() == other.size());
  util::aligned_vector<std::uint32_t> out(map_.size());
  for (std::uint64_t i = 0; i < map_.size(); ++i) out[i] = map_[other.map_[i]];
  return Permutation(Unchecked{}, std::move(out));
}

bool Permutation::is_identity() const {
  for (std::uint64_t i = 0; i < map_.size(); ++i) {
    if (map_[i] != i) return false;
  }
  return true;
}

}  // namespace hmm::perm
