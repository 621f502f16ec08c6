#include "perm/permutation.hpp"

#include <numeric>

namespace hmm::perm {

Permutation::Permutation(std::uint64_t n) : map_(n) {
  HMM_CHECK(n > 0 && n <= (1ull << 32));
  std::iota(map_.begin(), map_.end(), 0u);
}

Permutation::Permutation(util::aligned_vector<std::uint32_t> mapping) : map_(std::move(mapping)) {
  HMM_CHECK_MSG(is_valid({map_.data(), map_.size()}), "mapping is not a permutation");
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
  if (mapping.empty()) return false;
  std::vector<std::uint8_t> seen(mapping.size(), 0);
  for (std::uint32_t v : mapping) {
    if (v >= mapping.size() || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

Permutation Permutation::inverse() const {
  util::aligned_vector<std::uint32_t> inv(map_.size());
  for (std::uint64_t i = 0; i < map_.size(); ++i) {
    inv[map_[i]] = static_cast<std::uint32_t>(i);
  }
  Permutation p(1);
  p.map_ = std::move(inv);
  return p;
}

Permutation Permutation::compose(const Permutation& other) const {
  HMM_CHECK(size() == other.size());
  util::aligned_vector<std::uint32_t> out(map_.size());
  for (std::uint64_t i = 0; i < map_.size(); ++i) out[i] = map_[other.map_[i]];
  Permutation p(1);
  p.map_ = std::move(out);
  return p;
}

bool Permutation::is_identity() const {
  for (std::uint64_t i = 0; i < map_.size(); ++i) {
    if (map_[i] != i) return false;
  }
  return true;
}

}  // namespace hmm::perm
