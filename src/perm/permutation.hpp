#pragma once
/// \file permutation.hpp
/// \brief The `Permutation` value type: a bijection on [0, n).
///
/// Offline permutation (the paper's task): given arrays `a`, `b` of
/// size `n` and a permutation `P`, copy `a[i]` into `b[P(i)]` for every
/// `i`. This type stores `P` densely (`p[i] = P(i)`, 32-bit — the same
/// representation the paper's kernels read from global memory).

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>

#include "util/aligned_vector.hpp"
#include "util/check.hpp"

namespace hmm::perm {

class Permutation {
 public:
  /// Identity permutation of size n.
  explicit Permutation(std::uint64_t n);

  /// Adopt a mapping; aborts unless it is a bijection on [0, size).
  explicit Permutation(util::aligned_vector<std::uint32_t> mapping);

  /// The constructor's one validation, with nullopt in place of the abort.
  static std::optional<Permutation> adopt(util::aligned_vector<std::uint32_t> mapping);

  /// A mapping from its words' little-endian bytes (SUBMIT_PLAN's wire
  /// form), in one pass that copies each word, validates it and hashes
  /// it: nullopt unless a bijection, as `adopt`, else the fingerprint
  /// memo already holds `mapping_hash` of the words.
  static std::optional<Permutation> from_le_words(std::span<const std::uint8_t> bytes);

  /// The mapping's 64-bit id (the wire plan id): a util::Hash64 over its
  /// little-endian bytes, salted with the id's schema version.
  [[nodiscard]] static std::uint64_t mapping_hash(
      std::span<const std::uint32_t> mapping) noexcept;

  /// Copies carry the fingerprint memo; a move takes it and clears the
  /// source's, whose mapping is gone.
  Permutation(const Permutation& other);
  Permutation(Permutation&& other) noexcept;
  Permutation& operator=(const Permutation& other);
  Permutation& operator=(Permutation&& other) noexcept;

  [[nodiscard]] std::uint64_t size() const noexcept { return map_.size(); }

  /// P(i).
  std::uint32_t operator()(std::uint64_t i) const {
    HMM_DCHECK(i < map_.size());
    return map_[i];
  }

  /// Read-only view of the dense mapping (what the kernels load).
  [[nodiscard]] std::span<const std::uint32_t> data() const noexcept {
    return {map_.data(), map_.size()};
  }

  /// Memo slot for `mapping_hash`, 0 until first use (or filled by
  /// `from_le_words`). The mapping never changes after construction, so
  /// its hash is computed once and every later plan lookup reads it here.
  /// Relaxed atomics: racing first uses store the same value.
  [[nodiscard]] std::uint64_t fingerprint_memo() const noexcept {
    return fingerprint_.load(std::memory_order_relaxed);
  }
  void set_fingerprint_memo(std::uint64_t fingerprint) const noexcept {
    fingerprint_.store(fingerprint, std::memory_order_relaxed);
  }

  /// P^-1 (P^-1(P(i)) == i). Past half a core's L2 (model::pool_geometry)
  /// it is scattered through L2-sized windows on the global pool, with
  /// 8 B per element of scratch, freed before returning.
  [[nodiscard]] Permutation inverse() const;

  /// (this ∘ other)(i) = this(other(i)).
  [[nodiscard]] Permutation compose(const Permutation& other) const;

  [[nodiscard]] bool is_identity() const;

  friend bool operator==(const Permutation& a, const Permutation& b) {
    return a.map_ == b.map_;
  }

  /// True iff `mapping` is a bijection on [0, mapping.size()).
  static bool is_valid(std::span<const std::uint32_t> mapping);

  /// Apply offline: b[P(i)] = a[i]. Reference (serial) semantics used by
  /// every test as ground truth.
  template <class T>
  void apply(std::span<const T> a, std::span<T> b) const {
    HMM_CHECK(a.size() == size() && b.size() == size());
    for (std::uint64_t i = 0; i < size(); ++i) b[map_[i]] = a[i];
  }

 private:
  struct Unchecked {};
  Permutation(Unchecked, util::aligned_vector<std::uint32_t> mapping)
      : map_(std::move(mapping)) {}

  util::aligned_vector<std::uint32_t> map_;
  mutable std::atomic<std::uint64_t> fingerprint_{0};
};

}  // namespace hmm::perm
