#pragma once
/// \file fingerprint.hpp
/// \brief 64-bit cache keys for compiled permutation plans.
///
/// A compiled `core::OfflinePermuter` is fully determined by
///   (permutation mapping, machine parameters, strategy, element width),
/// so the plan cache keys entries by an FNV-1a hash over exactly those
/// inputs. The mapping enters the key as its own fingerprint (the wire
/// plan id), which `perm::Permutation` memoises: n words are hashed
/// once per Permutation object, and every later key costs a few dozen
/// bytes of hashing. The key is seeded with a schema-version salt (2
/// since the key folds the mapping fingerprint instead of the words),
/// so a change to the key schema can never silently alias keys of an
/// older scheme. The mapping fingerprint keeps its own salt: plan ids
/// are wire-visible and never change.
///
/// FNV-1a is not collision-free; the cache treats the fingerprint as an
/// identity (no stored-key comparison) because a 64-bit hash over the
/// handful of distinct permutations a service compiles makes accidental
/// collision astronomically unlikely (~2^-64 per pair). The fingerprint
/// of the *permutation words* dominates the input, so two permutations
/// differing in a single image get unrelated keys. Frame checksums are
/// not FNV-1a: they are CRC32C (net/wire.hpp).

#include <cstdint>
#include <span>

#include "model/machine.hpp"
#include "perm/permutation.hpp"

namespace hmm::runtime {

/// Streaming FNV-1a (64-bit). Deterministic across platforms for the
/// integer-typed update helpers (values are fed little-endian).
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  constexpr Fnv1a64() = default;

  constexpr Fnv1a64& update_byte(std::uint8_t b) noexcept {
    state_ = (state_ ^ b) * kPrime;
    return *this;
  }

  constexpr Fnv1a64& update_u32(std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  constexpr Fnv1a64& update_u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  Fnv1a64& update_u32_span(std::span<const std::uint32_t> words) noexcept;

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// Strongly typed wrapper so a fingerprint can't be confused with a
/// byte count or an index in an interface.
struct Fingerprint {
  std::uint64_t value = 0;

  friend constexpr bool operator==(Fingerprint, Fingerprint) = default;
};

/// Hash of the permutation mapping alone (no machine / strategy).
/// Computed on first use and memoised on `p` (copies carry it).
[[nodiscard]] Fingerprint fingerprint_permutation(const perm::Permutation& p);

/// Same hash over a raw mapping span (host order). This *is* the wire
/// plan id: SUBMIT_PLAN answers it and the router consistent-hashes on
/// it, so it must agree bit-for-bit with `fingerprint_permutation` of a
/// Permutation built from the same words (tested as such).
[[nodiscard]] Fingerprint fingerprint_mapping(std::span<const std::uint32_t> words);

/// Full plan-cache key: machine parameters + strategy tag + element
/// width in bytes + n + `fingerprint_permutation(p)`. `strategy_tag` is
/// the integer value of `core::Strategy` (kept as an int here so this
/// header does not depend on core/).
[[nodiscard]] Fingerprint fingerprint_plan_key(const perm::Permutation& p,
                                               const model::MachineParams& machine,
                                               int strategy_tag, std::uint32_t elem_bytes);

}  // namespace hmm::runtime
