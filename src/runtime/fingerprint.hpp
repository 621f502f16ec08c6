#pragma once
/// \file fingerprint.hpp
/// \brief 64-bit cache keys for compiled permutation plans.
///
/// The plan cache holds only kAuto's compile of each permutation, which
/// is fully determined by (permutation mapping, element width) within
/// one process, so it keys entries by a util::Hash64 over exactly those
/// inputs. The mapping enters as its own fingerprint (the wire plan id,
/// `perm::Permutation::mapping_hash`), which the Permutation memoises.
/// Key and mapping hash each carry a schema-version salt, so a new
/// scheme never silently aliases an older one. Plan ids are opaque and
/// stable within one build. The cache treats its 64-bit key as an
/// identity (~2^-64 collision odds per pair); the SUBMIT_PLAN registry
/// compares mappings on an id hit (net/plan_registry.hpp).

#include <cstdint>
#include <span>

#include "perm/permutation.hpp"

namespace hmm::runtime {

/// Strongly typed wrapper so a fingerprint can't be confused with a
/// byte count or an index in an interface.
struct Fingerprint {
  std::uint64_t value = 0;

  friend constexpr bool operator==(Fingerprint, Fingerprint) = default;
};

/// Hash of the permutation mapping alone (no element width).
/// Computed on first use and memoised on `p` (copies carry it).
[[nodiscard]] Fingerprint fingerprint_permutation(const perm::Permutation& p);

/// Same hash over a raw mapping span (host order). This *is* the wire
/// plan id: SUBMIT_PLAN answers it and the router consistent-hashes on
/// it, so it agrees bit-for-bit with `fingerprint_permutation` of a
/// Permutation built from the same words, however built (tested as such).
[[nodiscard]] Fingerprint fingerprint_mapping(std::span<const std::uint32_t> words);

/// Full plan-cache key: element width in bytes + n +
/// `fingerprint_permutation(p)`.
[[nodiscard]] Fingerprint fingerprint_plan_key(const perm::Permutation& p,
                                               std::uint32_t elem_bytes);

}  // namespace hmm::runtime
