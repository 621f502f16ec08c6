#include "runtime/fingerprint.hpp"

#include "util/hash.hpp"

namespace hmm::runtime {
namespace {

/// Bumped whenever the plan-key schema changes (fields, order, widths,
/// hash). v2 folds the memoised mapping fingerprint instead of the n
/// words; v3 hashes with util::Hash64; v4 drops the machine parameters
/// and the strategy (the cache holds kAuto's compile only).
constexpr std::uint64_t kKeySchemaVersion = 4;

}  // namespace

Fingerprint fingerprint_permutation(const perm::Permutation& p) {
  std::uint64_t fp = p.fingerprint_memo();
  if (fp == 0) {
    // A digest of exactly 0 is simply recomputed on every call.
    fp = perm::Permutation::mapping_hash(p.data());
    p.set_fingerprint_memo(fp);
  }
  return Fingerprint{fp};
}

Fingerprint fingerprint_mapping(std::span<const std::uint32_t> words) {
  return Fingerprint{perm::Permutation::mapping_hash(words)};
}

Fingerprint fingerprint_plan_key(const perm::Permutation& p, std::uint32_t elem_bytes) {
  util::Hash64 h(kKeySchemaVersion);
  h.update_u32(elem_bytes);
  h.update_u64(p.size());
  h.update_u64(fingerprint_permutation(p).value);
  return Fingerprint{h.digest()};
}

}  // namespace hmm::runtime
