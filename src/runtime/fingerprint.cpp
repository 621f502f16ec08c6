#include "runtime/fingerprint.hpp"

namespace hmm::runtime {
namespace {

/// Salt of the mapping fingerprint. That fingerprint is the wire plan
/// id, so this never changes.
constexpr std::uint64_t kMappingSchemaVersion = 1;

/// Bumped whenever the plan-key schema changes (fields, order, widths).
/// v2 folds the memoised mapping fingerprint instead of the n words.
constexpr std::uint64_t kKeySchemaVersion = 2;

}  // namespace

Fnv1a64& Fnv1a64::update_u32_span(std::span<const std::uint32_t> words) noexcept {
  // Word-at-a-time keeps the loop tight; equivalent to feeding the
  // little-endian byte stream of the mapping.
  for (const std::uint32_t w : words) update_u32(w);
  return *this;
}

Fingerprint fingerprint_permutation(const perm::Permutation& p) {
  std::uint64_t fp = p.fingerprint_memo();
  if (fp == 0) {
    // A digest of exactly 0 is simply recomputed on every call.
    fp = fingerprint_mapping(p.data()).value;
    p.set_fingerprint_memo(fp);
  }
  return Fingerprint{fp};
}

Fingerprint fingerprint_mapping(std::span<const std::uint32_t> words) {
  Fnv1a64 h;
  h.update_u64(kMappingSchemaVersion);
  h.update_u64(words.size());
  h.update_u32_span(words);
  return Fingerprint{h.digest()};
}

Fingerprint fingerprint_plan_key(const perm::Permutation& p,
                                 const model::MachineParams& machine, int strategy_tag,
                                 std::uint32_t elem_bytes) {
  Fnv1a64 h;
  h.update_u64(kKeySchemaVersion);
  h.update_u32(machine.width);
  h.update_u32(machine.latency);
  h.update_u32(machine.shared_latency);
  h.update_u32(machine.dmms);
  h.update_u64(machine.shared_bytes);
  h.update_u32(static_cast<std::uint32_t>(strategy_tag));
  h.update_u32(elem_bytes);
  h.update_u64(p.size());
  h.update_u64(fingerprint_permutation(p).value);
  return Fingerprint{h.digest()};
}

}  // namespace hmm::runtime
