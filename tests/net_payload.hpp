#pragma once
/// Whole HMMP payloads for the networked test suites, built the way
/// every sender builds them: an encoder's prefix (net/protocol.hpp),
/// then the element words in wire order.

#include <cstdint>
#include <span>
#include <vector>

#include "net/protocol.hpp"
#include "runtime/distributed.hpp"

namespace hmm::test {

/// `prefix` (an encoder's output), then `words`.
template <typename Prefix>
std::vector<std::uint8_t> payload_of(const Prefix& prefix,
                                     std::span<const std::uint32_t> words = {}) {
  std::vector<std::uint8_t> out(prefix.data(), prefix.data() + prefix.size());
  std::vector<std::uint8_t> staging;
  const std::span<const std::uint8_t> bytes = net::wire_words(words, staging);
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

/// A SHARD_PLAN payload priming `band` of plan `plan_id`.
inline std::vector<std::uint8_t> shard_plan_payload(std::uint64_t plan_id,
                                                    const runtime::BandExchange& band) {
  std::vector<std::uint8_t> out = payload_of(
      net::encode_shard_plan(plan_id, band.bands(), band.shard(), band.send(), band.recv()),
      band.pack());
  const std::vector<std::uint8_t> merge = payload_of(std::vector<std::uint8_t>{}, band.merge());
  out.insert(out.end(), merge.begin(), merge.end());
  return out;
}

/// The words a decoded view borrows, copied out.
inline std::vector<std::uint32_t> words_of(const net::WordsView& words) {
  std::vector<std::uint32_t> out(words.count);
  words.copy_to(out);
  return out;
}

}  // namespace hmm::test
