#include "runtime/distributed.hpp"

#include <string>
#include <utility>

#include "core/bucketed.hpp"

namespace hmm::runtime {

namespace {

/// Exclusive prefix sums of `counts`.
BandExchange::Counts offsets(const BandExchange::Counts& counts) {
  BandExchange::Counts out(counts.size());
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out[i] = at;
    at += counts[i];
  }
  return out;
}

/// True iff `counts` sums to exactly `total` (no wraparound on the way).
bool sums_to(const BandExchange::Counts& counts, std::uint64_t total) {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) {
    if (c > total - sum) return false;
    sum += c;
  }
  return sum == total;
}

}  // namespace

StatusOr<BandPlan> BandPlan::build(std::uint64_t n, std::uint32_t shards) {
  if (shards == 0 || shards > kMaxShards) {
    return Status(StatusCode::kInvalidArgument,
                  "band plan: shard count must be in [1, " +
                      std::to_string(kMaxShards) + "]");
  }
  if (shards > n) {
    return Status(StatusCode::kInvalidArgument,
                  "band plan: more shards (" + std::to_string(shards) +
                      ") than elements (" + std::to_string(n) + ")");
  }
  return BandPlan(n, shards);
}

BandExchange::BandExchange(BandPlan bands, std::uint32_t shard, Counts send, Counts recv,
                           Table pack, Table merge)
    : bands_(std::move(bands)),
      shard_(shard),
      send_(std::move(send)),
      recv_(std::move(recv)),
      send_offset_(offsets(send_)),
      recv_offset_(offsets(recv_)),
      pack_(std::move(pack)),
      merge_(std::move(merge)) {}

StatusOr<std::vector<BandExchange::Counts>> BandExchange::compile_into(
    const perm::Permutation& p, const BandPlan& bands, std::span<std::uint32_t* const> pack,
    std::span<std::uint32_t* const> merge) {
  const std::uint64_t n = bands.elements();
  if (p.size() != n) {
    return Status(StatusCode::kInvalidArgument,
                  "band exchange: permutation size does not match the band split");
  }
  const std::uint32_t shards = bands.shards();
  std::vector<std::uint64_t> bounds(shards + 1, n);
  for (std::uint32_t s = 0; s < shards; ++s) bounds[s] = bands.band_offset(s);

  // The host's bucketed compile with the bands as both the source
  // bands and the destination chunks, and no skew: band s's packed
  // region is its band, and chunk d's received buffer is shard d's.
  return core::group_tables<std::uint32_t>(p, bounds, bounds, 0, core::MergeInto::kReceived,
                                           pack, merge);
}

StatusOr<std::vector<BandExchange>> BandExchange::compile(const perm::Permutation& p,
                                                          const BandPlan& bands) {
  std::vector<Table> pack(bands.shards()), merge(bands.shards());
  std::vector<std::uint32_t*> pack_at, merge_at;
  for (std::uint32_t s = 0; s < bands.shards(); ++s) {
    pack[s].resize(bands.band_elements(s));
    merge[s].resize(bands.band_elements(s));
    pack_at.push_back(pack[s].data());
    merge_at.push_back(merge[s].data());
  }
  StatusOr<std::vector<Counts>> recv = compile_into(p, bands, pack_at, merge_at);
  if (!recv.ok()) return recv.status();
  std::vector<BandExchange> result;
  result.reserve(bands.shards());
  for (std::uint32_t s = 0; s < bands.shards(); ++s) {
    Counts send(bands.shards());
    for (std::uint32_t d = 0; d < bands.shards(); ++d) send[d] = recv.value()[d][s];
    result.push_back(BandExchange(bands, s, std::move(send), recv.value()[s],
                                  std::move(pack[s]), std::move(merge[s])));
  }
  return result;
}

StatusOr<BandExchange> BandExchange::from_tables(BandPlan bands, std::uint32_t shard,
                                                 Counts send, Counts recv, Table pack,
                                                 Table merge) {
  const auto invalid = [](const char* why) {
    return Status(StatusCode::kInvalidArgument, std::string("band exchange: ") + why);
  };
  if (shard >= bands.shards()) return invalid("shard index out of range");
  if (send.size() != bands.shards() || recv.size() != bands.shards()) {
    return invalid("need one send and one receive length per shard");
  }
  const std::uint64_t band = bands.band_elements(shard);
  if (!sums_to(send, band)) return invalid("send lengths do not sum to the band");
  if (!sums_to(recv, band)) return invalid("receive lengths do not sum to the band");
  if (send[shard] != recv[shard]) return invalid("the self block differs sent and received");
  if (pack.size() != band || merge.size() != band) {
    return invalid("table length does not match the band");
  }
  if (!perm::Permutation::is_valid(pack)) {
    return invalid("pack table is not a permutation of the band");
  }
  if (!perm::Permutation::is_valid(merge)) {
    return invalid("merge table is not a permutation of the band");
  }
  return BandExchange(std::move(bands), shard, std::move(send), std::move(recv),
                      std::move(pack), std::move(merge));
}

}  // namespace hmm::runtime
