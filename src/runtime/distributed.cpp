#include "runtime/distributed.hpp"

#include <string>
#include <utility>

#include "core/bucketed.hpp"

namespace hmm::runtime {

namespace {

/// Even split of `total` rows into `parts` contiguous bands; the first
/// `total % parts` bands take one extra row.
std::vector<BandRange> split(std::uint64_t total, std::uint32_t parts) {
  std::vector<BandRange> bands(parts);
  const std::uint64_t base = total / parts;
  const std::uint64_t rem = total % parts;
  std::uint64_t at = 0;
  for (std::uint32_t s = 0; s < parts; ++s) {
    const std::uint64_t take = base + (s < rem ? 1 : 0);
    bands[s] = BandRange{at, at + take};
    at += take;
  }
  return bands;
}

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

StatusOr<BandPlan> BandPlan::build(std::uint64_t rows, std::uint64_t cols,
                                   std::uint32_t shards) {
  if (shards == 0 || shards > kMaxShards) {
    return Status(StatusCode::kInvalidArgument,
                  "band plan: shard count must be in [1, " +
                      std::to_string(kMaxShards) + "]");
  }
  if (rows == 0 || cols == 0) {
    return Status(StatusCode::kInvalidArgument, "band plan: empty matrix");
  }
  if (shards > rows) {
    return Status(StatusCode::kInvalidArgument,
                  "band plan: more shards (" + std::to_string(shards) +
                      ") than matrix rows (" + std::to_string(rows) + ")");
  }
  BandPlan plan;
  plan.rows_ = rows;
  plan.cols_ = cols;
  plan.row_bands_ = split(rows, shards);
  return plan;
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

StatusOr<std::vector<BandExchange>> BandExchange::compile(const perm::Permutation& p,
                                                          const BandPlan& bands) {
  const std::uint64_t n = bands.rows() * bands.cols();
  if (p.size() != n) {
    return Status(StatusCode::kInvalidArgument,
                  "band exchange: permutation size does not match the band split");
  }
  const std::uint32_t shards = bands.shards();
  std::vector<std::uint64_t> bounds(shards + 1, n);
  for (std::uint32_t s = 0; s < shards; ++s) bounds[s] = bands.band_offset(s);

  // The host's bucketed compile with the row bands as both the source
  // bands and the destination chunks, and no skew: band s's packed
  // region is its band, and chunk d's received buffer is shard d's.
  Table pack(n), merge(n);
  const core::GroupCounts recv = core::group_tables<std::uint32_t>(
      p, bounds, bounds, 0, core::MergeInto::kReceived, std::span<std::uint32_t>(pack),
      std::span<std::uint32_t>(merge));

  std::vector<BandExchange> result;
  result.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    Counts send(shards);
    for (std::uint32_t d = 0; d < shards; ++d) send[d] = recv[d][s];
    const auto band = [&](const Table& t) {
      return Table(t.begin() + static_cast<std::ptrdiff_t>(bounds[s]),
                   t.begin() + static_cast<std::ptrdiff_t>(bounds[s + 1]));
    };
    result.push_back(BandExchange(bands, s, std::move(send), recv[s], band(pack), band(merge)));
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
