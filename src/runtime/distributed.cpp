#include "runtime/distributed.hpp"

#include <string>
#include <utility>

#include "util/thread_pool.hpp"

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
  util::ThreadPool& pool = util::ThreadPool::global();
  const auto band_end = [&](std::uint32_t s) {
    return bands.band_offset(s) + bands.band_elements(s);
  };

  // Pass 1: for every destination j, the element that lands there and
  // the shard it comes from. p is a bijection, so chunks of sources
  // write disjoint destinations.
  Table pinv(n);
  std::vector<std::uint8_t> source(n);
  pool.parallel_for_chunks(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
    std::uint32_t s = 0;
    while (lo >= band_end(s)) ++s;
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (i == band_end(s)) ++s;
      const std::uint32_t j = p(i);
      pinv[j] = static_cast<std::uint32_t>(i);
      source[j] = static_cast<std::uint8_t>(s);
    }
  });

  // Pass 2, one task per destination band d: recv[d][s] = positions of
  // band d fed from band s, which is also the length of the block s
  // sends d.
  std::vector<Counts> recv(shards, Counts(shards, 0));
  pool.parallel_for(0, shards, [&](std::uint64_t task) {
    const auto d = static_cast<std::uint32_t>(task);
    for (std::uint64_t j = bands.band_offset(d); j < band_end(d); ++j) ++recv[d][source[j]];
  });

  // Pass 3, one task per destination band d, in destination order. Each
  // source's group for d starts after its groups for the bands before
  // d and fills in destination order — exactly the order its block for
  // d arrives in — and each merge entry is the next unread slot of its
  // source's block.
  std::vector<Table> pack(shards);
  std::vector<Table> merge(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    pack[s].resize(bands.band_elements(s));
    merge[s].resize(bands.band_elements(s));
  }
  std::vector<Counts> group(shards, Counts(shards, 0));  // group[d][s]: s's group for d
  for (std::uint32_t d = 1; d < shards; ++d) {
    for (std::uint32_t s = 0; s < shards; ++s) group[d][s] = group[d - 1][s] + recv[d - 1][s];
  }
  pool.parallel_for(0, shards, [&](std::uint64_t task) {
    const auto d = static_cast<std::uint32_t>(task);
    Counts next = offsets(recv[d]);
    Counts& at = group[d];
    const std::uint64_t lo = bands.band_offset(d);
    std::uint32_t* out = merge[d].data();
    for (std::uint64_t j = lo; j < band_end(d); ++j) {
      const std::uint8_t s = source[j];
      pack[s][at[s]++] = pinv[j] - static_cast<std::uint32_t>(bands.band_offset(s));
      out[j - lo] = static_cast<std::uint32_t>(next[s]++);
    }
  });

  std::vector<Counts> send(shards, Counts(shards));
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t d = 0; d < shards; ++d) send[s][d] = recv[d][s];
  }
  std::vector<BandExchange> result;
  result.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    result.push_back(BandExchange(bands, s, std::move(send[s]), std::move(recv[s]),
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
