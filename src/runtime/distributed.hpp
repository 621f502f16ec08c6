#pragma once
/// \file distributed.hpp
/// \brief A permutation across shards as pack -> one exchange -> merge.
///
/// The distributed path splits the n = rows x cols array into
/// contiguous *row bands*, one per shard (`BandPlan`). Element i starts
/// in band(i) and must end in band(p(i)); it crosses the network once,
/// and only when the two bands differ. Each shard runs three steps:
///
///  1. **pack** — gather its band so that elements leave grouped by
///     destination shard, in destination-position order within a group:
///     `packed[k] = in[pack[k]]`;
///  2. **exchange** — send group d to shard d as one contiguous block
///     (the self block never leaves), and receive one block per source,
///     stored in source order;
///  3. **merge** — gather the received blocks into the output band:
///     `out[j] = recv[merge[j]]`.
///
/// Both local steps are the single-node `cpu::gather`. On one node the
/// exchange is a no-op and the two gathers are the host's bucketed
/// kernel (core/bucketed.hpp), which runs on bands that fit a core's L2
/// instead of one band per shard. The paper makes
/// every round through global memory coalesced and touches each element
/// a constant number of times; one level up, every network message is
/// one contiguous block and each element crosses the network at most
/// once. Each shard sends and receives at most its band, so no link
/// carries more than a band whatever the permutation.
///
/// `BandExchange` holds one shard's tables: pack and merge (u32, 8 bytes
/// per band element) and the block lengths it sends and receives.
/// `compile` builds every shard's tables from p in O(n) with the
/// bucketed kernel's counting compile (`core::group_tables`, no skew,
/// the row bands as both source bands and destination chunks); a shard that
/// receives its tables from a coordinator adopts them through
/// `from_tables`, which validates them first.

#include <cstdint>
#include <span>
#include <vector>

#include "perm/permutation.hpp"
#include "runtime/status.hpp"
#include "util/aligned_vector.hpp"

namespace hmm::runtime {

/// Most shards one distributed execution may span (wire-level bound;
/// coordinators typically use far fewer).
inline constexpr std::uint32_t kMaxShards = 64;

/// Half-open row range [begin, end).
struct BandRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t rows() const noexcept { return end - begin; }
};

/// A rows x cols array split into `shards` contiguous row bands, the
/// first `rows % shards` one row longer. Value type, O(shards).
class BandPlan {
 public:
  /// Build the split. Fails (kInvalidArgument) when `shards` is 0,
  /// exceeds `kMaxShards`, or exceeds rows (every band needs a row).
  [[nodiscard]] static StatusOr<BandPlan> build(std::uint64_t rows, std::uint64_t cols,
                                                std::uint32_t shards);

  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(row_bands_.size());
  }
  [[nodiscard]] const BandRange& row_band(std::uint32_t s) const noexcept {
    return row_bands_[s];
  }

  /// Element offset / length of shard s's band in the flat n-array
  /// (bands are contiguous, in shard order — the coordinator slices the
  /// input and concatenates the outputs with no reshuffling).
  [[nodiscard]] std::uint64_t band_offset(std::uint32_t s) const noexcept {
    return row_bands_[s].begin * cols_;
  }
  [[nodiscard]] std::uint64_t band_elements(std::uint32_t s) const noexcept {
    return row_bands_[s].rows() * cols_;
  }

 private:
  BandPlan() = default;

  std::uint64_t rows_ = 0;
  std::uint64_t cols_ = 0;
  std::vector<BandRange> row_bands_;
};

/// One shard's part of a distributed permutation: its pack and merge
/// gather tables and the length of every block it sends and receives.
/// It borrows nothing, so a server can keep one per hot plan.
class BandExchange {
 public:
  using Table = util::aligned_vector<std::uint32_t>;
  using Counts = std::vector<std::uint64_t>;

  /// Every shard's tables for `p` under `bands` (entry s is shard s),
  /// from `core::group_tables`' three linear passes on the global pool. Fails
  /// (kInvalidArgument) when p does not have rows x cols elements.
  [[nodiscard]] static StatusOr<std::vector<BandExchange>> compile(const perm::Permutation& p,
                                                                   const BandPlan& bands);

  /// Adopt received tables for shard `shard` of `bands`. Validates
  /// before keeping anything, each failure a distinct kInvalidArgument:
  /// `shard` below the shard count; one send and one receive length per
  /// shard, each list summing to the band; the self block as long sent
  /// as received; pack and merge each a permutation of the band (an
  /// entry past the band would gather out of bounds, a repeated one
  /// would leave an output slot unwritten).
  [[nodiscard]] static StatusOr<BandExchange> from_tables(BandPlan bands, std::uint32_t shard,
                                                          Counts send, Counts recv, Table pack,
                                                          Table merge);

  [[nodiscard]] const BandPlan& bands() const noexcept { return bands_; }
  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
  [[nodiscard]] std::uint64_t elements() const noexcept { return pack_.size(); }

  /// Elements this shard sends shard d, and receives from shard src.
  [[nodiscard]] std::span<const std::uint64_t> send() const noexcept { return send_; }
  [[nodiscard]] std::span<const std::uint64_t> recv() const noexcept { return recv_; }
  /// Where the block for shard d starts in the packed band, and where
  /// the block from shard src starts in the receive buffer.
  [[nodiscard]] std::uint64_t send_offset(std::uint32_t d) const noexcept {
    return send_offset_[d];
  }
  [[nodiscard]] std::uint64_t recv_offset(std::uint32_t src) const noexcept {
    return recv_offset_[src];
  }

  [[nodiscard]] std::span<const std::uint32_t> pack() const noexcept { return pack_; }
  [[nodiscard]] std::span<const std::uint32_t> merge() const noexcept { return merge_; }
  /// Bytes of the two gather tables (8 per band element).
  [[nodiscard]] std::uint64_t table_bytes() const noexcept {
    return (pack_.size() + merge_.size()) * sizeof(std::uint32_t);
  }

 private:
  BandExchange(BandPlan bands, std::uint32_t shard, Counts send, Counts recv, Table pack,
               Table merge);

  BandPlan bands_;
  std::uint32_t shard_ = 0;
  Counts send_;
  Counts recv_;
  Counts send_offset_;
  Counts recv_offset_;
  Table pack_;
  Table merge_;
};

}  // namespace hmm::runtime
