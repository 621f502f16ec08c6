#pragma once
/// \file distributed.hpp
/// \brief Band decomposition of the scheduled permutation across shards
///        (ROADMAP "horizontal sharding, phase 2").
///
/// The paper executes a permutation on n = rows x cols elements as
/// row-wise pass -> transpose -> row-wise pass -> transpose -> row-wise
/// pass. The distributed analogue splits the matrix into contiguous
/// *row bands*, one per shard: every row-wise pass is embarrassingly
/// band-local (a row never leaves its band), and each transpose becomes
/// an all-to-all *column exchange* — shard s owns rows R_s of the
/// rows x cols view and rows C_s (its column band) of the transposed
/// cols x rows view, so the transpose moves exactly the block
/// R_s x C_t from shard s to shard t, for every ordered pair (s, t).
/// Each block moves exactly once and the per-link volumes are balanced
/// (they differ only by the +/-1 row remainder of the band split), so
/// the exchange is contention-free in the same sense the bank schedules
/// make the shared-memory scatters conflict-free — one level up.
///
/// `BandPlan` is pure geometry (band ranges + the exchange block list);
/// `BandPlanner` holds one shard's rows of each pass's gather table. A
/// shard runs each pass as `cpu::row_sweep` on its rows, so the planner
/// keeps them row-major (the plan stores the first two tables
/// band-interleaved for the single-node fused sweeps); the entries a
/// shard runs are the ones a single node would run. The coordinator
/// slices them from the one compiled `core::ScheduledPlan` (`build`)
/// and ships them; the shard rebuilds the planner from the received
/// rows (`from_rows`), which validates them first.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "util/aligned_vector.hpp"
#include "runtime/status.hpp"

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

/// One block of the column exchange: shard `src` sends rows
/// [row_begin, row_end) x columns [col_begin, col_end) of *its current
/// local view* to shard `dst`, laid out row-major within the block.
struct BlockTransfer {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
  std::uint64_t col_begin = 0;
  std::uint64_t col_end = 0;

  [[nodiscard]] std::uint64_t elements() const noexcept {
    return (row_end - row_begin) * (col_end - col_begin);
  }
};

/// Band geometry + exchange schedule for a rows x cols matrix split
/// across `shards` row bands. Value type: cheap to copy (O(shards^2)).
class BandPlan {
 public:
  /// Build the split. Fails (kInvalidArgument) when `shards` is 0,
  /// exceeds `kMaxShards`, or exceeds rows (every band needs at least
  /// one row of both the natural and the transposed view; rows <= cols
  /// by shape_for, so rows is the binding bound).
  [[nodiscard]] static StatusOr<BandPlan> build(std::uint64_t rows, std::uint64_t cols,
                                                std::uint32_t shards);

  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(row_bands_.size());
  }

  /// Shard s's rows of the rows x cols view (passes 1 and 3).
  [[nodiscard]] const BandRange& row_band(std::uint32_t s) const noexcept {
    return row_bands_[s];
  }
  /// Shard s's rows of the transposed cols x rows view (pass 2).
  [[nodiscard]] const BandRange& col_band(std::uint32_t s) const noexcept {
    return col_bands_[s];
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
  /// Elements of shard s's slice of the transposed view (the staging
  /// buffer the first exchange assembles).
  [[nodiscard]] std::uint64_t transposed_elements(std::uint32_t s) const noexcept {
    return col_bands_[s].rows() * rows_;
  }

  /// The full exchange schedule of round 1 (after pass 1; blocks of the
  /// rows x cols view) or round 2 (after pass 2; blocks of the
  /// cols x rows view). shards^2 entries, each (src, dst) exactly once.
  [[nodiscard]] std::span<const BlockTransfer> exchange(std::uint32_t round) const noexcept {
    return round == 1 ? std::span<const BlockTransfer>(round1_)
                      : std::span<const BlockTransfer>(round2_);
  }

  /// The single block shard `src` sends shard `dst` in `round`.
  [[nodiscard]] const BlockTransfer& block(std::uint32_t round, std::uint32_t src,
                                           std::uint32_t dst) const noexcept {
    const auto& sched = round == 1 ? round1_ : round2_;
    return sched[static_cast<std::size_t>(src) * shards() + dst];
  }

 private:
  BandPlan() = default;

  std::uint64_t rows_ = 0;
  std::uint64_t cols_ = 0;
  std::vector<BandRange> row_bands_;
  std::vector<BandRange> col_bands_;
  std::vector<BlockTransfer> round1_;  ///< src-major, dst-minor
  std::vector<BlockTransfer> round2_;
};

/// One band's rows of a pass's gather table (row-major), borrowed
/// from the planner.
struct BandPassView {
  std::uint64_t rows = 0;  ///< rows this band executes
  std::uint64_t cols = 0;  ///< row length of the pass
  std::span<const std::uint16_t> gather;
};

/// One shard's slice of a compiled plan: the band geometry and the
/// shard's rows of the three passes' gather tables, row-major (6 bytes
/// per element of its band). It borrows nothing, so a server can keep
/// one per hot plan.
class BandPlanner {
 public:
  using Tables = std::array<util::aligned_vector<std::uint16_t>, 3>;

  /// Slice shard `shard`'s rows out of a compiled plan. Fails
  /// (kInvalidArgument) when the split is infeasible for the plan's
  /// shape (see BandPlan::build) or `shard` is not below `shards`.
  [[nodiscard]] static StatusOr<BandPlanner> build(const core::ScheduledPlan& plan,
                                                   std::uint32_t shards, std::uint32_t shard);

  /// Adopt received rows (pass 1, 2, 3, row-major) for shard `shard`
  /// of `bands`. Validates before keeping anything, each failure a
  /// distinct kInvalidArgument: `shard` below the shard count, every
  /// table exactly as long as the band geometry says, and every row a
  /// permutation of its width (an entry past the row would gather out
  /// of bounds; a repeated one would leave an output slot unwritten).
  [[nodiscard]] static StatusOr<BandPlanner> from_rows(BandPlan bands, std::uint32_t shard,
                                                       Tables gather);

  /// Entries of shard `shard`'s pass-`pass` (1..3) table under `bands`.
  [[nodiscard]] static std::uint64_t table_entries(const BandPlan& bands, std::uint32_t shard,
                                                   unsigned pass) noexcept {
    return pass == 2 ? bands.transposed_elements(shard) : bands.band_elements(shard);
  }

  [[nodiscard]] const BandPlan& bands() const noexcept { return bands_; }
  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
  /// Bytes of gather rows held (2 per table entry).
  [[nodiscard]] std::uint64_t table_bytes() const noexcept {
    return (gather_[0].size() + gather_[1].size() + gather_[2].size()) *
           sizeof(std::uint16_t);
  }

  /// The shard's rows of pass 1 / 2 / 3. Pass 1 and 3 run over its row
  /// band of the rows x cols view; pass 2 over its column band of the
  /// transposed cols x rows view.
  [[nodiscard]] BandPassView pass1() const noexcept {
    return view(0, bands_.row_band(shard_), bands_.cols());
  }
  [[nodiscard]] BandPassView pass2() const noexcept {
    return view(1, bands_.col_band(shard_), bands_.rows());
  }
  [[nodiscard]] BandPassView pass3() const noexcept {
    return view(2, bands_.row_band(shard_), bands_.cols());
  }

 private:
  BandPlanner(BandPlan bands, std::uint32_t shard) : bands_(std::move(bands)), shard_(shard) {}

  [[nodiscard]] BandPassView view(std::size_t pass, const BandRange& band,
                                  std::uint64_t cols) const noexcept {
    return BandPassView{.rows = band.rows(), .cols = cols, .gather = gather_[pass]};
  }

  BandPlan bands_;
  std::uint32_t shard_ = 0;
  Tables gather_;  ///< row-major, per pass
};

/// Extract the round-1 block (src -> dst) from shard src's pass-1
/// output `y_local` (its row band of the rows x cols view, row-major)
/// into `block` (row-major, band_rows(src) x col_rows(dst) entries).
void extract_block_round1(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> y_local,
                          std::span<std::uint32_t> block);

/// Scatter a round-1 block from `src` into shard dst's slice of the
/// transposed view `z_local` (col_band(dst).rows() x rows, row-major):
/// the receive side of transpose 1.
void scatter_block_round1(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> block,
                          std::span<std::uint32_t> z_local);

/// Extract the round-2 block (src -> dst) from shard src's pass-2
/// output `w_local` (its column band of the cols x rows view,
/// row-major) into `block` (row-major, col_rows(src) x band_rows(dst)).
void extract_block_round2(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> w_local,
                          std::span<std::uint32_t> block);

/// Scatter a round-2 block from `src` into shard dst's pass-3 input
/// `x_local` (band_rows(dst) x cols, row-major): the receive side of
/// transpose 2.
void scatter_block_round2(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> block,
                          std::span<std::uint32_t> x_local);

}  // namespace hmm::runtime
