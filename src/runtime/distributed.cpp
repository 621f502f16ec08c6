#include "runtime/distributed.hpp"

#include <string>

#include "core/row_schedule.hpp"
#include "util/check.hpp"

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
  plan.col_bands_ = split(cols, shards);
  plan.round1_.reserve(static_cast<std::size_t>(shards) * shards);
  plan.round2_.reserve(static_cast<std::size_t>(shards) * shards);
  for (std::uint32_t src = 0; src < shards; ++src) {
    for (std::uint32_t dst = 0; dst < shards; ++dst) {
      // Round 1: the sender's view is its rows x cols row band; the
      // receiver owns columns col_band(dst) of it.
      plan.round1_.push_back(BlockTransfer{
          .src = src,
          .dst = dst,
          .row_begin = plan.row_bands_[src].begin,
          .row_end = plan.row_bands_[src].end,
          .col_begin = plan.col_bands_[dst].begin,
          .col_end = plan.col_bands_[dst].end,
      });
      // Round 2: the sender's view is its cols x rows slice of the
      // transposed matrix; the receiver owns columns row_band(dst).
      plan.round2_.push_back(BlockTransfer{
          .src = src,
          .dst = dst,
          .row_begin = plan.col_bands_[src].begin,
          .row_end = plan.col_bands_[src].end,
          .col_begin = plan.row_bands_[dst].begin,
          .col_end = plan.row_bands_[dst].end,
      });
    }
  }
  return plan;
}

StatusOr<BandPlanner> BandPlanner::build(const core::ScheduledPlan& plan,
                                         std::uint32_t shards, std::uint32_t shard) {
  if (shard >= shards) {
    return Status(StatusCode::kInvalidArgument, "band planner: shard index out of range");
  }
  auto bands = BandPlan::build(plan.shape().rows, plan.shape().cols, shards);
  if (!bands.ok()) return bands.status();
  BandPlanner planner(std::move(bands).value(), shard);
  const BandRange& rb = planner.bands_.row_band(shard);
  const BandRange& cb = planner.bands_.col_band(shard);
  planner.gather_[0] = plan.gather_rows(1, rb.begin, rb.end);
  planner.gather_[1] = plan.gather_rows(2, cb.begin, cb.end);
  planner.gather_[2] = plan.gather_rows(3, rb.begin, rb.end);
  return planner;
}

StatusOr<BandPlanner> BandPlanner::from_rows(BandPlan bands, std::uint32_t shard,
                                             Tables gather) {
  if (shard >= bands.shards()) {
    return Status(StatusCode::kInvalidArgument, "band planner: shard index out of range");
  }
  for (unsigned pass = 1; pass <= 3; ++pass) {
    if (gather[pass - 1].size() != table_entries(bands, shard, pass)) {
      return Status(StatusCode::kInvalidArgument,
                    "band planner: pass " + std::to_string(pass) +
                        " table length does not match the band geometry");
    }
  }
  for (unsigned pass = 1; pass <= 3; ++pass) {
    const std::uint64_t width = pass == 2 ? bands.rows() : bands.cols();
    if (!core::rows_are_permutations(gather[pass - 1], width)) {
      return Status(StatusCode::kInvalidArgument,
                    "band planner: a pass " + std::to_string(pass) +
                        " row is not a permutation of its width");
    }
  }
  BandPlanner planner(std::move(bands), shard);
  planner.gather_ = std::move(gather);
  return planner;
}

void extract_block_round1(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> y_local,
                          std::span<std::uint32_t> block) {
  const BlockTransfer& t = plan.block(1, src, dst);
  const std::uint64_t br = t.row_end - t.row_begin;
  const std::uint64_t bw = t.col_end - t.col_begin;
  HMM_CHECK(y_local.size() == plan.band_elements(src) && block.size() == br * bw);
  const std::uint64_t cols = plan.cols();
  for (std::uint64_t i = 0; i < br; ++i) {
    const std::uint32_t* row = y_local.data() + i * cols + t.col_begin;
    std::uint32_t* out = block.data() + i * bw;
    for (std::uint64_t j = 0; j < bw; ++j) out[j] = row[j];
  }
}

void scatter_block_round1(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> block,
                          std::span<std::uint32_t> z_local) {
  const BlockTransfer& t = plan.block(1, src, dst);
  const std::uint64_t br = t.row_end - t.row_begin;
  const std::uint64_t bw = t.col_end - t.col_begin;
  HMM_CHECK(block.size() == br * bw && z_local.size() == plan.transposed_elements(dst));
  // Transpose 1 is z[j * rows + i] = y[i * cols + j]; the receiver's
  // z_local row 0 is global column col_begin, so the block lands at
  // z_local[(j - col_begin) * rows + (row_begin + i)].
  const std::uint64_t rows = plan.rows();
  for (std::uint64_t i = 0; i < br; ++i) {
    const std::uint32_t* in = block.data() + i * bw;
    std::uint32_t* out = z_local.data() + t.row_begin + i;
    for (std::uint64_t j = 0; j < bw; ++j) out[j * rows] = in[j];
  }
}

void extract_block_round2(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> w_local,
                          std::span<std::uint32_t> block) {
  const BlockTransfer& t = plan.block(2, src, dst);
  const std::uint64_t br = t.row_end - t.row_begin;
  const std::uint64_t bw = t.col_end - t.col_begin;
  HMM_CHECK(w_local.size() == plan.transposed_elements(src) && block.size() == br * bw);
  const std::uint64_t rows = plan.rows();
  for (std::uint64_t i = 0; i < br; ++i) {
    const std::uint32_t* row = w_local.data() + i * rows + t.col_begin;
    std::uint32_t* out = block.data() + i * bw;
    for (std::uint64_t j = 0; j < bw; ++j) out[j] = row[j];
  }
}

void scatter_block_round2(const BandPlan& plan, std::uint32_t src, std::uint32_t dst,
                          std::span<const std::uint32_t> block,
                          std::span<std::uint32_t> x_local) {
  const BlockTransfer& t = plan.block(2, src, dst);
  const std::uint64_t br = t.row_end - t.row_begin;
  const std::uint64_t bw = t.col_end - t.col_begin;
  HMM_CHECK(block.size() == br * bw && x_local.size() == plan.band_elements(dst));
  // Transpose 2 is x[i * cols + j] = w[j * rows + i]; the receiver's
  // x_local row 0 is global row col_begin (= row_band(dst).begin), so
  // the block lands at x_local[(i - col_begin) * cols + (row_begin + j)].
  const std::uint64_t cols = plan.cols();
  for (std::uint64_t i = 0; i < br; ++i) {
    const std::uint32_t* in = block.data() + i * bw;
    std::uint32_t* out = x_local.data() + t.row_begin + i;
    for (std::uint64_t j = 0; j < bw; ++j) out[j * cols] = in[j];
  }
}

}  // namespace hmm::runtime
