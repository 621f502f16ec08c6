#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <vector>

#include "core/row_schedule.hpp"
#include "util/rng.hpp"

namespace hmm::core {
namespace {

std::vector<std::uint16_t> random_row_perm(std::uint64_t len, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint16_t> g(len);
  std::iota(g.begin(), g.end(), 0);
  for (std::uint64_t i = len - 1; i > 0; --i) {
    std::swap(g[i], g[rng.bounded(i + 1)]);
  }
  return g;
}

TEST(RowSchedule, IdentityRow) {
  const std::uint32_t w = 4;
  std::vector<std::uint16_t> g(16);
  std::iota(g.begin(), g.end(), 0);
  std::vector<std::uint16_t> phat(16), q(16);
  build_row_schedule(g, w, phat, q);
  EXPECT_TRUE(row_schedule_valid(g, phat, q, w));
}

TEST(RowSchedule, ReversalRow) {
  const std::uint32_t w = 4;
  std::vector<std::uint16_t> g(16);
  for (std::uint64_t j = 0; j < 16; ++j) g[j] = static_cast<std::uint16_t>(15 - j);
  std::vector<std::uint16_t> phat(16), q(16);
  build_row_schedule(g, w, phat, q);
  EXPECT_TRUE(row_schedule_valid(g, phat, q, w));
}

TEST(RowSchedule, WorstCaseAllSameBank) {
  // g maps bank-0 positions onto bank-0 positions etc., maximizing
  // parallel edges in the bank graph.
  const std::uint32_t w = 4;
  const std::uint64_t len = 16;
  std::vector<std::uint16_t> g(len);
  // Stride permutation: j -> (j*4 + j/4) within the row keeps whole
  // bank classes together.
  for (std::uint64_t j = 0; j < len; ++j) {
    g[j] = static_cast<std::uint16_t>((j * 4 + j / 4) % len);
  }
  std::vector<std::uint16_t> phat(len), q(len);
  build_row_schedule(g, w, phat, q);
  EXPECT_TRUE(row_schedule_valid(g, phat, q, w));
}

TEST(RowSchedule, RandomRowsManySeeds) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto g = random_row_perm(64, seed);
    std::vector<std::uint16_t> phat(64), q(64);
    build_row_schedule(g, 8, phat, q);
    EXPECT_TRUE(row_schedule_valid(g, phat, q, 8)) << "seed " << seed;
  }
}

TEST(RowSchedule, ValidatorRejectsBrokenSchedules) {
  const std::uint32_t w = 4;
  const auto g = random_row_perm(16, 3);
  std::vector<std::uint16_t> phat(16), q(16);
  build_row_schedule(g, w, phat, q);
  ASSERT_TRUE(row_schedule_valid(g, phat, q, w));

  // Corrupt q: schedule no longer realizes g.
  auto q_bad = q;
  std::swap(q_bad[0], q_bad[1]);
  EXPECT_FALSE(row_schedule_valid(g, phat, q_bad, w));

  // Corrupt phat into a non-permutation.
  auto phat_bad = phat;
  phat_bad[0] = phat_bad[1];
  EXPECT_FALSE(row_schedule_valid(g, phat_bad, q, w));

  // Break the bank property while keeping g = q ∘ phat^-1: swap two
  // full slots across warps whose banks then collide.
  if (phat.size() >= 2 * w) {
    auto phat_sw = phat;
    auto q_sw = q;
    // Move slot 0 (bank b) into warp 1 next to warp 1's same-bank slot.
    std::swap(phat_sw[0], phat_sw[w + 1]);
    std::swap(q_sw[0], q_sw[w + 1]);
    // Still realizes g, but warp banks may now collide; only assert the
    // validator stays consistent (accepts iff banks distinct).
    const bool valid = row_schedule_valid(g, phat_sw, q_sw, w);
    bool banks_ok = true;
    for (std::uint64_t warp = 0; warp < phat_sw.size(); warp += w) {
      std::uint64_t src = 0, dst = 0;
      for (std::uint32_t k = 0; k < w; ++k) {
        src |= 1ull << (phat_sw[warp + k] % w);
        dst |= 1ull << (q_sw[warp + k] % w);
      }
      banks_ok &= (std::popcount(src) == static_cast<int>(w) &&
                   std::popcount(dst) == static_cast<int>(w));
    }
    EXPECT_EQ(valid, banks_ok);
  }
}

TEST(RowSchedule, SetBuildsAllRows) {
  const std::uint64_t rows = 8, cols = 32;
  const std::uint32_t w = 8;
  std::vector<std::uint16_t> g(rows * cols);
  for (std::uint64_t r = 0; r < rows; ++r) {
    const auto row = random_row_perm(cols, r + 100);
    std::copy(row.begin(), row.end(), g.begin() + r * cols);
  }
  const RowScheduleSet set = build_row_schedules(g, rows, cols, w);
  EXPECT_EQ(set.rows, rows);
  EXPECT_EQ(set.cols, cols);
  EXPECT_EQ(set.bytes(), 2 * rows * cols * sizeof(std::uint16_t));
  for (std::uint64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(row_schedule_valid({g.data() + r * cols, cols}, set.phat_row(r),
                                   set.q_row(r), w))
        << "row " << r;
  }
}

// Sweep row length x width with every coloring algorithm.
class RowScheduleSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t,
                                                 graph::ColoringAlgorithm>> {};

TEST_P(RowScheduleSweep, Valid) {
  const auto [len, w, algo] = GetParam();
  if (len < w) GTEST_SKIP();
  const auto g = random_row_perm(len, len * 31 + w);
  std::vector<std::uint16_t> phat(len), q(len);
  build_row_schedule(g, w, phat, q, algo);
  EXPECT_TRUE(row_schedule_valid(g, phat, q, w));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RowScheduleSweep,
    ::testing::Combine(::testing::Values(8ull, 32ull, 128ull, 1024ull),
                       ::testing::Values(4u, 8u, 32u),
                       ::testing::Values(graph::ColoringAlgorithm::kEulerSplit,
                                         graph::ColoringAlgorithm::kMatchingPeel,
                                         graph::ColoringAlgorithm::kAlternatingPath)));

}  // namespace
}  // namespace hmm::core
