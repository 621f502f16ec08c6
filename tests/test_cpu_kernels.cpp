#include <gtest/gtest.h>

#include "core/row_schedule.hpp"
#include "cpu/kernels.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hmm::cpu {
namespace {

TEST(Kernels, ScatterGatherInverse) {
  util::ThreadPool pool(2);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 5);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n), c(n);
  scatter<float>(pool, a, b, p.data());
  gather<float>(pool, b, c, p.data());
  // gather with p undoes scatter with p: c[i] = b[p[i]] = a[i].
  EXPECT_EQ(c, a);
}

TEST(Kernels, TransposeBlockedMatchesNaive) {
  util::ThreadPool pool(2);
  for (auto [rows, cols] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {32, 32}, {64, 16}, {16, 64}, {100, 52}, {1, 128}, {128, 1}, {7, 13}}) {
    const std::uint64_t n = rows * cols;
    util::aligned_vector<float> a(n), t1(n), t2(n);
    util::Xoshiro256 rng(rows * 1000 + cols);
    for (auto& v : a) v = static_cast<float>(rng.bounded(1 << 20));
    transpose_blocked<float>(pool, a, t1, rows, cols, 32);
    transpose_naive<float>(pool, a, t2, rows, cols);
    EXPECT_EQ(t1, t2) << rows << "x" << cols;
  }
}

TEST(Kernels, TransposeInvolution) {
  util::ThreadPool pool(2);
  const std::uint64_t rows = 48, cols = 80;
  util::aligned_vector<double> a(rows * cols), t(rows * cols), back(rows * cols);
  util::Xoshiro256 rng(4);
  for (auto& v : a) v = rng.uniform01();
  transpose_blocked<double>(pool, a, t, rows, cols, 16);
  transpose_blocked<double>(pool, t, back, cols, rows, 16);
  EXPECT_EQ(back, a);
}

TEST(Kernels, TransposeTileSizeIrrelevantToResult) {
  util::ThreadPool pool(2);
  const std::uint64_t rows = 96, cols = 64;
  util::aligned_vector<float> a(rows * cols), ref(rows * cols);
  util::Xoshiro256 rng(5);
  for (auto& v : a) v = static_cast<float>(rng.bounded(997));
  transpose_naive<float>(pool, a, ref, rows, cols);
  for (std::uint64_t tile : {1ull, 3ull, 8ull, 32ull, 200ull}) {
    util::aligned_vector<float> out(rows * cols);
    transpose_blocked<float>(pool, a, out, rows, cols, tile);
    EXPECT_EQ(out, ref) << "tile " << tile;
  }
}

TEST(Kernels, BandOffsetCoversEveryEntryOnce) {
  // Full bands only, a masked last band, and fewer rows than one band.
  for (auto [rows, cols] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {16, 8}, {32, 5}, {17, 3}, {40, 7}, {5, 9}, {1, 1}}) {
    std::vector<int> hits(rows * cols, 0);
    for (std::uint64_t r = 0; r < rows; ++r) {
      for (std::uint64_t c = 0; c < cols; ++c) {
        const std::uint64_t off = band_offset(rows, cols, r, c);
        ASSERT_LT(off, rows * cols) << rows << "x" << cols << " (" << r << ", " << c << ")";
        ++hits[off];
        // Inside a band, one column's entries are contiguous by row.
        if (r % kBandRows != 0) {
          EXPECT_EQ(off, band_offset(rows, cols, r - 1, c) + 1);
        }
      }
    }
    for (const int h : hits) EXPECT_EQ(h, 1) << rows << "x" << cols;
  }
}

/// The gather table a row schedule set encodes: out[r][q(k)] =
/// in[r][p̂(k)], i.e. h[r][q(k)] = p̂(k).
std::vector<std::uint16_t> gather_of(const core::RowScheduleSet& set) {
  std::vector<std::uint16_t> h(set.rows * set.cols);
  for (std::uint64_t r = 0; r < set.rows; ++r) {
    const auto phat = set.phat_row(r);
    const auto q = set.q_row(r);
    for (std::uint64_t k = 0; k < set.cols; ++k) h[r * set.cols + q[k]] = phat[k];
  }
  return h;
}

/// Random per-row permutations g, rows x cols.
std::vector<std::uint16_t> random_rows(std::uint64_t rows, std::uint64_t cols,
                                       util::Xoshiro256& rng) {
  std::vector<std::uint16_t> g(rows * cols);
  for (std::uint64_t r = 0; r < rows; ++r) {
    auto* row = g.data() + r * cols;
    for (std::uint64_t j = 0; j < cols; ++j) row[j] = static_cast<std::uint16_t>(j);
    for (std::uint64_t j = cols - 1; j > 0; --j) std::swap(row[j], row[rng.bounded(j + 1)]);
  }
  return g;
}

TEST(Kernels, RowSweepOnScheduleGatherMatchesDirect) {
  util::ThreadPool pool(2);
  const std::uint64_t rows = 16, cols = 64;
  const std::uint32_t w = 8;
  // Random per-row permutations; the gather table a compiled schedule
  // encodes must realize out[r][g(j)] = in[r][j], like g itself.
  util::Xoshiro256 rng(6);
  const std::vector<std::uint16_t> g = random_rows(rows, cols, rng);
  const core::RowScheduleSet set = core::build_row_schedules(g, rows, cols, w);
  const std::vector<std::uint16_t> h = gather_of(set);

  const auto a = test::iota_data<float>(rows * cols);
  util::aligned_vector<float> b(rows * cols);
  row_sweep<float>(pool, a, b, rows, cols, h);
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t j = 0; j < cols; ++j) {
      EXPECT_EQ(b[r * cols + g[r * cols + j]], a[r * cols + j]);
    }
  }
}

TEST(Kernels, WorkOnIntegerTypes) {
  util::ThreadPool pool(1);
  const std::uint64_t n = 4096;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<std::uint64_t>(n);
  util::aligned_vector<std::uint64_t> b(n);
  scatter<std::uint64_t>(pool, a, b, p.data());
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);
}

/// Parameterized shape sweep: the schedule's gather table and g agree.
class RowPassShapes
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(RowPassShapes, ScheduleAndDirectAgree) {
  const auto [rows, cols] = GetParam();
  const std::uint32_t w = 4;
  if (cols % w != 0) GTEST_SKIP();
  util::ThreadPool pool(2);
  util::Xoshiro256 rng(rows * 31 + cols);
  const std::vector<std::uint16_t> g = random_rows(rows, cols, rng);
  const core::RowScheduleSet set = core::build_row_schedules(g, rows, cols, w);
  const auto a = test::iota_data<double>(rows * cols);
  util::aligned_vector<double> b1(rows * cols), b2(rows * cols);
  row_sweep<double>(pool, a, b1, rows, cols, gather_of(set));
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t j = 0; j < cols; ++j) b2[r * cols + g[r * cols + j]] = a[r * cols + j];
  }
  EXPECT_EQ(b1, b2);
}

INSTANTIATE_TEST_SUITE_P(Grid, RowPassShapes,
                         ::testing::Combine(::testing::Values(1ull, 2ull, 8ull, 64ull),
                                            ::testing::Values(4ull, 16ull, 128ull, 512ull)));

}  // namespace
}  // namespace hmm::cpu
