/// Differential battery for the SIMD kernel tiers: every vector
/// variant must be BIT-identical to the scalar oracle — not just
/// value-equal. Outputs are compared with memcmp, and the float/double
/// runs are seeded with raw random bit patterns (which include NaNs,
/// denormals, and negative zeros), so a variant that round-trips
/// values through arithmetic instead of moving bits would be caught.
/// Shapes deliberately include odd tails (cols not a multiple of any
/// lane width), single rows/columns, and the batched quad-lane
/// geometries the serving path uses.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cpu/dispatch.hpp"
#include "cpu/kernels.hpp"
#include "perm/generators.hpp"
#include "util/aligned_vector.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hmm::cpu {
namespace {

/// Fill with raw random bits reinterpreted as T: exercises every bit
/// pattern, including ones that are not valid arithmetic values.
template <class T>
util::aligned_vector<T> random_bits(std::uint64_t n, std::uint64_t seed) {
  util::aligned_vector<T> v(n);
  util::Xoshiro256 rng(seed);
  for (auto& x : v) {
    const std::uint64_t bits = rng.next();
    std::memcpy(&x, &bits, sizeof(T));
  }
  return v;
}

/// Random permutation of [0, n) as uint16 (for row schedules).
std::vector<std::uint16_t> random_perm16(std::uint64_t n, util::Xoshiro256& rng) {
  std::vector<std::uint16_t> p(n);
  for (std::uint64_t j = 0; j < n; ++j) p[j] = static_cast<std::uint16_t>(j);
  for (std::uint64_t j = n - 1; j > 0; --j) std::swap(p[j], p[rng.bounded(j + 1)]);
  return p;
}

template <class T>
void expect_bit_identical(const util::aligned_vector<T>& got,
                          const util::aligned_vector<T>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0) << what;
}

/// Run `fn` with the given variant temporarily installed.
template <class Fn>
void with_variant(KernelVariant v, Fn&& fn) {
  const KernelVariant prev = kernel_variant();
  ASSERT_EQ(set_kernel_variant(v), v);
  fn();
  set_kernel_variant(prev);
}

/// Fixture parameterized by the variant under test; skips (not fails)
/// when the CPU or build cannot run it, so CI on older machines stays
/// green while still proving the scalar leg.
class SimdVariantTest : public ::testing::TestWithParam<KernelVariant> {
 protected:
  void SetUp() override {
    prev_ = kernel_variant();
    if (set_kernel_variant(GetParam()) != GetParam()) {
      set_kernel_variant(prev_);
      GTEST_SKIP() << "variant " << to_string(GetParam())
                   << " unsupported on this CPU/build";
    }
  }
  void TearDown() override { set_kernel_variant(prev_); }

  KernelVariant prev_{};
};

constexpr std::uint64_t kRowCounts[] = {1, 3, 17};
constexpr std::uint64_t kColCounts[] = {1, 7, 16, 24, 100, 257, 1000};

template <class T>
void run_row_pass_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  for (const std::uint64_t rows : kRowCounts) {
    for (const std::uint64_t cols : kColCounts) {
      const std::uint64_t n = rows * cols;
      util::Xoshiro256 rng(rows * 100003 + cols);
      std::vector<std::uint16_t> phat(n), q(n);
      for (std::uint64_t r = 0; r < rows; ++r) {
        const auto ph = random_perm16(cols, rng);
        const auto qq = random_perm16(cols, rng);
        std::copy(ph.begin(), ph.end(), phat.begin() + static_cast<std::ptrdiff_t>(r * cols));
        std::copy(qq.begin(), qq.end(), q.begin() + static_cast<std::ptrdiff_t>(r * cols));
      }
      const auto in = random_bits<T>(n, n + sizeof(T));
      util::aligned_vector<T> want(n), got(n);
      with_variant(KernelVariant::kScalar, [&] {
        row_wise_pass<T>(pool, in, want, rows, cols, phat, q);
      });
      with_variant(variant, [&] {
        row_wise_pass<T>(pool, in, got, rows, cols, phat, q);
      });
      expect_bit_identical(got, want, "row_wise_pass");
    }
  }
}

TEST_P(SimdVariantTest, RowPassBitIdenticalU32) {
  run_row_pass_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBitIdenticalU64) {
  run_row_pass_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBitIdenticalFloat) {
  run_row_pass_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBitIdenticalDouble) {
  run_row_pass_differential<double>(GetParam());
}

template <class T>
void run_row_pass_batched_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::uint64_t rows = 5;
  for (const std::uint64_t cols : {24ull, 100ull, 256ull}) {
    for (const std::uint64_t lanes : {1ull, 2ull, 4ull, 5ull, 9ull}) {
      const std::uint64_t n = rows * cols;
      util::Xoshiro256 rng(cols * 31 + lanes);
      std::vector<std::uint16_t> phat(n), q(n);
      for (std::uint64_t r = 0; r < rows; ++r) {
        const auto ph = random_perm16(cols, rng);
        const auto qq = random_perm16(cols, rng);
        std::copy(ph.begin(), ph.end(), phat.begin() + static_cast<std::ptrdiff_t>(r * cols));
        std::copy(qq.begin(), qq.end(), q.begin() + static_cast<std::ptrdiff_t>(r * cols));
      }
      std::vector<util::aligned_vector<T>> ins, wants, gots;
      std::vector<const T*> srcs;
      std::vector<T*> want_ptrs, got_ptrs;
      for (std::uint64_t l = 0; l < lanes; ++l) {
        ins.push_back(random_bits<T>(n, l * 7919 + cols));
        wants.emplace_back(n);
        gots.emplace_back(n);
      }
      for (std::uint64_t l = 0; l < lanes; ++l) {
        srcs.push_back(ins[l].data());
        want_ptrs.push_back(wants[l].data());
        got_ptrs.push_back(gots[l].data());
      }
      with_variant(KernelVariant::kScalar, [&] {
        row_wise_pass_batched<T>(pool, srcs, want_ptrs, rows, cols, phat, q);
      });
      with_variant(variant, [&] {
        row_wise_pass_batched<T>(pool, srcs, got_ptrs, rows, cols, phat, q);
      });
      for (std::uint64_t l = 0; l < lanes; ++l) {
        expect_bit_identical(gots[l], wants[l], "row_wise_pass_batched");
      }
    }
  }
}

TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalU32) {
  run_row_pass_batched_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalU64) {
  run_row_pass_batched_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalFloat) {
  run_row_pass_batched_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, RowPassBatchedBitIdenticalDouble) {
  run_row_pass_batched_differential<double>(GetParam());
}

template <class T>
void run_transpose_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {7, 13}, {32, 32}, {100, 52}, {1, 128}, {128, 1}, {64, 16}, {33, 17}};
  for (const auto [rows, cols] : shapes) {
    for (const std::uint64_t tile : {1ull, 5ull, 16ull, 32ull}) {
      const std::uint64_t n = rows * cols;
      const auto in = random_bits<T>(n, rows * 31 + cols * 7 + tile);
      util::aligned_vector<T> want(n), got(n);
      with_variant(KernelVariant::kScalar, [&] {
        transpose_blocked<T>(pool, in, want, rows, cols, tile);
      });
      with_variant(variant, [&] {
        transpose_blocked<T>(pool, in, got, rows, cols, tile);
      });
      expect_bit_identical(got, want, "transpose_blocked");
    }
  }
}

TEST_P(SimdVariantTest, TransposeBitIdenticalU32) {
  run_transpose_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBitIdenticalU64) {
  run_transpose_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBitIdenticalFloat) {
  run_transpose_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBitIdenticalDouble) {
  run_transpose_differential<double>(GetParam());
}

template <class T>
void run_transpose_batched_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::uint64_t rows = 33, cols = 21;
  const std::uint64_t n = rows * cols;
  for (const std::uint64_t lanes : {1ull, 2ull, 4ull, 5ull, 9ull}) {
    std::vector<util::aligned_vector<T>> ins, wants, gots;
    std::vector<const T*> srcs;
    std::vector<T*> want_ptrs, got_ptrs;
    for (std::uint64_t l = 0; l < lanes; ++l) {
      ins.push_back(random_bits<T>(n, l * 104729 + lanes));
      wants.emplace_back(n);
      gots.emplace_back(n);
    }
    for (std::uint64_t l = 0; l < lanes; ++l) {
      srcs.push_back(ins[l].data());
      want_ptrs.push_back(wants[l].data());
      got_ptrs.push_back(gots[l].data());
    }
    with_variant(KernelVariant::kScalar, [&] {
      transpose_blocked_batched<T>(pool, srcs, want_ptrs, rows, cols, 16);
    });
    with_variant(variant, [&] {
      transpose_blocked_batched<T>(pool, srcs, got_ptrs, rows, cols, 16);
    });
    for (std::uint64_t l = 0; l < lanes; ++l) {
      expect_bit_identical(gots[l], wants[l], "transpose_blocked_batched");
    }
  }
}

TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalU32) {
  run_transpose_batched_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalU64) {
  run_transpose_batched_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalFloat) {
  run_transpose_batched_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, TransposeBatchedBitIdenticalDouble) {
  run_transpose_batched_differential<double>(GetParam());
}

template <class T>
void run_conventional_differential(KernelVariant variant) {
  util::ThreadPool pool(2);
  const std::uint64_t n = 50021;  // odd: exercises every tail path
  const perm::Permutation p = perm::by_name("random", n, 11);
  const auto a = random_bits<T>(n, n);
  util::aligned_vector<T> want_s(n), got_s(n), want_g(n), got_g(n);
  with_variant(KernelVariant::kScalar, [&] {
    scatter<T>(pool, a, want_s, p.data());
    gather<T>(pool, a, want_g, p.data());
  });
  with_variant(variant, [&] {
    scatter<T>(pool, a, got_s, p.data());
    gather<T>(pool, a, got_g, p.data());
  });
  expect_bit_identical(got_s, want_s, "scatter");
  expect_bit_identical(got_g, want_g, "gather");
}

TEST_P(SimdVariantTest, GatherScatterBitIdenticalU32) {
  run_conventional_differential<std::uint32_t>(GetParam());
}
TEST_P(SimdVariantTest, GatherScatterBitIdenticalU64) {
  run_conventional_differential<std::uint64_t>(GetParam());
}
TEST_P(SimdVariantTest, GatherScatterBitIdenticalFloat) {
  run_conventional_differential<float>(GetParam());
}
TEST_P(SimdVariantTest, GatherScatterBitIdenticalDouble) {
  run_conventional_differential<double>(GetParam());
}

/// Gather and scatter against the naive oracle on both sides of the
/// inline cutoff: kInlineElements - 1 runs on the caller, + 0 and + 1
/// fan out over the pool.
template <class T>
void run_cutoff_oracle() {
  util::ThreadPool pool(3);
  for (const std::uint64_t n : {kInlineElements - 1, kInlineElements, kInlineElements + 1}) {
    const perm::Permutation p = perm::by_name("random", n, n);
    const auto a = random_bits<T>(n, n + 1);
    util::aligned_vector<T> want_s(n), got_s(n), want_g(n), got_g(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      want_s[p(i)] = a[i];
      want_g[i] = a[p(i)];
    }
    scatter<T>(pool, a, got_s, p.data());
    gather<T>(pool, a, got_g, p.data());
    expect_bit_identical(got_s, want_s, "scatter at the cutoff");
    expect_bit_identical(got_g, want_g, "gather at the cutoff");
  }
}

TEST_P(SimdVariantTest, GatherScatterMatchOracleAtInlineCutoff) {
  run_cutoff_oracle<std::uint32_t>();
  run_cutoff_oracle<std::uint64_t>();
}

TEST(KernelDispatch, ScalarGatherScatterMatchOracleAtInlineCutoff) {
  with_variant(KernelVariant::kScalar, [] {
    run_cutoff_oracle<float>();
    run_cutoff_oracle<double>();
  });
}

INSTANTIATE_TEST_SUITE_P(SimdKernels, SimdVariantTest,
                         ::testing::Values(KernelVariant::kAvx2, KernelVariant::kAvx512),
                         [](const ::testing::TestParamInfo<KernelVariant>& info) {
                           return std::string(to_string(info.param));
                         });

// ---- dispatcher behavior ---------------------------------------------

TEST(KernelDispatch, BestVariantIsSupported) {
  const KernelVariant best = best_kernel_variant();
  EXPECT_EQ(set_kernel_variant(best), best);
}

TEST(KernelDispatch, ScalarAlwaysSelectable) {
  const KernelVariant prev = kernel_variant();
  EXPECT_EQ(set_kernel_variant(KernelVariant::kScalar), KernelVariant::kScalar);
  EXPECT_EQ(kernel_variant(), KernelVariant::kScalar);
  // No ops table in scalar mode: every kernel takes the oracle loop.
  EXPECT_EQ(active_kernel_ops(4), nullptr);
  EXPECT_EQ(active_kernel_ops(8), nullptr);
  set_kernel_variant(prev);
}

TEST(KernelDispatch, UnsupportedWidthsRunScalar) {
  // 2-byte elements have no SIMD table in any tier.
  EXPECT_EQ(active_kernel_ops(2), nullptr);
  EXPECT_EQ(active_kernel_ops(16), nullptr);
}

TEST(KernelDispatch, RequestsClampDownward) {
  const KernelVariant prev = kernel_variant();
  const CpuFeatures& f = cpu_features();
  const KernelVariant got = set_kernel_variant(KernelVariant::kAvx512);
  if (f.avx512) {
    EXPECT_EQ(got, KernelVariant::kAvx512);
  } else if (f.avx2) {
    EXPECT_EQ(got, KernelVariant::kAvx2);
  } else {
    EXPECT_EQ(got, KernelVariant::kScalar);
  }
  set_kernel_variant(prev);
}

}  // namespace
}  // namespace hmm::cpu
