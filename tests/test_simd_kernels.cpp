/// Differential battery for the SIMD kernel tiers: every vector
/// variant must be BIT-identical to the scalar oracle — not just
/// value-equal. Outputs are compared with memcmp, and the float/double
/// runs are seeded with raw random bit patterns (which include NaNs,
/// denormals, and negative zeros), so a variant that round-trips
/// values through arithmetic instead of moving bits would be caught.
/// Shapes deliberately include odd tails (cols not a multiple of any
/// lane width, rows not a multiple of the 16-row band), single
/// rows/columns, and 1..5 lanes per call, as the serving path batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <span>
#include <utility>
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
    unsigned char bytes[sizeof(T)];
    for (std::size_t k = 0; k < sizeof(T); k += sizeof(std::uint64_t)) {
      const std::uint64_t bits = rng.next();
      std::memcpy(bytes + k, &bits, std::min(sizeof(bits), sizeof(T) - k));
    }
    std::memcpy(&x, bytes, sizeof(T));
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

/// Shapes of the sweep tests: rows not a multiple of the 16-row band
/// (masked last band), cols not a multiple of any vector width (masked
/// row tail), single rows and columns, and square power-of-two plans.
constexpr std::pair<std::uint64_t, std::uint64_t> kSweepShapes[] = {
    {1, 1}, {1, 100}, {7, 13}, {16, 16}, {17, 24}, {33, 100}, {5, 257}, {64, 128}, {100, 1}};

/// A rows x cols gather table of random row permutations, in the
/// band-interleaved layout (`banded`) or row-major; `at(r, c)` reads
/// entry (r, c) for the oracles.
struct GatherTable {
  std::uint64_t rows, cols;
  bool banded;
  std::vector<std::uint16_t> h;

  GatherTable(std::uint64_t r, std::uint64_t c, bool b, std::uint64_t seed)
      : rows(r), cols(c), banded(b), h(r * c) {
    util::Xoshiro256 rng(seed);
    for (std::uint64_t row = 0; row < rows; ++row) {
      const auto perm = random_perm16(cols, rng);
      for (std::uint64_t col = 0; col < cols; ++col) h[offset(row, col)] = perm[col];
    }
  }
  [[nodiscard]] std::uint64_t offset(std::uint64_t r, std::uint64_t c) const {
    return banded ? band_offset(rows, cols, r, c) : r * cols + c;
  }
  [[nodiscard]] std::uint64_t at(std::uint64_t r, std::uint64_t c) const {
    return h[offset(r, c)];
  }
};

/// Rows as wide as a 16-bit gather table allows: indices at and above
/// 32768 catch a kernel that sign-extends them, and 65535 is the
/// largest; 17 and 3 rows leave a masked last band, 32769 a masked
/// row tail.
constexpr std::pair<std::uint64_t, std::uint64_t> kWideShapes[] = {
    {1, 65536}, {17, 65536}, {3, 32769}};

/// `band_sweep` (banded) or `row_sweep` on 1..max_lanes lanes under
/// `variant` on a pool of `threads`, each lane bit-identical to the
/// naive oracle of its definition: out[c][r] (banded) or out[r][c] =
/// in[r][h(r, c)].
template <class T>
void run_sweep_oracle(KernelVariant variant, bool banded,
                      std::span<const std::pair<std::uint64_t, std::uint64_t>> shapes =
                          kSweepShapes,
                      unsigned threads = 2, std::uint64_t max_lanes = 5) {
  util::ThreadPool pool(threads);
  for (const auto& [rows, cols] : shapes) {
    const GatherTable t(rows, cols, banded, rows * 131 + cols);
    for (std::uint64_t lanes = 1; lanes <= max_lanes; ++lanes) {
      const std::uint64_t n = rows * cols;
      std::vector<util::aligned_vector<T>> ins, wants, gots;
      std::vector<const T*> srcs;
      std::vector<T*> dsts;
      for (std::uint64_t l = 0; l < lanes; ++l) {
        ins.push_back(random_bits<T>(n, n * 7 + l));
        wants.emplace_back(n);
        gots.emplace_back(n);
        for (std::uint64_t r = 0; r < rows; ++r) {
          for (std::uint64_t c = 0; c < cols; ++c) {
            wants[l][banded ? c * rows + r : r * cols + c] = ins[l][r * cols + t.at(r, c)];
          }
        }
      }
      for (std::uint64_t l = 0; l < lanes; ++l) {
        srcs.push_back(ins[l].data());
        dsts.push_back(gots[l].data());
      }
      with_variant(variant, [&] {
        if (banded) {
          band_sweep<T>(pool, srcs, dsts, rows, cols, t.h);
        } else {
          row_sweep<T>(pool, srcs, dsts, rows, cols, t.h);
        }
      });
      for (std::uint64_t l = 0; l < lanes; ++l) {
        expect_bit_identical(gots[l], wants[l], banded ? "band_sweep" : "row_sweep");
      }
    }
  }
}

TEST_P(SimdVariantTest, BandSweepMatchesOracleU32) {
  run_sweep_oracle<std::uint32_t>(GetParam(), true);
}
TEST_P(SimdVariantTest, BandSweepMatchesOracleU64) {
  run_sweep_oracle<std::uint64_t>(GetParam(), true);
}
TEST_P(SimdVariantTest, BandSweepMatchesOracleFloat) {
  run_sweep_oracle<float>(GetParam(), true);
}
TEST_P(SimdVariantTest, BandSweepMatchesOracleDouble) {
  run_sweep_oracle<double>(GetParam(), true);
}
TEST_P(SimdVariantTest, RowSweepMatchesOracleU32) {
  run_sweep_oracle<std::uint32_t>(GetParam(), false);
}
TEST_P(SimdVariantTest, RowSweepMatchesOracleU64) {
  run_sweep_oracle<std::uint64_t>(GetParam(), false);
}
TEST_P(SimdVariantTest, RowSweepMatchesOracleFloat) {
  run_sweep_oracle<float>(GetParam(), false);
}
TEST_P(SimdVariantTest, RowSweepMatchesOracleDouble) {
  run_sweep_oracle<double>(GetParam(), false);
}

TEST_P(SimdVariantTest, BandSweepZeroExtendsWideIndicesU32) {
  run_sweep_oracle<std::uint32_t>(GetParam(), true, kWideShapes, 2, 2);
}
TEST_P(SimdVariantTest, BandSweepZeroExtendsWideIndicesU64) {
  run_sweep_oracle<std::uint64_t>(GetParam(), true, kWideShapes, 2, 2);
}
TEST_P(SimdVariantTest, RowSweepZeroExtendsWideIndicesU32) {
  run_sweep_oracle<std::uint32_t>(GetParam(), false, kWideShapes, 2, 2);
}
TEST_P(SimdVariantTest, RowSweepZeroExtendsWideIndicesU64) {
  run_sweep_oracle<std::uint64_t>(GetParam(), false, kWideShapes, 2, 2);
}

/// Pools of 1 (the caller runs every chunk), 3 and 5 threads put the
/// chunk boundaries on different bands and rows than the 2-thread runs.
TEST_P(SimdVariantTest, SweepsMatchOracleOnEveryPoolSize) {
  for (const unsigned threads : {1U, 3U, 5U}) {
    for (const bool banded : {true, false}) {
      run_sweep_oracle<std::uint32_t>(GetParam(), banded, kSweepShapes, threads, 3);
      run_sweep_oracle<double>(GetParam(), banded, kSweepShapes, threads, 3);
    }
  }
}

TEST(KernelDispatch, ScalarSweepsZeroExtendWideIndices) {
  for (const bool banded : {true, false}) {
    run_sweep_oracle<std::uint32_t>(KernelVariant::kScalar, banded, kWideShapes, 2, 2);
    run_sweep_oracle<std::uint64_t>(KernelVariant::kScalar, banded, kWideShapes, 2, 2);
  }
}

TEST(KernelDispatch, ScalarSweepsMatchOracle) {
  for (const bool banded : {true, false}) {
    run_sweep_oracle<std::uint32_t>(KernelVariant::kScalar, banded);
    run_sweep_oracle<std::uint64_t>(KernelVariant::kScalar, banded);
    run_sweep_oracle<float>(KernelVariant::kScalar, banded);
    run_sweep_oracle<double>(KernelVariant::kScalar, banded);
    // The FFT example's 16-byte complex has no SIMD table in any tier.
    run_sweep_oracle<std::complex<double>>(best_kernel_variant(), banded);
  }
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
