#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "model/host.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "test_helpers.hpp"

namespace hmm::perm {
namespace {

TEST(Permutation, IdentityByDefault) {
  Permutation p(8);
  EXPECT_TRUE(p.is_identity());
  EXPECT_EQ(p.size(), 8u);
  EXPECT_EQ(p(5), 5u);
}

TEST(Permutation, ValidationRejectsNonBijection) {
  EXPECT_FALSE(Permutation::is_valid(std::vector<std::uint32_t>{0, 0, 2}));
  EXPECT_FALSE(Permutation::is_valid(std::vector<std::uint32_t>{0, 3, 1}));
  EXPECT_TRUE(Permutation::is_valid(std::vector<std::uint32_t>{2, 0, 1}));
}

TEST(Permutation, InverseRoundTrip) {
  util::Xoshiro256 rng(12);
  const Permutation p = random(256, rng);
  const Permutation inv = p.inverse();
  for (std::uint64_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(inv(p(i)), i);
    EXPECT_EQ(p(inv(i)), i);
  }
  EXPECT_TRUE(p.compose(inv).is_identity());
  EXPECT_TRUE(inv.compose(p).is_identity());
}

/// The serial scatter inv[p[i]] = i that `inverse` replaces past the gate.
std::vector<std::uint32_t> serial_inverse(const Permutation& p) {
  std::vector<std::uint32_t> inv(p.size());
  for (std::uint64_t i = 0; i < p.size(); ++i) inv[p(i)] = static_cast<std::uint32_t>(i);
  return inv;
}

void expect_serial_inverse(const Permutation& p, const std::string& what) {
  const Permutation inv = p.inverse();
  const std::vector<std::uint32_t> expect = serial_inverse(p);
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), inv.data().begin(), inv.data().end()))
      << what << " n=" << p.size();
}

// The split inverse runs when the 4n-byte inverse does not fit half a
// core's L2. Either side of that gate, and past it at sizes that are
// neither powers of two nor multiples of the bucket, it equals the
// serial scatter.
TEST(Permutation, SplitInverseMatchesTheSerialScatter) {
  const std::uint64_t gate = model::pool_geometry().l2_bytes / 2 / sizeof(std::uint32_t);
  ASSERT_TRUE(model::pool_geometry().fits_half_l2(gate * sizeof(std::uint32_t)));
  ASSERT_FALSE(model::pool_geometry().fits_half_l2((gate + 1) * sizeof(std::uint32_t)));
  for (const std::uint64_t n : {std::bit_floor(gate), 2 * std::bit_floor(gate)}) {
    for (const std::string& family : family_names()) {
      // The butterfly exists only at even powers of two.
      if (family == "butterfly" && util::log2_floor(n) % 2 != 0) continue;
      expect_serial_inverse(by_name(family, n, 7), family);
    }
  }
  // The families defined at any n, just past the gate and at 3·2^18 + 7.
  for (const std::uint64_t n : {gate + 1, gate + 4097, (std::uint64_t{3} << 18) + 7}) {
    for (const char* family : {"identical", "random", "rotation", "stride", "involution"}) {
      if (family == std::string("stride") && std::gcd(n, std::uint64_t{33}) != 1) continue;
      expect_serial_inverse(by_name(family, n, 7), family);
    }
    expect_serial_inverse(transpose(3, n / 3), "transpose 3 x n/3");
  }
}

TEST(Permutation, AdoptValidatesWithoutAborting) {
  EXPECT_FALSE(Permutation::adopt(util::aligned_vector<std::uint32_t>{0, 0, 2}).has_value());
  EXPECT_FALSE(Permutation::adopt(util::aligned_vector<std::uint32_t>{0, 3, 1}).has_value());
  EXPECT_FALSE(Permutation::adopt(util::aligned_vector<std::uint32_t>{}).has_value());
  const std::optional<Permutation> p =
      Permutation::adopt(util::aligned_vector<std::uint32_t>{2, 0, 1});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, Permutation(util::aligned_vector<std::uint32_t>{2, 0, 1}));
  // A repeat and an out-of-range value past the first word of the bitset.
  util::aligned_vector<std::uint32_t> wide(200);
  std::iota(wide.begin(), wide.end(), 0u);
  EXPECT_TRUE(Permutation::is_valid(wide));
  wide[150] = 64;
  EXPECT_FALSE(Permutation::adopt(wide).has_value());
  wide[150] = 200;
  EXPECT_FALSE(Permutation::adopt(wide).has_value());
}

/// `words` as SUBMIT_PLAN carries them: little-endian, after `offset`
/// bytes of padding (so the words can start unaligned).
std::vector<std::uint8_t> le_bytes(std::span<const std::uint32_t> words, std::size_t offset) {
  std::vector<std::uint8_t> out(offset + 4 * words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (int b = 0; b < 4; ++b) {
      out[offset + 4 * i + b] = static_cast<std::uint8_t>(words[i] >> (8 * b));
    }
  }
  return out;
}

// The wire factory refuses exactly what adopt refuses, and builds what
// adopt builds, from aligned or unaligned words, whole blocks or not.
TEST(Permutation, FromLeWordsMatchesAdopt) {
  for (const std::vector<std::uint32_t>& words :
       {std::vector<std::uint32_t>{0, 0, 2}, {0, 3, 1}, {}, {2, 0, 1}}) {
    const std::vector<std::uint8_t> bytes = le_bytes(words, 0);
    EXPECT_EQ(Permutation::from_le_words(bytes).has_value(), Permutation::is_valid(words));
  }
  for (const std::uint64_t n : {1ull, 15ull, 16ull, 17ull, 1000ull, 4096ull}) {
    const Permutation p = by_name("random", n, 9);
    for (const std::size_t offset : {0, 1}) {
      const std::vector<std::uint8_t> bytes = le_bytes(p.data(), offset);
      const std::span<const std::uint8_t> wire = std::span(bytes).subspan(offset);
      const std::optional<Permutation> q = Permutation::from_le_words(wire);
      ASSERT_TRUE(q.has_value()) << n;
      EXPECT_EQ(*q, p) << n;
      EXPECT_EQ(q->fingerprint_memo(), Permutation::mapping_hash(p.data())) << n;
      // A repeat in the last word, one out of range, and a ragged length.
      std::vector<std::uint32_t> bad(p.data().begin(), p.data().end());
      if (n > 1) {
        bad.back() = bad.front();
        EXPECT_FALSE(Permutation::from_le_words(le_bytes(bad, 0)).has_value()) << n;
      }
      bad.back() = static_cast<std::uint32_t>(n);
      EXPECT_FALSE(Permutation::from_le_words(le_bytes(bad, 0)).has_value()) << n;
      EXPECT_FALSE(Permutation::from_le_words(wire.first(wire.size() - 1)).has_value()) << n;
    }
  }
}

TEST(Permutation, ComposeAssociative) {
  util::Xoshiro256 rng(4);
  const Permutation a = random(64, rng), b = random(64, rng), c = random(64, rng);
  EXPECT_EQ(a.compose(b).compose(c), a.compose(b.compose(c)));
}

TEST(Permutation, ApplyMatchesDefinition) {
  const Permutation p = bit_reversal(16);
  auto a = test::iota_data<std::uint32_t>(16);
  std::vector<std::uint32_t> b(16, ~0u);
  p.apply<std::uint32_t>(a, b);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(b[p(i)], a[i]);
}

TEST(Permutation, FingerprintMemoTravelsWithTheMapping) {
  Permutation p = bit_reversal(64);
  EXPECT_EQ(p.fingerprint_memo(), 0u);  // computed on first use only
  p.set_fingerprint_memo(0x1234);

  const Permutation copied(p);
  EXPECT_EQ(copied.fingerprint_memo(), 0x1234u);
  Permutation assigned(4);
  assigned = p;
  EXPECT_EQ(assigned.fingerprint_memo(), 0x1234u);

  // A move hands the memo over and clears the source, whose mapping is gone.
  Permutation moved(std::move(p));
  EXPECT_EQ(moved.fingerprint_memo(), 0x1234u);
  EXPECT_EQ(p.fingerprint_memo(), 0u);  // NOLINT(bugprone-use-after-move)
  Permutation move_assigned(4);
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.fingerprint_memo(), 0x1234u);
  EXPECT_EQ(moved.fingerprint_memo(), 0u);  // NOLINT(bugprone-use-after-move)

  // inverse() and compose() build new mappings: no memo inherited.
  EXPECT_EQ(move_assigned.inverse().fingerprint_memo(), 0u);
  EXPECT_EQ(move_assigned.compose(copied).fingerprint_memo(), 0u);
}

TEST(Generators, ShuffleIsBitRotation) {
  const Permutation s = shuffle(16);
  // 16 = 4 bits: 0b0001 -> 0b0010, 0b1000 -> 0b0001.
  EXPECT_EQ(s(1), 2u);
  EXPECT_EQ(s(8), 1u);
  EXPECT_EQ(s(0), 0u);
  EXPECT_EQ(s(15), 15u);
}

TEST(Generators, UnshuffleInvertsShuffle) {
  for (std::uint64_t n : {16ull, 64ull, 1024ull}) {
    EXPECT_EQ(shuffle(n).inverse(), unshuffle(n)) << n;
  }
}

TEST(Generators, BitReversalInvolution) {
  for (std::uint64_t n : {8ull, 64ull, 4096ull}) {
    const Permutation p = bit_reversal(n);
    EXPECT_TRUE(p.compose(p).is_identity()) << n;
  }
}

TEST(Generators, TransposeMatchesFormula) {
  const Permutation t = transpose(4, 8);
  for (std::uint64_t i = 0; i < 4; ++i) {
    for (std::uint64_t j = 0; j < 8; ++j) {
      EXPECT_EQ(t(i * 8 + j), j * 4 + i);
    }
  }
}

TEST(Generators, SquareTransposeInvolution) {
  const Permutation t = transpose_square(256);
  EXPECT_TRUE(t.compose(t).is_identity());
}

TEST(Generators, ButterflyEqualsSquareTranspose) {
  // Swapping bit halves of the index IS the square matrix transpose.
  for (std::uint64_t n : {16ull, 256ull, 4096ull}) {
    EXPECT_EQ(butterfly(n), transpose_square(n)) << n;
  }
}

TEST(Generators, RandomIsValidAndSeedStable) {
  util::Xoshiro256 rng1(5), rng2(5);
  const Permutation p1 = random(512, rng1);
  const Permutation p2 = random(512, rng2);
  EXPECT_EQ(p1, p2);
  util::Xoshiro256 rng3(6);
  EXPECT_NE(random(512, rng3), p1);
}

TEST(Generators, RotationWrapsAround) {
  const Permutation r = rotation(10, 3);
  EXPECT_EQ(r(0), 3u);
  EXPECT_EQ(r(9), 2u);
}

TEST(Generators, BlockSwap) {
  const Permutation p = block_swap(16, 4);
  EXPECT_EQ(p(0), 4u);
  EXPECT_EQ(p(4), 0u);
  EXPECT_EQ(p(8), 12u);
  EXPECT_TRUE(p.compose(p).is_identity());
}

TEST(Generators, ByNameCoversAllFamilies) {
  for (const auto& name : family_names()) {
    const Permutation p = by_name(name, 256);
    EXPECT_EQ(p.size(), 256u) << name;
  }
}

TEST(Generators, XorMaskIsInvolutionWithMinimalDistribution) {
  const std::uint64_t n = 1 << 12;
  for (std::uint64_t mask : {1ull, 31ull, 32ull, 1ull << 11, (1ull << 12) - 1}) {
    const Permutation p = xor_mask(n, mask);
    EXPECT_TRUE(p.compose(p).is_identity()) << mask;
    EXPECT_EQ(p(0), mask);
    // Aligned group swap: minimal distribution for every mask.
    EXPECT_EQ(distribution(p, 32), n / 32) << mask;
  }
}

TEST(Generators, BitComplementReverses) {
  const Permutation p = bit_complement(256);
  EXPECT_EQ(p(0), 255u);
  EXPECT_EQ(p(255), 0u);
  EXPECT_TRUE(p.compose(p).is_identity());
  // Reversed warps still fill whole groups: minimal distribution.
  EXPECT_EQ(distribution(p, 32), 256u / 32);
}

TEST(Generators, StrideDistributionByStrideValue) {
  const std::uint64_t n = 1 << 12;
  // stride w+1 = 33: targets t*33 spread one per group -> maximal.
  const Permutation p33 = stride(n, 33);
  EXPECT_EQ(p33(0), 0u);
  EXPECT_EQ(p33(1), 33u);
  EXPECT_EQ(distribution(p33, 32), n);
  // stride n/2+1: t*(n/2+1) mod n = (t&1)*n/2 + t -> exactly 2 groups
  // per warp.
  const Permutation phalf = stride(n, n / 2 + 1);
  EXPECT_EQ(distribution(phalf, 32), 2 * n / 32);
}

TEST(Generators, StrideOneIsIdentity) {
  EXPECT_TRUE(stride(64, 1).is_identity());
}

TEST(Generators, SegmentReverse) {
  const Permutation p = segment_reverse(16, 4);
  EXPECT_EQ(p(0), 3u);
  EXPECT_EQ(p(3), 0u);
  EXPECT_EQ(p(4), 7u);
  EXPECT_TRUE(p.compose(p).is_identity());
  // Segments >= width keep warps inside their groups.
  EXPECT_EQ(distribution(segment_reverse(1 << 12, 64), 32), (1ull << 12) / 32);
}

TEST(Generators, TensorAxesIdentity) {
  const Permutation p = tensor_axes({4, 8, 2}, {0, 1, 2});
  EXPECT_TRUE(p.is_identity());
}

TEST(Generators, TensorAxesMatchesMatrixTranspose) {
  // Collapsing one axis to size 1 reduces the 3-D permutation to the
  // 2-D transpose.
  EXPECT_EQ(tensor_axes({1, 8, 16}, {0, 2, 1}), transpose(8, 16));
  EXPECT_EQ(tensor_axes({8, 16, 1}, {1, 0, 2}), transpose(8, 16));
}

TEST(Generators, TensorAxesHwcToChw) {
  // 2x2 image, 3 channels: HWC -> CHW (axes {2,0,1}).
  const Permutation p = tensor_axes({2, 2, 3}, {2, 0, 1});
  // HWC element (h,w,c) at index (h*2+w)*3+c lands at (c*2+h)*2+w.
  for (std::uint64_t h = 0; h < 2; ++h) {
    for (std::uint64_t w = 0; w < 2; ++w) {
      for (std::uint64_t c = 0; c < 3; ++c) {
        EXPECT_EQ(p((h * 2 + w) * 3 + c), (c * 2 + h) * 2 + w);
      }
    }
  }
}

TEST(Generators, TensorAxesComposeToIdentity) {
  // Applying {1,2,0} then its inverse {2,0,1} restores the layout.
  const std::array<std::uint64_t, 3> dims{4, 8, 16};
  const Permutation fwd = tensor_axes(dims, {1, 2, 0});
  const std::array<std::uint64_t, 3> mid{dims[1], dims[2], dims[0]};
  const Permutation back = tensor_axes(mid, {2, 0, 1});
  EXPECT_TRUE(back.compose(fwd).is_identity());
}

TEST(Generators, InterleaveRoundTrip) {
  const std::uint64_t n = 64, ways = 4;
  const Permutation in = interleave(n, ways);
  const Permutation out = deinterleave(n, ways);
  EXPECT_TRUE(out.compose(in).is_identity());
  EXPECT_EQ(out, in.inverse());
  // SoA stream s element i -> AoS slot i*ways + s.
  EXPECT_EQ(in(0), 0u);
  EXPECT_EQ(in(16), 1u);   // stream 1, element 0
  EXPECT_EQ(in(17), 5u);   // stream 1, element 1
}

TEST(Generators, InterleaveIsRectangularTranspose) {
  EXPECT_EQ(interleave(64, 4), transpose(4, 16));
}

TEST(Generators, RandomInvolutionIsInvolution) {
  util::Xoshiro256 rng(31);
  for (std::uint64_t n : {16ull, 17ull, 1024ull}) {
    const Permutation p = random_involution(n, rng);
    EXPECT_TRUE(p.compose(p).is_identity()) << n;
  }
}

// ---- distribution metric -------------------------------------------------

TEST(Distribution, IdenticalIsMinimal) {
  const std::uint64_t n = 1 << 14;
  EXPECT_EQ(distribution(identical(n), 32), expected_distribution_identical(n, 32));
  EXPECT_EQ(distribution(identical(n), 32), n / 32);
}

TEST(Distribution, ShuffleIsTwoGroupsPerWarp) {
  const std::uint64_t n = 1 << 14;
  EXPECT_EQ(distribution(shuffle(n), 32), expected_distribution_shuffle(n, 32));
}

TEST(Distribution, BitReversalAndTransposeAreMaximal) {
  const std::uint64_t n = 1 << 14;
  EXPECT_EQ(distribution(bit_reversal(n), 32), n);
  EXPECT_EQ(distribution(transpose_square(n), 32), n);
}

TEST(Distribution, BoundsHoldForAllFamilies) {
  const std::uint64_t n = 1 << 12;
  for (const auto& name : family_names()) {
    const Permutation p = by_name(name, n);
    const std::uint64_t d = distribution(p, 32);
    EXPECT_GE(d, n / 32) << name;
    EXPECT_LE(d, n) << name;
  }
}

TEST(Distribution, RandomCloseToN) {
  // Table III: for n = 4M, d_w(P)/n in [0.99987, 0.99990]. At the test's
  // smaller n the group count n/w is still >> w, so the expected ratio
  // stays close to 1; check a generous window.
  const std::uint64_t n = 1 << 18;
  util::Xoshiro256 rng(17);
  const Permutation p = random(n, rng);
  const double ratio = static_cast<double>(distribution(p, 32)) / static_cast<double>(n);
  EXPECT_GT(ratio, 0.99);
  EXPECT_LE(ratio, 1.0);
}

TEST(Distribution, InverseMetricMatchesExplicitInverse) {
  util::Xoshiro256 rng(23);
  const Permutation p = random(1 << 12, rng);
  EXPECT_EQ(inverse_distribution(p, 32), distribution(p.inverse(), 32));
  const Permutation t = transpose_square(1 << 12);
  EXPECT_EQ(inverse_distribution(t, 32), distribution(t.inverse(), 32));
}

TEST(Distribution, IdentityUnderInverse) {
  const std::uint64_t n = 1 << 12;
  EXPECT_EQ(inverse_distribution(identical(n), 32), n / 32);
}

// Parameterized sweep over widths.
class DistributionWidths : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DistributionWidths, OracleFamilies) {
  const std::uint32_t w = GetParam();
  const std::uint64_t n = 1 << 12;
  EXPECT_EQ(distribution(identical(n), w), n / w);
  EXPECT_EQ(distribution(shuffle(n), w), 2 * n / w);
  EXPECT_EQ(distribution(bit_reversal(n), w), n);
  EXPECT_EQ(distribution(transpose_square(n), w), n);
}

INSTANTIATE_TEST_SUITE_P(Widths, DistributionWidths, ::testing::Values(4u, 8u, 16u, 32u));

}  // namespace
}  // namespace hmm::perm
