/// API-misuse death tests and boundary behaviours across modules —
/// the contract documentation, executable.

#include <gtest/gtest.h>

#include "core/layout.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "core/shared_permute.hpp"
#include "perm/generators.hpp"
#include "sim/hmm_sim.hpp"
#include "test_helpers.hpp"

namespace hmm {
namespace {

using model::MachineParams;

TEST(EdgeCases, MachineParamsValidation) {
  MachineParams p = MachineParams::gtx680();
  p.width = 24;  // not a power of two
  EXPECT_DEATH(p.validate(), "power of two");
  p = MachineParams::gtx680();
  p.latency = 0;
  EXPECT_DEATH(p.validate(), "latency");
  p = MachineParams::gtx680();
  p.dmms = 3;
  EXPECT_DEATH(p.validate(), "dmms");
}

TEST(EdgeCases, LayoutRejectsNonPowerOfTwo) {
  EXPECT_DEATH(core::shape_for(1000, 32), "power-of-two");
  EXPECT_DEATH(core::shape_for(512, 32), "too small");
}

TEST(EdgeCases, LayoutMinimumSizes) {
  // Smallest supported: w^2 (even log2) and 2*w^2 (odd log2).
  EXPECT_EQ(core::shape_for(1024, 32).rows, 32u);
  EXPECT_EQ(core::shape_for(2048, 32).cols, 64u);
  EXPECT_EQ(core::shape_for(16, 4).rows, 4u);
}

TEST(EdgeCases, PermutationRejectsBadMappings) {
  util::aligned_vector<std::uint32_t> dup = {0, 0, 1, 2};
  EXPECT_DEATH(perm::Permutation{std::move(dup)}, "not a permutation");
  util::aligned_vector<std::uint32_t> oob = {0, 1, 2, 7};
  EXPECT_DEATH(perm::Permutation{std::move(oob)}, "not a permutation");
}

TEST(EdgeCases, GeneratorsRejectInvalidSizes) {
  EXPECT_DEATH(perm::shuffle(100), "power-of-two");
  EXPECT_DEATH(perm::butterfly(1 << 11), "even power");
  EXPECT_DEATH(perm::stride(64, 2), "coprime");
  EXPECT_DEATH(perm::xor_mask(64, 64), "mask");
  EXPECT_DEATH(perm::by_name("no-such-family", 64), "unknown permutation family");
}

TEST(EdgeCases, SharedRoundRequiresAlignedBlocks) {
  sim::HmmSim sim(MachineParams::tiny(4, 5, 2));
  std::vector<std::uint64_t> addrs(12);
  EXPECT_DEATH(sim.shared_round("s", addrs, 6, model::Dir::kRead,
                                model::AccessClass::kConflictFree),
               "multiple of the width");
  EXPECT_DEATH(sim.shared_round("s", addrs, 8, model::Dir::kRead,
                                model::AccessClass::kConflictFree),
               "multiple of block size");
}

TEST(EdgeCases, SharedPermutationSizeLimits) {
  EXPECT_DEATH(core::SharedPermutation(perm::identical(100), 8), "multiple of the width");
}

TEST(EdgeCases, SingleWarpPlanWorks) {
  // The degenerate but legal minimum: n = w^2 with one warp per row.
  const MachineParams mp = MachineParams::tiny(4, 5, 1);
  const std::uint64_t n = 16;
  for (const auto& name : {"identical", "random", "bit-reversal"}) {
    const perm::Permutation p = perm::by_name(name, n, 1);
    const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
    EXPECT_TRUE(plan.validate(p)) << name;
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n);
    sim::HmmSim sim(mp);
    core::scheduled_sim<float>(sim, plan, a, b);
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]) << name;
    EXPECT_TRUE(sim.stats().declarations_hold()) << name;
  }
}

TEST(EdgeCases, WidthEqualsOneWarpPerBlock) {
  // cols == width: each row is exactly one warp; schedule degree 1.
  const MachineParams mp = MachineParams::tiny(8, 5, 2);
  const std::uint64_t n = 64;  // 8 x 8
  const perm::Permutation p = perm::by_name("random", n, 2);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  EXPECT_TRUE(plan.validate(p));
}

TEST(EdgeCases, EmptyAndSingleElementPermutations) {
  EXPECT_FALSE(perm::Permutation::is_valid(std::vector<std::uint32_t>{}));
  const perm::Permutation one(1);
  EXPECT_TRUE(one.is_identity());
  EXPECT_TRUE(one.inverse().is_identity());
}

TEST(EdgeCases, MaxWidth64Supported) {
  // The access classifiers cap at 64 banks.
  const MachineParams mp = MachineParams::tiny(64, 5, 1);
  sim::HmmSim sim(mp);
  std::vector<std::uint64_t> addrs(64);
  for (std::uint64_t i = 0; i < 64; ++i) addrs[i] = i;
  EXPECT_EQ(sim.global_round("r", addrs, model::Dir::kRead,
                             model::AccessClass::kCoalesced),
            1u + mp.latency - 1);
}

TEST(EdgeCases, RowScheduleWidth64) {
  // Bank-distinctness bookkeeping at the 64-bit mask boundary.
  const std::uint32_t w = 64;
  std::vector<std::uint16_t> g(128);
  util::Xoshiro256 rng(3);
  for (std::uint64_t j = 0; j < g.size(); ++j) g[j] = static_cast<std::uint16_t>(j);
  for (std::uint64_t j = g.size() - 1; j > 0; --j) std::swap(g[j], g[rng.bounded(j + 1)]);
  std::vector<std::uint16_t> phat(g.size()), q(g.size());
  core::build_row_schedule(g, w, phat, q);
  EXPECT_TRUE(core::row_schedule_valid(g, phat, q, w));
}

}  // namespace
}  // namespace hmm
