#include <gtest/gtest.h>

#include "core/permuter.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

template <class T>
void check(OfflinePermuter<T>& op, std::uint64_t n) {
  const auto a = test::iota_data<T>(n);
  util::aligned_vector<T> b(n, T(-1));
  op.permute(a, b);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(b[op.permutation()(i)], a[i]) << i;
  }
}

TEST(Permuter, AutoPicksScheduledForHighDistribution) {
  // Needs a wide machine: scheduled wins iff 14/w + 16/(dw) < 1 (its
  // 16 coalesced rounds vs the conventional ~n casual stages), so the
  // GTX-680 shape (w=32, d=8) is the natural habitat.
  const std::uint64_t n = 1 << 16;
  OfflinePermuter<float> op(perm::bit_reversal(n), MachineParams::gtx680());
  EXPECT_EQ(op.strategy(), Strategy::kScheduled);
  ASSERT_NE(op.plan(), nullptr);
  check(op, n);
}

TEST(Permuter, AutoPicksConventionalForIdentity) {
  const std::uint64_t n = 1 << 16;
  OfflinePermuter<float> op(perm::identical(n), MachineParams::gtx680());
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  EXPECT_EQ(op.plan(), nullptr);
  check(op, n);
}

TEST(Permuter, AutoPicksConventionalOnNarrowMachine) {
  // With w=4 the scheduled constant 16/w exceeds the conventional's
  // worst case, so auto must refuse it regardless of distribution.
  const std::uint64_t n = 1 << 12;
  OfflinePermuter<float> op(perm::bit_reversal(n), MachineParams::tiny(4, 100, 2));
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  check(op, n);
}

TEST(Permuter, AutoFallsBackWhenTooSmall) {
  // n < width^2: the plan is unsupported, conventional takes over.
  OfflinePermuter<float> op(perm::by_name("random", 64, 1), MachineParams::gtx680());
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  check(op, 64);
}

TEST(Permuter, ForcedStrategiesAllCorrect) {
  const std::uint64_t n = 1 << 12;
  const MachineParams mp = MachineParams::tiny(4, 50, 2);
  const perm::Permutation p = perm::by_name("random", n, 9);
  for (Strategy s :
       {Strategy::kScheduled, Strategy::kSDesignated, Strategy::kDDesignated}) {
    OfflinePermuter<double> op(p, mp, s);
    EXPECT_EQ(op.strategy(), s);
    check(op, n);
  }
}

TEST(Permuter, ForcingScheduledOnTinyArrayAborts) {
  EXPECT_DEATH(OfflinePermuter<float>(perm::identical(64), MachineParams::gtx680(),
                                      Strategy::kScheduled),
               "scheduled strategy requires");
}

TEST(Permuter, ReusableAcrossManyArrays) {
  const std::uint64_t n = 1 << 12;
  OfflinePermuter<float> op(perm::shuffle(n), MachineParams::tiny(8, 100, 2),
                            Strategy::kScheduled);
  util::aligned_vector<float> a(n), b(n);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i * (round + 1));
    op.permute(a, b);
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(b[op.permutation()(i)], a[i]);
    }
  }
}

TEST(Permuter, PredictedTimeMatchesModel) {
  const std::uint64_t n = 1 << 12;
  const MachineParams mp = MachineParams::tiny(4, 100, 2);
  const perm::Permutation p = perm::bit_reversal(n);
  OfflinePermuter<float> sched(p, mp, Strategy::kScheduled);
  EXPECT_EQ(sched.predicted_time_units(), model::scheduled_time(n, mp));
  OfflinePermuter<float> conv(p, mp, Strategy::kDDesignated);
  EXPECT_EQ(conv.predicted_time_units(),
            model::d_designated_time(n, perm::distribution(p, mp.width), mp));
  // Auto must have picked the cheaper one.
  OfflinePermuter<float> autop(p, mp);
  EXPECT_LE(autop.predicted_time_units(),
            std::min(sched.predicted_time_units(), conv.predicted_time_units()));
}

TEST(Permuter, PlanSupportedRule) {
  const MachineParams mp = MachineParams::gtx680();  // w=32
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(512, mp));    // rows 16 < 32
  EXPECT_TRUE(OfflinePermuter<float>::plan_supported(1024, mp));    // 32x32
  EXPECT_TRUE(OfflinePermuter<float>::plan_supported(2048, mp));    // 32x64
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(1000, mp));   // not pow2
  // Row-graph edge ids are 32-bit: at n = 2^32 the edge count wraps.
  EXPECT_TRUE(OfflinePermuter<float>::plan_supported(1ull << 31, mp));
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(1ull << 32, mp));
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(1ull << 33, mp));
}

}  // namespace
}  // namespace hmm::core
