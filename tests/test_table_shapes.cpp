/// Miniaturized Table II, asserted: the orderings and invariances the
/// paper's evaluation tables exhibit, checked programmatically at a
/// test-friendly size on both measurement channels (model units
/// exactly; host milliseconds as weak sanity only, since wall-clock is
/// machine-dependent).

#include <gtest/gtest.h>

#include <map>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"

namespace hmm {
namespace {

using model::MachineParams;

class Table2Shape : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kN = 1 << 16;
  const MachineParams mp_ = MachineParams::gtx680();

  std::map<std::string, std::uint64_t> conv_units_;
  std::map<std::string, std::uint64_t> sched_units_;

  void SetUp() override {
    for (const auto& name : {"identical", "shuffle", "random", "bit-reversal", "transpose"}) {
      const perm::Permutation p = perm::by_name(name, kN, 42);
      sim::HmmSim conv(mp_);
      conv_units_[name] = core::d_designated_sim_rounds(conv, p);
      const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp_);
      sim::HmmSim sched(mp_);
      sched_units_[name] = core::scheduled_sim_rounds(sched, plan);
    }
  }
};

TEST_F(Table2Shape, ConventionalOrderingFollowsDistribution) {
  // identical < shuffle < random <= bit-reversal == transpose.
  EXPECT_LT(conv_units_["identical"], conv_units_["shuffle"]);
  EXPECT_LT(conv_units_["shuffle"], conv_units_["random"]);
  EXPECT_LE(conv_units_["random"], conv_units_["bit-reversal"]);
  EXPECT_EQ(conv_units_["bit-reversal"], conv_units_["transpose"]);
}

TEST_F(Table2Shape, ScheduledColumnIsConstant) {
  const std::uint64_t t = sched_units_["identical"];
  for (const auto& [name, units] : sched_units_) {
    EXPECT_EQ(units, t) << name;
  }
}

TEST_F(Table2Shape, WinnersMatchThePaper) {
  // Low-distribution families favor the conventional algorithm...
  EXPECT_LT(conv_units_["identical"], sched_units_["identical"]);
  EXPECT_LT(conv_units_["shuffle"], sched_units_["shuffle"]);
  // ...high-distribution families favor the scheduled one.
  EXPECT_GT(conv_units_["random"], sched_units_["random"]);
  EXPECT_GT(conv_units_["bit-reversal"], sched_units_["bit-reversal"]);
  EXPECT_GT(conv_units_["transpose"], sched_units_["transpose"]);
}

TEST_F(Table2Shape, SpeedupInPaperBand) {
  // ~1.8-2x in the model at the largest sizes (paper hardware: 2.4-3x).
  const double speedup = static_cast<double>(conv_units_["bit-reversal"]) /
                         static_cast<double>(sched_units_["bit-reversal"]);
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 2.5);
}

TEST_F(Table2Shape, TimesScaleLinearlyWithN) {
  // Doubling n roughly doubles both columns (latency-corrected).
  const perm::Permutation p2 = perm::bit_reversal(2 * kN);
  sim::HmmSim conv(mp_);
  const std::uint64_t conv2 = core::d_designated_sim_rounds(conv, p2);
  const core::ScheduledPlan plan2 = core::ScheduledPlan::build(p2, mp_);
  sim::HmmSim sched(mp_);
  const std::uint64_t sched2 = core::scheduled_sim_rounds(sched, plan2);

  const std::uint64_t conv_lat = 3 * (mp_.latency - 1);
  const std::uint64_t sched_lat = 16 * (mp_.latency - 1);
  EXPECT_EQ(conv2 - conv_lat, 2 * (conv_units_["bit-reversal"] - conv_lat));
  EXPECT_EQ(sched2 - sched_lat, 2 * (sched_units_["bit-reversal"] - sched_lat));
}

TEST_F(Table2Shape, HostBackendSanity) {
  // Weak wall-clock checks only: everything runs and agrees on results.
  util::ThreadPool pool(2);
  const perm::Permutation p = perm::bit_reversal(kN);
  const auto a = test::iota_data<float>(kN);
  util::aligned_vector<float> b1(kN), b2(kN), s(kN);
  core::d_designated_cpu<float>(pool, a, b1, p);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp_);
  core::scheduled_cpu<float>(pool, plan, a, b2, s);
  EXPECT_EQ(b1, b2);
}

/// Table III shape at mini scale: distribution concentration and the
/// constancy of the scheduled column across random draws.
TEST(Table3Shape, MiniStatistics) {
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t n = 1 << 16;
  std::uint64_t sched_ref = 0;
  double ratio_lo = 1e9, ratio_hi = 0;
  for (int s = 0; s < 6; ++s) {
    const perm::Permutation p = perm::by_name("random", n, 500 + s);
    const double ratio =
        static_cast<double>(perm::distribution(p, mp.width)) / static_cast<double>(n);
    ratio_lo = std::min(ratio_lo, ratio);
    ratio_hi = std::max(ratio_hi, ratio);
    const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
    sim::HmmSim sim(mp);
    const std::uint64_t t = core::scheduled_sim_rounds(sim, plan);
    if (sched_ref == 0) sched_ref = t;
    EXPECT_EQ(t, sched_ref);
  }
  EXPECT_GT(ratio_lo, 0.98);
  EXPECT_LE(ratio_hi, 1.0);
  EXPECT_LT(ratio_hi - ratio_lo, 0.01);  // concentration (paper: 3e-5 at 4M)
}

}  // namespace
}  // namespace hmm
