#include <gtest/gtest.h>

#include <sstream>

#include "core/diagnose.hpp"
#include "model/cost.hpp"
#include "perm/generators.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

TEST(Diagnose, IdentityPermutation) {
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t n = 1 << 16;
  const Diagnosis d = diagnose(perm::identical(n), mp);
  EXPECT_TRUE(d.is_identity);
  EXPECT_TRUE(d.is_involution);
  EXPECT_EQ(d.dist_forward, n / mp.width);
  EXPECT_DOUBLE_EQ(d.dist_forward_ratio, 1.0 / mp.width);
  EXPECT_EQ(d.cycles.fixed_points, n);
  EXPECT_EQ(d.recommendation, "d-designated");  // ties resolve to D first
}

TEST(Diagnose, BitReversalRecommendsScheduled) {
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t n = 1 << 18;
  const Diagnosis d = diagnose(perm::bit_reversal(n), mp);
  EXPECT_FALSE(d.is_identity);
  EXPECT_TRUE(d.is_involution);
  EXPECT_EQ(d.dist_forward, n);
  EXPECT_TRUE(d.plan_supported);
  EXPECT_TRUE(d.fits_shared_f32);
  EXPECT_EQ(d.recommendation, "scheduled");
  EXPECT_EQ(d.time_scheduled, model::scheduled_time(n, mp));
  EXPECT_LT(d.time_scheduled, d.time_d_designated);
  EXPECT_GE(d.time_scheduled, d.lower_bound);
}

TEST(Diagnose, TooSmallForPlan) {
  const MachineParams mp = MachineParams::gtx680();
  const Diagnosis d = diagnose(perm::by_name("random", 256, 1), mp);
  EXPECT_FALSE(d.plan_supported);
  EXPECT_EQ(d.time_scheduled, 0u);
  EXPECT_NE(d.recommendation, "scheduled");
}

TEST(Diagnose, NarrowMachineRejectsScheduled) {
  // w=4: 16 rounds of n/4 stages always lose to the conventional 2n/4+n.
  const MachineParams mp = MachineParams::tiny(4, 100, 2);
  const Diagnosis d = diagnose(perm::bit_reversal(1 << 12), mp);
  EXPECT_TRUE(d.plan_supported);
  EXPECT_GT(d.time_scheduled, std::min(d.time_d_designated, d.time_s_designated));
  EXPECT_NE(d.recommendation, "scheduled");
}

TEST(Diagnose, SharedCapacityGates) {
  MachineParams mp = MachineParams::gtx680();
  mp.shared_bytes = 1024;  // absurdly small SM
  const Diagnosis d = diagnose(perm::bit_reversal(1 << 18), mp);
  EXPECT_TRUE(d.plan_supported);
  EXPECT_FALSE(d.fits_shared_f32);
  EXPECT_NE(d.recommendation, "scheduled");
}

TEST(Diagnose, PrintContainsKeyNumbers) {
  const MachineParams mp = MachineParams::gtx680();
  const Diagnosis d = diagnose(perm::bit_reversal(1 << 16), mp);
  std::ostringstream os;
  print_diagnosis(os, d);
  const std::string out = os.str();
  EXPECT_NE(out.find("recommendation: scheduled"), std::string::npos);
  EXPECT_NE(out.find(std::to_string(d.time_d_designated)), std::string::npos);
  EXPECT_NE(out.find("[involution]"), std::string::npos);
}

TEST(Diagnose, ReportsTheHostPickBesideTheGpuRecommendation) {
  const MachineParams mp = MachineParams::gtx680();
  // An L2-resident source: the host gathers, the GPU model schedules.
  const Diagnosis small = diagnose(perm::bit_reversal(1 << 16), mp);
  EXPECT_EQ(small.recommendation, "scheduled");
  EXPECT_EQ(small.host_recommendation, "s-designated");
  std::ostringstream os;
  print_diagnosis(os, small);
  EXPECT_NE(os.str().find("host pick (kAuto, f32): s-designated"), std::string::npos);

  // Past L2, the pick comes with simulated misses and predicted times.
  const std::uint64_t n = 1 << 20;
  if (model::host_geometry(1).fits_l2(n * sizeof(float))) GTEST_SKIP() << "L2 holds 4 MiB";
  const Diagnosis big = diagnose(perm::by_name("transpose", n, 1), mp);
  EXPECT_GT(big.host_misses.lines, 0u);
  EXPECT_GT(big.host_conventional_ms, 0.0);
  EXPECT_GT(big.host_scheduled_ms, 0.0);
  os.str("");
  print_diagnosis(os, big);
  EXPECT_NE(os.str().find("predicted host ms"), std::string::npos);
}

TEST(Diagnose, DistributionRatiosBounded) {
  const MachineParams mp = MachineParams::gtx680();
  for (const auto& name : perm::family_names()) {
    const Diagnosis d = diagnose(perm::by_name(name, 1 << 16, 3), mp);
    EXPECT_GE(d.dist_forward_ratio, 1.0 / mp.width) << name;
    EXPECT_LE(d.dist_forward_ratio, 1.0) << name;
    EXPECT_GE(d.dist_inverse_ratio, 1.0 / mp.width) << name;
    EXPECT_LE(d.dist_inverse_ratio, 1.0) << name;
  }
}

}  // namespace
}  // namespace hmm::core
