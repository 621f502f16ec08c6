#include <gtest/gtest.h>

#include <array>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

/// End-to-end: every executor on every backend produces exactly the
/// reference result, across machines, sizes, and permutation families.
struct Case {
  int machine;
  std::uint64_t n;
  std::string family;
};

class EndToEnd : public ::testing::TestWithParam<Case> {};

TEST_P(EndToEnd, AllExecutorsAgree) {
  const auto& c = GetParam();
  const MachineParams mp = test::machines()[c.machine];
  if (c.n < 2ull * mp.width * mp.width) GTEST_SKIP() << "too small for this machine";

  const perm::Permutation p = perm::by_name(c.family, c.n, c.n * 7 + c.machine);
  const auto a = test::iota_data<float>(c.n);
  util::aligned_vector<float> expected(c.n);
  p.apply<float>(a, expected);

  util::ThreadPool pool(2);

  {
    util::aligned_vector<float> b(c.n, -1.f);
    d_designated_cpu<float>(pool, a, b, p);
    EXPECT_EQ(b, expected) << "d-designated cpu";
  }
  {
    util::aligned_vector<float> b(c.n, -1.f);
    s_designated_cpu<float>(pool, a, b, p.inverse());
    EXPECT_EQ(b, expected) << "s-designated cpu";
  }
  {
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    util::aligned_vector<float> b(c.n, -1.f), s1(c.n);
    scheduled_cpu<float>(pool, plan, a, b, s1);
    EXPECT_EQ(b, expected) << "scheduled cpu";

    sim::HmmSim sim(mp);
    util::aligned_vector<float> b2(c.n, -1.f);
    scheduled_sim<float>(sim, plan, a, b2);
    EXPECT_EQ(b2, expected) << "scheduled sim";
    EXPECT_TRUE(sim.stats().declarations_hold());
  }
}

std::vector<Case> end_to_end_cases() {
  std::vector<Case> cases;
  for (int machine = 0; machine < 3; ++machine) {
    for (std::uint64_t n : {1ull << 8, 1ull << 11, 1ull << 12, 1ull << 14}) {
      for (const auto& family : test::families_for(n)) {
        cases.push_back({machine, n, family});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, EndToEnd, ::testing::ValuesIn(end_to_end_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           std::string name = "m" + std::to_string(info.param.machine) + "_n" +
                                              std::to_string(info.param.n) + "_" +
                                              info.param.family;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

/// Property: for random permutations, scheduled simulated time is a
/// constant while conventional time tracks d_w(P) exactly (Table III's
/// min == max behaviour for scheduled).
TEST(Property, ScheduledTimeConstantAcrossRandomPerms) {
  const MachineParams mp = MachineParams::tiny(8, 17, 4);
  const std::uint64_t n = 1 << 12;
  std::uint64_t sched_time = 0;
  std::uint64_t conv_min = ~0ull, conv_max = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const perm::Permutation p = perm::by_name("random", n, seed);
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    sim::HmmSim sim(mp);
    const std::uint64_t t = scheduled_sim_rounds(sim, plan);
    if (seed == 0) sched_time = t;
    EXPECT_EQ(t, sched_time) << "seed " << seed;

    sim::HmmSim sim2(mp);
    const std::uint64_t tc = d_designated_sim_rounds(sim2, p);
    conv_min = std::min(conv_min, tc);
    conv_max = std::max(conv_max, tc);
    EXPECT_EQ(tc, model::d_designated_time(n, perm::distribution(p, mp.width), mp));
  }
  // Conventional varies with the permutation (with overwhelming
  // probability across 8 random draws at this size).
  EXPECT_LE(conv_max - conv_min, n);  // sanity: variation bounded by d_w range
}

/// Property: composing plans — permuting by P then by Q equals
/// permuting by Q∘P (executors chain correctly through buffers).
TEST(Property, ExecutorsCompose) {
  const MachineParams mp = MachineParams::tiny(4, 5, 2);
  const std::uint64_t n = 1 << 10;
  const perm::Permutation p = perm::by_name("random", n, 10);
  const perm::Permutation q = perm::by_name("random", n, 11);
  util::ThreadPool pool(2);

  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> mid(n), out1(n), out2(n), s1(n);

  const ScheduledPlan plan_p = ScheduledPlan::build(p, mp);
  const ScheduledPlan plan_q = ScheduledPlan::build(q, mp);
  scheduled_cpu<float>(pool, plan_p, a, mid, s1);
  scheduled_cpu<float>(pool, plan_q, mid, out1, s1);

  const perm::Permutation qp = q.compose(p);
  const ScheduledPlan plan_qp = ScheduledPlan::build(qp, mp);
  scheduled_cpu<float>(pool, plan_qp, a, out2, s1);

  EXPECT_EQ(out1, out2);
}

/// Failure injection: a corrupted schedule must be caught by the
/// simulator's conflict detection (the invariant the König coloring
/// exists to maintain).
TEST(Property, CorruptedScheduleTriggersBankConflict) {
  const MachineParams mp = MachineParams::tiny(4, 5, 2);
  const std::uint64_t n = 256;
  const perm::Permutation p = perm::bit_reversal(n);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  ASSERT_TRUE(plan.validate(p));

  // Swap two slots of pass-1 row 0 across warps so two same-bank reads
  // land in one warp: patch a copy of the derived schedules and replay
  // it through the simulator.
  std::array<RowScheduleSet, 3> broken = bank_schedules(plan);
  auto& phat = broken[0].phat;
  auto& q = broken[0].q;
  // Find two slots in different warps whose phat banks are equal.
  const std::uint32_t w = mp.width;
  bool swapped = false;
  for (std::uint64_t i = 0; i < w && !swapped; ++i) {
    for (std::uint64_t j = w; j < 2 * w && !swapped; ++j) {
      if ((phat[i] % w) == (phat[j] % w) && (phat[i] % w) != (phat[i ^ 1] % w)) {
        std::swap(phat[i ^ 1], phat[j]);
        std::swap(q[i ^ 1], q[j]);
        swapped = true;
      }
    }
  }
  ASSERT_TRUE(swapped);
  sim::HmmSim sim(mp);
  scheduled_sim_rounds(sim, plan.shape(), broken);
  EXPECT_FALSE(sim.stats().declarations_hold());
}

}  // namespace
}  // namespace hmm::core
