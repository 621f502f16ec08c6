/// Randomized cross-validation: random machine shapes x random sizes x
/// random permutations, asserting the full invariant chain on each
/// draw — executor agreement, zero casual rounds, exact closed-form
/// times, plan validation, serialization stability.

#include <gtest/gtest.h>

#include <sstream>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "core/scheduled.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"

namespace hmm {
namespace {

using model::MachineParams;

struct Draw {
  MachineParams machine;
  std::uint64_t n;
  perm::Permutation p;
};

Draw draw_case(std::uint64_t seed) {
  util::Xoshiro256 rng(seed * 2654435761 + 17);
  MachineParams mp;
  const std::uint32_t widths[] = {4, 8, 16, 32};
  mp.width = widths[rng.bounded(4)];
  mp.latency = static_cast<std::uint32_t>(1 + rng.bounded(400));
  mp.dmms = 1u << rng.bounded(4);
  mp.shared_bytes = 1 << 20;  // ample; capacity gating tested elsewhere

  // n between 2*w^2 and 2^14, power of two.
  const unsigned min_bits = 2 * util::log2_exact(mp.width) + 1;
  const unsigned bits = min_bits + static_cast<unsigned>(rng.bounded(15 - min_bits));
  const std::uint64_t n = 1ull << bits;
  return Draw{mp, n, perm::random(n, rng)};
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, FullInvariantChain) {
  const Draw d = draw_case(GetParam());
  const auto& mp = d.machine;
  SCOPED_TRACE("w=" + std::to_string(mp.width) + " l=" + std::to_string(mp.latency) +
               " d=" + std::to_string(mp.dmms) + " n=" + std::to_string(d.n));

  // 1. Plan builds and validates.
  const core::ScheduledPlan plan = core::ScheduledPlan::build(d.p, mp);
  ASSERT_TRUE(plan.validate(d.p));

  // 2. Every executor produces the reference result.
  const auto a = test::iota_data<float>(d.n);
  util::aligned_vector<float> expected(d.n);
  d.p.apply<float>(a, expected);

  util::ThreadPool pool(2);
  util::aligned_vector<float> b(d.n), s1(d.n);
  core::scheduled_cpu<float>(pool, plan, a, b, s1);
  ASSERT_EQ(b, expected);

  // Two lanes through one multi-lane call.
  std::fill(b.begin(), b.end(), -1.f);
  util::aligned_vector<float> b2(d.n, -1.f), s2(d.n);
  core::Lane<float> lanes[] = {{a, b, s1}, {a, b2, s2}};
  ASSERT_TRUE(core::scheduled_cpu<float>(pool, plan, std::span<core::Lane<float>>(lanes)));
  ASSERT_EQ(b, expected);
  ASSERT_EQ(b2, expected);

  // 3. Simulator: zero casual rounds, exact Theorem 9 time when the
  //    block counts divide evenly across DMMs (guaranteed: rows,
  //    tiles, and dmms are all powers of two with rows >= dmms... rows
  //    may be < dmms for small n and large d; then the sim time is
  //    <= the formula, never more).
  sim::HmmSim sim(mp);
  const std::uint64_t t = core::scheduled_sim_rounds(sim, plan);
  ASSERT_TRUE(sim.stats().declarations_hold());
  ASSERT_EQ(sim.stats().observed_counts(), model::rounds::scheduled);
  // The 16 global rounds always cost exactly 16 coalesced rounds; the
  // shared rounds match the closed form when blocks spread evenly over
  // the DMMs (the formula's idealization).
  const std::uint64_t global_exact = 16 * model::coalesced_round_time(d.n, mp);
  ASSERT_GE(t, global_exact);
  if (plan.shape().rows % mp.dmms == 0 &&
      ((plan.shape().rows / mp.width) * (plan.shape().cols / mp.width)) % mp.dmms == 0) {
    ASSERT_EQ(t, model::scheduled_time(d.n, mp));
  }

  // 4. Conventional times equal Lemma 4 exactly.
  sim::HmmSim conv(mp);
  ASSERT_EQ(core::d_designated_sim_rounds(conv, d.p),
            model::d_designated_time(d.n, perm::distribution(d.p, mp.width), mp));

  // 5. The simulator moves the data through the five kernels to the
  //    reference result, in the same time as the rounds alone.
  sim::HmmSim data_sim(mp);
  util::aligned_vector<float> out(d.n);
  ASSERT_EQ(core::scheduled_sim<float>(data_sim, plan, a, out), t);
  ASSERT_EQ(out, expected);

  // 6. Serialization round-trip preserves behaviour.
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, plan));
  const auto reloaded = core::load_plan(ss);
  ASSERT_TRUE(reloaded.has_value());
  ASSERT_TRUE(reloaded->validate(d.p));
}

INSTANTIATE_TEST_SUITE_P(Draws, Fuzz, ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace hmm
