/// Cross-validation between the two timing implementations: the
/// one-shot analytic accounting (HmmSim) and the cycle-stepped
/// operational engine (PipelineEngine) must agree on every round —
/// neither is allowed to drift from the model.

#include <gtest/gtest.h>

#include "perm/generators.hpp"
#include "sim/engine.hpp"
#include "sim/hmm_sim.hpp"
#include "util/rng.hpp"

namespace hmm::sim {
namespace {

using model::AccessClass;
using model::Dir;
using model::MachineParams;
using model::Space;

/// One global round through both paths; they must report the same time.
void check_global(const MachineParams& mp, std::span<const std::uint64_t> addrs) {
  HmmSim sim(mp);
  const std::uint64_t t_account =
      sim.global_round("r", addrs, Dir::kRead, AccessClass::kCasual);
  PipelineEngine engine(mp, Space::kGlobal);
  const EngineRound round = engine.run_round(addrs);
  EXPECT_EQ(t_account, round.duration());
  EXPECT_EQ(sim.stats().rounds[0].stages, round.stages);
}

TEST(CrossValidation, CoalescedGlobal) {
  const MachineParams mp = MachineParams::tiny(8, 33, 2);
  std::vector<std::uint64_t> addrs(256);
  for (std::uint64_t i = 0; i < addrs.size(); ++i) addrs[i] = i;
  check_global(mp, addrs);
}

TEST(CrossValidation, ScatteredGlobal) {
  const MachineParams mp = MachineParams::tiny(8, 33, 2);
  const perm::Permutation p = perm::by_name("random", 256, 4);
  std::vector<std::uint64_t> addrs(256);
  for (std::uint64_t i = 0; i < addrs.size(); ++i) addrs[i] = p(i);
  check_global(mp, addrs);
}

TEST(CrossValidation, SparseParticipation) {
  const MachineParams mp = MachineParams::tiny(4, 12, 2);
  util::Xoshiro256 rng(7);
  std::vector<std::uint64_t> addrs(128);
  for (auto& a : addrs) {
    a = rng.bounded(3) == 0 ? model::kNoAccess : rng.bounded(4096);
  }
  check_global(mp, addrs);
}

TEST(CrossValidation, RandomSweep) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Xoshiro256 rng(100 + seed);
    MachineParams mp = MachineParams::tiny(
        1u << (2 + rng.bounded(3)), static_cast<std::uint32_t>(1 + rng.bounded(200)), 2);
    std::vector<std::uint64_t> addrs(mp.width * (1 + rng.bounded(16)));
    for (auto& a : addrs) a = rng.bounded(1 << 16);
    check_global(mp, addrs);
  }
}

TEST(CrossValidation, SharedSingleDmm) {
  // The engine models one memory; compare against a 1-DMM machine where
  // the accounting's max-over-DMMs degenerates to the same number.
  MachineParams mp = MachineParams::tiny(8, 5, 1);
  mp.shared_latency = 3;
  util::Xoshiro256 rng(9);
  std::vector<std::uint64_t> addrs(64);
  for (auto& a : addrs) a = rng.bounded(64);

  HmmSim sim(mp);
  const std::uint64_t t_account = sim.shared_round("s", addrs, /*block_size=*/addrs.size(),
                                                   Dir::kWrite, AccessClass::kCasual);
  PipelineEngine engine(mp, Space::kShared);
  const EngineRound round = engine.run_round(addrs);
  EXPECT_EQ(t_account, round.duration());
}

TEST(CrossValidation, MultiRoundClockAgreement) {
  // A sequence of rounds: cumulative clocks stay in lockstep.
  const MachineParams mp = MachineParams::tiny(4, 21, 2);
  HmmSim sim(mp);
  PipelineEngine engine(mp, Space::kGlobal);
  util::Xoshiro256 rng(17);
  std::vector<std::uint64_t> addrs(64);
  for (int round = 0; round < 8; ++round) {
    for (auto& a : addrs) a = rng.bounded(1 << 12);
    sim.global_round(std::string("r").append(std::to_string(round)), addrs, Dir::kRead,
                     AccessClass::kCasual);
    engine.run_round(addrs);
    EXPECT_EQ(sim.now(), engine.now()) << "after round " << round;
  }
}

}  // namespace
}  // namespace hmm::sim
