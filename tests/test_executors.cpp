#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "cpu/dispatch.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

template <class T>
void expect_permuted(const perm::Permutation& p, std::span<const T> a, std::span<const T> b) {
  for (std::uint64_t i = 0; i < p.size(); ++i) {
    ASSERT_EQ(b[p(i)], a[i]) << "element " << i;
  }
}

TEST(ConventionalCpu, DDesignatedCorrect) {
  util::ThreadPool pool(2);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 1);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n, -1.f);
  d_designated_cpu<float>(pool, a, b, p);
  expect_permuted<float>(p, a, b);
}

TEST(ConventionalCpu, SDesignatedCorrect) {
  util::ThreadPool pool(2);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 2);
  const auto a = test::iota_data<double>(n);
  util::aligned_vector<double> b(n, -1.0);
  s_designated_cpu<double>(pool, a, b, p.inverse());
  expect_permuted<double>(p, a, b);
}

TEST(ConventionalSim, DDesignatedTimeMatchesLemma4) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 256;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    sim::HmmSim sim(mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f);
    const std::uint64_t t = d_designated_sim<float>(sim, a, b, p);
    expect_permuted<float>(p, a, b);
    EXPECT_EQ(t, model::d_designated_time(n, perm::distribution(p, mp.width), mp)) << name;
    EXPECT_TRUE(sim.stats().declarations_hold()) << name;
  }
}

TEST(ConventionalSim, SDesignatedTimeMatchesLemma4) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 256;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    sim::HmmSim sim(mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f);
    const std::uint64_t t = s_designated_sim<float>(sim, a, b, p.inverse());
    expect_permuted<float>(p, a, b);
    EXPECT_EQ(t, model::s_designated_time(n, perm::inverse_distribution(p, mp.width), mp))
        << name;
  }
}

TEST(ConventionalSim, RoundInventoryMatchesTable1) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::bit_reversal(256);
  sim::HmmSim sim(mp);
  const auto a = test::iota_data<float>(256);
  util::aligned_vector<float> b(256);
  d_designated_sim<float>(sim, a, b, p);
  const auto counts = sim.stats().observed_counts();
  EXPECT_EQ(counts.coalesced_read, model::rounds::d_designated.coalesced_read);
  EXPECT_EQ(counts.casual_write_global, model::rounds::d_designated.casual_write_global);
  EXPECT_EQ(counts.total_rounds(), 3u);
}

TEST(ScheduledCpu, CorrectForAllFamilies) {
  util::ThreadPool pool(2);
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f), s1(n);
    scheduled_cpu<float>(pool, plan, a, b, s1);
    expect_permuted<float>(p, a, b);
  }
}

/// Distinct element bit patterns (the index in the low bytes), so a
/// misplaced element cannot compare equal; any width.
template <class T>
util::aligned_vector<T> distinct_bits(std::uint64_t n, std::uint64_t seed) {
  util::aligned_vector<T> v(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t words[(sizeof(T) + 7) / 8];
    for (std::size_t k = 0; k < std::size(words); ++k) words[k] = i + ((seed + k) << 40);
    std::memcpy(&v[i], words, sizeof(T));
  }
  return v;
}

/// Run the driver on `lanes` lanes of `plan` under `variant` (skipped
/// when the CPU cannot run it); every lane must equal the naive oracle
/// b[p[i]] = a[i] bit for bit, and only sweeps 0, 2 and 4 report.
template <class T>
void expect_driver_matches_oracle(cpu::KernelVariant variant, const perm::Permutation& p,
                                  const ScheduledPlan& plan, std::size_t lanes) {
  util::ThreadPool pool(3);
  const std::uint64_t n = p.size();
  std::vector<util::aligned_vector<T>> as, bs, ss;
  for (std::size_t l = 0; l < lanes; ++l) {
    as.push_back(distinct_bits<T>(n, l));
    bs.push_back(distinct_bits<T>(n, 99));
    ss.emplace_back(n);
  }
  std::vector<Lane<T>> ls;
  for (std::size_t l = 0; l < lanes; ++l) ls.push_back(Lane<T>{as[l], bs[l], ss[l]});
  std::vector<unsigned> fired;
  const cpu::KernelVariant prev = cpu::kernel_variant();
  ASSERT_EQ(cpu::set_kernel_variant(variant), variant);
  const KernelObserver observe = [&](unsigned kernel, std::uint64_t) {
    fired.push_back(kernel);
  };
  const bool ran = scheduled_cpu<T>(pool, plan, std::span<Lane<T>>(ls), {}, observe);
  cpu::set_kernel_variant(prev);
  ASSERT_TRUE(ran);
  EXPECT_EQ(fired, (std::vector<unsigned>{0, 2, 4}));
  for (std::size_t l = 0; l < lanes; ++l) {
    util::aligned_vector<T> want(n);
    for (std::uint64_t i = 0; i < n; ++i) want[p(i)] = as[l][i];
    ASSERT_EQ(std::memcmp(bs[l].data(), want.data(), n * sizeof(T)), 0)
        << "lane " << l << " of " << lanes << ", n=" << n << ", " << cpu::to_string(variant);
  }
}

// Every tier x u32/u64/float/double/16-byte complex x a square plan, a
// 2^odd plan (rows != cols) and a plan whose 8 rows are under one
// 16-row band x 1..5 lanes, against the naive oracle.
TEST(ScheduledCpu, MatchesOracleOnEveryTierTypeShapeAndLaneCount) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  for (const cpu::KernelVariant variant :
       {cpu::KernelVariant::kScalar, cpu::KernelVariant::kAvx2, cpu::KernelVariant::kAvx512}) {
    if (variant > cpu::best_kernel_variant()) continue;  // CPU or build cannot run it
    for (const std::uint64_t n : {1ull << 12, 1ull << 11, 1ull << 7}) {
      const perm::Permutation p = perm::by_name("random", n, n + 1);
      const ScheduledPlan plan = ScheduledPlan::build(p, mp);
      for (std::size_t lanes = 1; lanes <= 5; ++lanes) {
        expect_driver_matches_oracle<std::uint32_t>(variant, p, plan, lanes);
        expect_driver_matches_oracle<std::uint64_t>(variant, p, plan, lanes);
        expect_driver_matches_oracle<float>(variant, p, plan, lanes);
        expect_driver_matches_oracle<double>(variant, p, plan, lanes);
        expect_driver_matches_oracle<std::complex<double>>(variant, p, plan, lanes);
      }
    }
  }
}

// A lane its gate stops after sweep 1 or 2 is dropped there (active
// cleared, the remaining sweeps skip it) while the other lanes finish
// correctly; a gate that stops every lane ends the call at once.
TEST(ScheduledCpu, GateStopsLanesAfterEachSweep) {
  util::ThreadPool pool(2);
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 11;
  const perm::Permutation p = perm::by_name("random", n, 7);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  const auto a = test::iota_data<float>(n);
  for (const unsigned stop_after : {1u, 2u}) {
    std::vector<util::aligned_vector<float>> bs(3, util::aligned_vector<float>(n, -1.f)),
        ss(3, util::aligned_vector<float>(n));
    std::vector<Lane<float>> lanes;
    for (std::size_t l = 0; l < 3; ++l) lanes.push_back(Lane<float>{a, bs[l], ss[l]});
    unsigned asked = 0;
    const LaneGate gate = [&](std::size_t lane) {
      if (lane != 1) return true;
      return ++asked < stop_after;
    };
    std::vector<unsigned> fired;
    EXPECT_FALSE(scheduled_cpu<float>(pool, plan, std::span<Lane<float>>(lanes), gate,
                                      [&](unsigned k, std::uint64_t) { fired.push_back(k); }));
    EXPECT_EQ(asked, stop_after);
    EXPECT_EQ(fired, (std::vector<unsigned>{0, 2, 4}));
    EXPECT_FALSE(lanes[1].active);
    for (const std::size_t l : {0u, 2u}) {
      EXPECT_TRUE(lanes[l].active);
      expect_permuted<float>(p, a, bs[l]);
    }

    // Every lane stopped: no further sweep runs.
    for (Lane<float>& lane : lanes) lane.active = true;
    fired.clear();
    unsigned calls = 0;
    const LaneGate stop_all = [&](std::size_t) { return ++calls <= 3 * (stop_after - 1); };
    EXPECT_FALSE(scheduled_cpu<float>(pool, plan, std::span<Lane<float>>(lanes), stop_all,
                                      [&](unsigned k, std::uint64_t) { fired.push_back(k); }));
    const std::vector<unsigned> ran =
        stop_after == 1 ? std::vector<unsigned>{0} : std::vector<unsigned>{0, 2};
    EXPECT_EQ(fired, ran);
    for (const Lane<float>& lane : lanes) EXPECT_FALSE(lane.active);
  }
}

TEST(ScheduledCpu, DoubleElements) {
  util::ThreadPool pool(2);
  const MachineParams mp = MachineParams::tiny(8, 9, 4);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 3);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  const auto a = test::iota_data<double>(n);
  util::aligned_vector<double> b(n, -1.0), s1(n);
  scheduled_cpu<double>(pool, plan, a, b, s1);
  expect_permuted<double>(p, a, b);
}

TEST(ScheduledSim, CorrectAndFullyCoalesced) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    sim::HmmSim sim(mp);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n, -1.f);
    scheduled_sim<float>(sim, plan, a, b);
    expect_permuted<float>(p, a, b);

    // The paper's key structural claim: all 16 global rounds coalesced,
    // all 16 shared rounds conflict-free, zero casual rounds.
    const auto counts = sim.stats().observed_counts();
    EXPECT_EQ(counts.coalesced_read, 11u) << name;
    EXPECT_EQ(counts.coalesced_write, 5u) << name;
    EXPECT_EQ(counts.conflict_free_read, 8u) << name;
    EXPECT_EQ(counts.conflict_free_write, 8u) << name;
    EXPECT_EQ(counts.casual_read_global + counts.casual_write_global, 0u) << name;
    EXPECT_TRUE(sim.stats().declarations_hold()) << name;
  }
}

TEST(ScheduledSim, TimeIndependentOfPermutation) {
  // Theorem 9 empirically: same n => exactly the same simulated time,
  // whatever the permutation.
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;
  std::uint64_t reference_time = 0;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation p = perm::by_name(name, n);
    const ScheduledPlan plan = ScheduledPlan::build(p, mp);
    sim::HmmSim sim(mp);
    const std::uint64_t t = scheduled_sim_rounds(sim, plan);
    if (reference_time == 0) {
      reference_time = t;
    } else {
      EXPECT_EQ(t, reference_time) << name;
    }
  }
}

TEST(ScheduledSim, TimeMatchesTheorem9ForSquare) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t n = 1 << 10;  // 32 x 32: square, rows divisible by dmms
  const perm::Permutation p = perm::bit_reversal(n);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  sim::HmmSim sim(mp);
  const std::uint64_t t = scheduled_sim_rounds(sim, plan);
  EXPECT_EQ(t, model::scheduled_time(n, mp));
}

TEST(ScheduledSim, BeatsConventionalOnHighDistribution) {
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t n = 1 << 16;
  const perm::Permutation p = perm::bit_reversal(n);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);

  sim::HmmSim sim_sched(mp);
  const std::uint64_t t_sched = scheduled_sim_rounds(sim_sched, plan);
  sim::HmmSim sim_conv(mp);
  const std::uint64_t t_conv = d_designated_sim_rounds(sim_conv, p);
  EXPECT_LT(t_sched, t_conv);
}

TEST(ScheduledSim, LosesToConventionalOnIdentical) {
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t n = 1 << 16;
  const perm::Permutation p = perm::identical(n);
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);

  sim::HmmSim sim_sched(mp);
  const std::uint64_t t_sched = scheduled_sim_rounds(sim_sched, plan);
  sim::HmmSim sim_conv(mp);
  const std::uint64_t t_conv = d_designated_sim_rounds(sim_conv, p);
  EXPECT_GT(t_sched, t_conv);
}

/// Machine sweep of the simulator backend: on every test machine and
/// every paper family, each executor's `*_sim` moves the data to the
/// oracle's result, and its clock equals the cost model's closed form
/// and the address-only round generator run on a fresh simulator.
/// n = 16 w^2 is an even power of two, so the plan is square and every
/// family is valid.
class SimSweep : public ::testing::TestWithParam<std::tuple<int, std::string>> {
 protected:
  MachineParams mp() const { return test::machines()[std::get<0>(GetParam())]; }
  std::uint64_t n() const { return 16ull * mp().width * mp().width; }
  perm::Permutation p() const { return perm::by_name(std::get<1>(GetParam()), n(), 3); }
};

TEST_P(SimSweep, ScheduledMatchesTheorem9) {
  const MachineParams mp = this->mp();
  const std::uint64_t n = this->n();
  const perm::Permutation p = this->p();
  const ScheduledPlan plan = ScheduledPlan::build(p, mp);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n, -1.f);
  sim::HmmSim sim(mp);
  const std::uint64_t t = scheduled_sim<float>(sim, plan, a, b);
  expect_permuted<float>(p, a, b);
  EXPECT_EQ(t, model::scheduled_time(n, mp));
  sim::HmmSim addresses_only(mp);
  EXPECT_EQ(scheduled_sim_rounds(addresses_only, plan), t);
  EXPECT_EQ(sim.stats().observed_counts(), model::rounds::scheduled);
  EXPECT_TRUE(sim.stats().declarations_hold());
}

TEST_P(SimSweep, DDesignatedMatchesLemma4) {
  const MachineParams mp = this->mp();
  const std::uint64_t n = this->n();
  const perm::Permutation p = this->p();
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n, -1.f);
  sim::HmmSim sim(mp);
  const std::uint64_t t = d_designated_sim<float>(sim, a, b, p);
  expect_permuted<float>(p, a, b);
  EXPECT_EQ(t, model::d_designated_time(n, perm::distribution(p, mp.width), mp));
  sim::HmmSim addresses_only(mp);
  EXPECT_EQ(d_designated_sim_rounds(addresses_only, p), t);
  EXPECT_EQ(sim.stats().rounds.size(), model::rounds::d_designated.total_rounds());
  EXPECT_TRUE(sim.stats().declarations_hold());
}

TEST_P(SimSweep, SDesignatedDoubleMatchesLemma4) {
  const MachineParams mp = this->mp();
  const std::uint64_t n = this->n();
  const perm::Permutation p = this->p();
  const perm::Permutation pinv = p.inverse();
  constexpr std::uint32_t kWords = model::words_of<double>();
  const auto a = test::iota_data<double>(n);
  util::aligned_vector<double> b(n, -1.0);
  sim::HmmSim sim(mp);
  const std::uint64_t t = s_designated_sim<double>(sim, a, b, pinv);
  expect_permuted<double>(p, a, b);
  EXPECT_EQ(t, model::s_designated_time(
                   n, perm::inverse_distribution_groups(p, mp.width, mp.width / kWords), mp,
                   kWords));
  sim::HmmSim addresses_only(mp);
  EXPECT_EQ(s_designated_sim_rounds(addresses_only, pinv, kWords), t);
  EXPECT_EQ(sim.stats().rounds.size(), model::rounds::s_designated.total_rounds());
  EXPECT_TRUE(sim.stats().declarations_hold());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values("identical", "shuffle", "random", "bit-reversal",
                                         "transpose", "butterfly", "rotation", "gray")),
    [](const ::testing::TestParamInfo<SimSweep::ParamType>& case_info) {
      std::string name = "m";
      name += std::to_string(std::get<0>(case_info.param));
      name += '_';
      name += std::get<1>(case_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hmm::core
