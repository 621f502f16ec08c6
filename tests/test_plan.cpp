#include <gtest/gtest.h>

#include <array>
#include <span>

#include "core/plan.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

TEST(Layout, SquareShapes) {
  EXPECT_EQ(shape_for(16, 4), (MatrixShape{4, 4}));
  EXPECT_EQ(shape_for(1 << 20, 32), (MatrixShape{1 << 10, 1 << 10}));
}

TEST(Layout, RectangularShapes) {
  // Odd log2: cols = 2 * rows.
  EXPECT_EQ(shape_for(32, 4), (MatrixShape{4, 8}));
  EXPECT_EQ(shape_for(1 << 21, 32), (MatrixShape{1 << 10, 1 << 11}));
}

TEST(Layout, IndexHelpers) {
  const MatrixShape s{4, 8};
  EXPECT_EQ(s.size(), 32u);
  EXPECT_EQ(s.row_of(17), 2u);
  EXPECT_EQ(s.col_of(17), 1u);
}

TEST(Layout, SharedBytes) {
  // Two data buffers + two 16-bit schedule arrays per block.
  EXPECT_EQ(row_pass_shared_bytes(1024, 4), 2 * 1024 * 4 + 2 * 1024 * 2);
  EXPECT_EQ(transpose_shared_bytes(32, 8), 32 * 32 * 8);
}

TEST(Plan, BuildsForTinyMachine) {
  const MachineParams p = MachineParams::tiny(4, 5, 2);
  const perm::Permutation perm = perm::bit_reversal(64);
  const ScheduledPlan plan = ScheduledPlan::build(perm, p);
  EXPECT_EQ(plan.size(), 64u);
  EXPECT_EQ(plan.shape().rows, 8u);
  EXPECT_EQ(plan.shape().cols, 8u);
  EXPECT_EQ(plan.build_stats().colors, 8u);
  EXPECT_TRUE(plan.validate(perm));
}

TEST(Plan, ValidateRejectsWrongPermutation) {
  const MachineParams p = MachineParams::tiny(4, 5, 2);
  const perm::Permutation perm = perm::bit_reversal(64);
  const ScheduledPlan plan = ScheduledPlan::build(perm, p);
  EXPECT_FALSE(plan.validate(perm::shuffle(64)));
  EXPECT_FALSE(plan.validate(perm::identical(64)));
}

TEST(Plan, RectangularSize) {
  const MachineParams p = MachineParams::tiny(4, 5, 2);
  const perm::Permutation perm = perm::shuffle(128);  // 8 x 16
  const ScheduledPlan plan = ScheduledPlan::build(perm, p);
  EXPECT_EQ(plan.shape().rows, 8u);
  EXPECT_EQ(plan.shape().cols, 16u);
  EXPECT_TRUE(plan.validate(perm));
}

TEST(Plan, ScheduleBytesMatchPaperLayout) {
  // 3 passes x 2 arrays x n entries x 16-bit (the paper's short int 2-D
  // arrays), derived on demand; the plan itself holds 3 gather tables.
  const MachineParams p = MachineParams::tiny(4, 5, 2);
  const ScheduledPlan plan = ScheduledPlan::build(perm::identical(256), p);
  std::uint64_t bytes = 0;
  for (const RowScheduleSet& set : bank_schedules(plan)) bytes += set.bytes();
  EXPECT_EQ(bytes, 3 * 2 * 256 * sizeof(std::uint16_t));
  EXPECT_EQ(plan.gather_bytes(), 3 * 256 * sizeof(std::uint16_t));
}

TEST(Plan, SharedCapacityCheck) {
  MachineParams p = MachineParams::tiny(8, 5, 2);
  p.shared_bytes = 48 * 1024;
  const ScheduledPlan plan = ScheduledPlan::build(perm::identical(1 << 12), p);  // 64 x 64
  EXPECT_TRUE(plan.fits_shared(4));
  EXPECT_TRUE(plan.fits_shared(8));
  // A pathological shared limit smaller than one row fails.
  MachineParams tiny_shared = p;
  tiny_shared.shared_bytes = 256;
  const ScheduledPlan plan2 = ScheduledPlan::build(perm::identical(1 << 12), tiny_shared);
  EXPECT_FALSE(plan2.fits_shared(8));
}

/// Every row of the derived (p̂, q) schedules is a conflict-free
/// schedule of its row of g (`plan.direct(k)`).
bool bank_schedules_valid(const ScheduledPlan& plan) {
  const std::array<RowScheduleSet, 3> schedules = bank_schedules(plan);
  for (unsigned pass = 1; pass <= 3; ++pass) {
    const RowScheduleSet& set = schedules[pass - 1];
    const util::aligned_vector<std::uint16_t> g = plan.direct(pass);
    for (std::uint64_t row = 0; row < set.rows; ++row) {
      const std::span<const std::uint16_t> g_row(g.data() + row * set.cols, set.cols);
      if (!row_schedule_valid(g_row, set.phat_row(row), set.q_row(row), plan.params().width)) {
        return false;
      }
    }
  }
  return true;
}

TEST(Plan, AllFamiliesValidate) {
  const MachineParams p = MachineParams::tiny(4, 5, 2);
  const std::uint64_t n = 256;
  for (const auto& name : test::families_for(n)) {
    const perm::Permutation perm = perm::by_name(name, n);
    const ScheduledPlan plan = ScheduledPlan::build(perm, p);
    EXPECT_TRUE(plan.validate(perm)) << name;
  }
}

TEST(Plan, BankSchedulesValidForAllFamilies) {
  const MachineParams p = MachineParams::tiny(4, 5, 2);
  const std::uint64_t n = 256;
  for (const auto& name : test::families_for(n)) {
    const ScheduledPlan plan = ScheduledPlan::build(perm::by_name(name, n), p);
    EXPECT_TRUE(bank_schedules_valid(plan)) << name;
  }
}

/// FNV-1a 64 over a plan in the byte layout of plan file version 2:
/// the header (magic, version 2, shape, machine), then pass 1..3's
/// derived p̂ and q, then the direct arrays g1..g3. Pins every schedule
/// and direct array, the shape and the machine.
std::uint64_t plan_digest(const ScheduledPlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64, as the digests were recorded
  const auto hash = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
  };
  const auto hash_u64 = [&hash](std::uint64_t v) { hash(&v, sizeof v); };
  const auto hash_u16s = [&hash](const util::aligned_vector<std::uint16_t>& v) {
    hash(v.data(), v.size() * sizeof(std::uint16_t));
  };
  hash("HMMPLAN\x02", 8);
  hash_u64(plan.shape().rows);
  hash_u64(plan.shape().cols);
  hash_u64(plan.params().width);
  hash_u64(plan.params().latency);
  hash_u64(plan.params().dmms);
  hash_u64(plan.params().shared_bytes);
  for (const RowScheduleSet& set : bank_schedules(plan)) {
    hash_u16s(set.phat);
    hash_u16s(set.q);
  }
  for (unsigned pass = 1; pass <= 3; ++pass) hash_u16s(plan.direct(pass));
  return h;
}

// The digests were recorded from the serial build that predates the
// pooled one, when plans stored their bank schedules and plan files
// were version 2 (this layout). Sizes span the inline cutoff (64K
// elements): 2^13 (odd log2, so rows != cols) runs inline, 2^16 and
// above run on the pool.
TEST(Plan, BuildMatchesPinnedDigests) {
  struct Case {
    const char* family;
    std::uint64_t n;
    MachineParams machine;
    std::uint64_t digest;
  };
  const MachineParams gtx = MachineParams::gtx680();
  const Case cases[] = {
      {"random", 1 << 13, gtx, 8644292221413319603ull},
      {"bit-reversal", 1 << 13, gtx, 1304771403309335283ull},
      {"transpose", 1 << 13, gtx, 7240655072908725651ull},
      {"identical", 1 << 13, gtx, 16793557768712677779ull},
      {"random", 1 << 16, gtx, 18147284144064522627ull},
      {"bit-reversal", 1 << 16, gtx, 9314167569029851955ull},
      {"transpose", 1 << 16, gtx, 16047650115426249523ull},
      {"identical", 1 << 16, gtx, 9230742316892937011ull},
      {"random", 1 << 18, gtx, 18059958392576717223ull},
      {"bit-reversal", 1 << 18, gtx, 2516856023276125331ull},
      {"transpose", 1 << 18, gtx, 4142697228842892435ull},
      {"identical", 1 << 18, gtx, 8388543115195628691ull},
      {"random", 1 << 17, MachineParams::tiny(4, 5, 2), 12401989161669791099ull},
  };
  for (const Case& c : cases) {
    const perm::Permutation perm = perm::by_name(c.family, c.n, 42);
    EXPECT_EQ(plan_digest(ScheduledPlan::build(perm, c.machine)), c.digest)
        << c.family << " n=" << c.n << " w=" << c.machine.width;
  }
}

// The plan cache compiles on pool workers, so the build's own
// parallel loops nest inside a task; the bytes must not change.
TEST(Plan, BuildInsidePoolWorkerMatchesCaller) {
  const MachineParams p = MachineParams::gtx680();
  const perm::Permutation perm = perm::by_name("random", 1 << 18, 8);
  const std::uint64_t on_caller = plan_digest(ScheduledPlan::build(perm, p));
  auto on_worker = util::ThreadPool::global().submit_task(
      [&] { return plan_digest(ScheduledPlan::build(perm, p)); });
  EXPECT_EQ(on_worker.get(), on_caller);
}

TEST(Plan, MatchingPeelColoringAlsoWorks) {
  const MachineParams p = MachineParams::tiny(4, 5, 2);
  const perm::Permutation perm = perm::by_name("random", 256, 7);
  const ScheduledPlan plan =
      ScheduledPlan::build(perm, p, graph::ColoringAlgorithm::kMatchingPeel);
  EXPECT_TRUE(plan.validate(perm));
}

// Sweep: every machine x several sizes x random permutations.
class PlanSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PlanSweep, RandomPermValidates) {
  const auto [machine_idx, n] = GetParam();
  const MachineParams p = test::machines()[machine_idx];
  if (n < static_cast<std::uint64_t>(p.width) * p.width * 2) GTEST_SKIP();
  const perm::Permutation perm = perm::by_name("random", n, n + machine_idx);
  const ScheduledPlan plan = ScheduledPlan::build(perm, p);
  EXPECT_TRUE(plan.validate(perm));
  EXPECT_TRUE(bank_schedules_valid(plan));
}

INSTANTIATE_TEST_SUITE_P(Grid, PlanSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1ull << 11, 1ull << 12,
                                                              1ull << 14, 1ull << 16)));

}  // namespace
}  // namespace hmm::core
