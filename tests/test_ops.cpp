#include <gtest/gtest.h>

#include <numeric>

#include "core/ops.hpp"
#include "model/cost.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

std::vector<std::uint16_t> random_perms(std::uint64_t rows, std::uint64_t cols,
                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint16_t> g(rows * cols);
  for (std::uint64_t r = 0; r < rows; ++r) {
    auto* row = g.data() + r * cols;
    for (std::uint64_t j = 0; j < cols; ++j) row[j] = static_cast<std::uint16_t>(j);
    for (std::uint64_t j = cols - 1; j > 0; --j) {
      std::swap(row[j], row[rng.bounded(j + 1)]);
    }
  }
  return g;
}

TEST(OpsSim, RowWiseInventoryMatchesTable1) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const auto g = random_perms(8, 16, 1);
  const RowScheduleSet set = build_row_schedules(g, 8, 16, mp.width);
  sim::HmmSim sim(mp);
  const std::uint64_t t = row_wise_sim_rounds(sim, set);
  const auto counts = sim.stats().observed_counts();
  EXPECT_EQ(counts, model::rounds::row_wise);
  EXPECT_TRUE(sim.stats().declarations_hold());
  EXPECT_EQ(t, model::row_wise_time(8 * 16, mp));
}

TEST(OpsSim, TransposeInventoryMatchesTable1) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  sim::HmmSim sim(mp);
  const std::uint64_t t = transpose_sim_rounds(sim, 16, 32);
  const auto counts = sim.stats().observed_counts();
  EXPECT_EQ(counts, model::rounds::transpose);
  EXPECT_TRUE(sim.stats().declarations_hold());
  EXPECT_EQ(t, model::transpose_time(16 * 32, mp));
}

TEST(OpsSim, ColumnWiseInventoryMatchesTable1) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t rows = 16, cols = 8;
  // Column perms h_c over `rows` entries, laid out [c * rows + i].
  const auto h = random_perms(cols, rows, 2);
  const RowScheduleSet set = build_column_schedules(h, rows, cols, mp.width);
  sim::HmmSim sim(mp);
  const std::uint64_t t = column_wise_sim_rounds(sim, "colwise", set, rows, cols);
  const auto counts = sim.stats().observed_counts();
  EXPECT_EQ(counts, model::rounds::column_wise);
  EXPECT_TRUE(sim.stats().declarations_hold());
  EXPECT_EQ(t, model::column_wise_time(rows * cols, mp));
}

TEST(OpsCpu, ColumnWiseCorrect) {
  util::ThreadPool pool(2);
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t rows = 16, cols = 8;
  const auto h = random_perms(cols, rows, 3);
  const RowScheduleSet set = build_column_schedules(h, rows, cols, mp.width);

  const auto a = test::iota_data<float>(rows * cols);
  util::aligned_vector<float> out(rows * cols);
  column_wise_cpu<float>(pool, a, out, rows, cols, set);

  // b[h_c(i)][c] == a[i][c].
  for (std::uint64_t c = 0; c < cols; ++c) {
    for (std::uint64_t i = 0; i < rows; ++i) {
      const std::uint64_t dest_row = h[c * rows + i];
      EXPECT_EQ(out[dest_row * cols + c], a[i * cols + c]) << "col " << c << " row " << i;
    }
  }
}

TEST(OpsCpu, ColumnWiseIdentity) {
  util::ThreadPool pool(1);
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t rows = 8, cols = 8;
  std::vector<std::uint16_t> h(rows * cols);
  for (std::uint64_t c = 0; c < cols; ++c) {
    for (std::uint64_t i = 0; i < rows; ++i) h[c * rows + i] = static_cast<std::uint16_t>(i);
  }
  const RowScheduleSet set = build_column_schedules(h, rows, cols, mp.width);
  const auto a = test::iota_data<double>(rows * cols);
  util::aligned_vector<double> out(rows * cols);
  column_wise_cpu<double>(pool, a, out, rows, cols, set);
  EXPECT_EQ(out, a);
}

TEST(OpsSim, RowWiseTimeScalesWithRows) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const auto g8 = random_perms(8, 16, 4);
  const auto g16 = random_perms(16, 16, 4);
  sim::HmmSim sim8(mp), sim16(mp);
  const std::uint64_t t8 = row_wise_sim_rounds(sim8, build_row_schedules(g8, 8, 16, mp.width));
  const std::uint64_t t16 =
      row_wise_sim_rounds(sim16, build_row_schedules(g16, 16, 16, mp.width));
  EXPECT_EQ(t16 - t8, model::row_wise_time(256, mp) - model::row_wise_time(128, mp));
}

TEST(OpsSim, TransposeRectangularBothOrientations) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  sim::HmmSim sim(mp);
  const std::uint64_t t1 = transpose_sim_rounds(sim, 8, 32);
  const std::uint64_t t2 = transpose_sim_rounds(sim, 32, 8);
  EXPECT_EQ(t1, t2);  // same element count, same cost
  EXPECT_TRUE(sim.stats().declarations_hold());
}

TEST(OpsSim, CappedRowWiseMatchesClosedForm) {
  const MachineParams mp = MachineParams::tiny(4, 33, 2);
  const std::uint64_t rows = 8, cols = 32;
  const auto g = random_perms(rows, cols, 21);
  const RowScheduleSet set = build_row_schedules(g, rows, cols, mp.width);

  for (std::uint64_t cap : {8ull, 16ull, 32ull, 64ull}) {
    sim::HmmSim sim(mp);
    RowPassBases bases{.in = sim.alloc_global(rows * cols),
                       .out = sim.alloc_global(rows * cols),
                       .phat = sim.alloc_global(rows * cols),
                       .q = sim.alloc_global(rows * cols)};
    const std::uint64_t t =
        row_wise_sim_rounds_capped(sim, "capped", set, bases, 1, cap);
    EXPECT_EQ(t, model::row_wise_time_capped(rows, cols, mp, 1, cap)) << "cap " << cap;
    EXPECT_TRUE(sim.stats().declarations_hold()) << "cap " << cap;
  }
}

TEST(OpsSim, CapAboveRowLengthEqualsUncapped) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const auto g = random_perms(8, 16, 22);
  const RowScheduleSet set = build_row_schedules(g, 8, 16, mp.width);
  sim::HmmSim s1(mp), s2(mp);
  RowPassBases b1{.in = s1.alloc_global(128), .out = s1.alloc_global(128),
                  .phat = s1.alloc_global(128), .q = s1.alloc_global(128)};
  RowPassBases b2{.in = s2.alloc_global(128), .out = s2.alloc_global(128),
                  .phat = s2.alloc_global(128), .q = s2.alloc_global(128)};
  EXPECT_EQ(row_wise_sim_rounds_capped(s1, "c", set, b1, 1, 1024),
            row_wise_sim_rounds(s2, "u", set, b2, 1));
}

TEST(OpsSim, NaiveColumnWiseIsCasual) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const std::uint64_t rows = 16, cols = 16;
  const auto h = random_perms(cols, rows, 9);

  sim::HmmSim naive(mp);
  column_wise_naive_sim_rounds(naive, "naive", h, rows, cols);
  // Strided column walks: both rounds observed casual.
  for (const auto& r : naive.stats().rounds) {
    EXPECT_EQ(r.observed, model::AccessClass::kCasual) << r.label;
  }
  // Each warp of w threads walks one column stretch: stride `cols`
  // means w distinct groups per warp on the read -> n stages.
  EXPECT_EQ(naive.stats().rounds[0].stages, rows * cols);
}

TEST(OpsSim, TransposeDetourBeatsNaiveColumnWiseAtScale) {
  // The 16-round detour only pays on a wide machine at sizes where the
  // per-round latency amortizes (the same regime as Table II).
  const MachineParams mp = MachineParams::gtx680();
  const std::uint64_t rows = 256, cols = 256;
  const auto h = random_perms(cols, rows, 10);

  sim::HmmSim naive(mp);
  const std::uint64_t t_naive =
      column_wise_naive_sim_rounds(naive, "naive", h, rows, cols);
  const RowScheduleSet set = build_column_schedules(h, rows, cols, mp.width);
  sim::HmmSim via_t(mp);
  const std::uint64_t t_transpose =
      column_wise_sim_rounds(via_t, "colwise", set, rows, cols);
  EXPECT_LT(t_transpose, t_naive);
  EXPECT_TRUE(via_t.stats().declarations_hold());
}

TEST(OpsSim, TransposeRejectsNonMultipleOfWidth) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  sim::HmmSim sim(mp);
  EXPECT_DEATH(transpose_sim_rounds(sim, 6, 8), "multiples of the width");
}

}  // namespace
}  // namespace hmm::core
