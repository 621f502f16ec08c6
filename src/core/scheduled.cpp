#include "core/scheduled.hpp"

#include "core/ops.hpp"

namespace hmm::core {

std::uint64_t scheduled_sim_rounds(sim::HmmSim& sim, const ScheduledPlan& plan,
                                   std::uint32_t words) {
  HMM_CHECK_MSG(plan.params().width == sim.params().width,
                "plan was built for a different machine width");
  return scheduled_sim_rounds(sim, plan.shape(), bank_schedules(plan), words);
}

std::uint64_t scheduled_sim_rounds(sim::HmmSim& sim, const MatrixShape& shape,
                                   const std::array<RowScheduleSet, 3>& schedules,
                                   std::uint32_t words) {
  const std::uint64_t n = shape.size();
  const std::uint64_t r = shape.rows;
  const std::uint64_t m = shape.cols;

  // Data buffers are element-addressed; their word base stays
  // group-aligned because alloc_global returns width-aligned bases.
  const std::uint64_t base_a = sim.alloc_global(n * words) / words;
  const std::uint64_t base_b = sim.alloc_global(n * words) / words;
  const std::uint64_t base_t1 = sim.alloc_global(n * words) / words;
  const std::uint64_t base_t2 = sim.alloc_global(n * words) / words;

  RowPassBases p1{.in = base_a, .out = base_t1, .phat = sim.alloc_global(n),
                  .q = sim.alloc_global(n)};
  RowPassBases p2{.in = base_t2, .out = base_t1, .phat = sim.alloc_global(n),
                  .q = sim.alloc_global(n)};
  RowPassBases p3{.in = base_t2, .out = base_b, .phat = sim.alloc_global(n),
                  .q = sim.alloc_global(n)};

  std::uint64_t t = 0;
  t += row_wise_sim_rounds(sim, "pass1", schedules[0], p1, words);
  t += transpose_sim_rounds(sim, "transpose1", r, m, base_t1, base_t2, words);
  t += row_wise_sim_rounds(sim, "pass2", schedules[1], p2, words);
  t += transpose_sim_rounds(sim, "transpose2", m, r, base_t1, base_t2, words);
  t += row_wise_sim_rounds(sim, "pass3", schedules[2], p3, words);
  return t;
}

}  // namespace hmm::core
