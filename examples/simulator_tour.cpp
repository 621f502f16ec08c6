/// \file simulator_tour.cpp
/// \brief Tour of the HMM simulator: the machine layout (paper Figs. 1
///        and 2), the diagonal arrangement (Fig. 4), and a round-by-
///        round account of one scheduled permutation, showing each of
///        the 32 rounds with its classification and cost.
///
/// Run: ./simulator_tour [--n 1024] [--width 4] [--latency 10] [--dmms 2]

#include <iomanip>
#include <iostream>

#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"

namespace hmm::model {
std::string describe(const MachineParams& p);  // machine.cpp
}

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 1024);
  model::MachineParams mp;
  mp.width = static_cast<std::uint32_t>(cli.get_int("width", 4));
  mp.latency = static_cast<std::uint32_t>(cli.get_int("latency", 10));
  mp.dmms = static_cast<std::uint32_t>(cli.get_int("dmms", 2));
  mp.validate();

  // --- Figs. 1 & 2: the machine ---------------------------------------
  std::cout << "Machine: " << model::describe(mp) << "\n"
            << "  " << mp.dmms << " DMMs (one per SM), each with " << mp.width
            << " shared-memory banks (latency 1);\n"
            << "  one UMM (global memory) with " << mp.width
            << "-cell address groups (latency " << mp.latency << ");\n"
            << "  warps of " << mp.width << " threads dispatched round-robin.\n";
  std::cout << "  bank(addr)  = addr mod " << mp.width << "   e.g. bank(13) = "
            << model::bank_of(13, mp.width) << "\n"
            << "  group(addr) = addr div " << mp.width << "   e.g. group(13) = "
            << model::group_of(13, mp.width) << "\n";

  // --- Fig. 4: the diagonal arrangement --------------------------------
  const std::uint32_t w = mp.width;
  std::cout << "\nDiagonal arrangement of a " << w << "x" << w
            << " tile (Fig. 4): cell [i][j] is stored at shared slot [i][(i+j) mod " << w
            << "]\n  -> every row AND every column of the tile occupies " << w
            << " distinct banks:\n";
  for (std::uint32_t i = 0; i < w; ++i) {
    std::cout << "    ";
    for (std::uint32_t s = 0; s < w; ++s) {
      // Which original [i][j] sits in slot s of row i? j = (s - i) mod w.
      const std::uint32_t j = (s + w - i) % w;
      std::cout << "[" << i << "," << j << "] ";
    }
    std::cout << "\n";
  }

  // --- Round-by-round account of one scheduled permutation ------------
  const perm::Permutation p = perm::bit_reversal(n);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  sim::HmmSim sim(mp);
  const std::uint64_t total = core::scheduled_sim_rounds(sim, plan);

  std::cout << "\nScheduled permutation of n=" << n << " (as " << plan.shape().rows << "x"
            << plan.shape().cols << "), all 32 rounds:\n";
  std::cout << "  " << std::left << std::setw(24) << "round" << std::setw(8) << "space"
            << std::setw(7) << "dir" << std::setw(15) << "class" << std::setw(8) << "stages"
            << "time\n";
  for (const auto& r : sim.stats().rounds) {
    std::cout << "  " << std::left << std::setw(24) << r.label << std::setw(8)
              << model::to_string(r.space) << std::setw(7) << model::to_string(r.dir)
              << std::setw(15) << model::to_string(r.observed) << std::setw(8) << r.stages
              << r.time << "\n";
  }
  const bool hold = sim.stats().declarations_hold();
  std::cout << "  total: " << total << " time units (formula "
            << model::scheduled_time(n, mp) << ", lower bound "
            << model::lower_bound(n, mp) << ")\n"
            << "  every global round coalesced / shared round conflict-free: "
            << (hold ? "yes" : "NO") << "\n";
  return hold ? 0 : 1;
}
