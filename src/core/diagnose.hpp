#pragma once
/// \file diagnose.hpp
/// \brief One-call analysis of a permutation on a machine: everything
///        the paper's cost theory says about it, in one report.
///
/// Computes the distribution metrics that drive Lemma 4, the cycle
/// structure, plan supportability and shared-memory fit, the predicted
/// HMM time of every strategy, and the GPU model's recommendation, next
/// to the pick `OfflinePermuter`'s kAuto makes on this host and the host
/// times it predicts — exposed for inspection and tooling
/// (`examples/permutation_doctor`).

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/in_place.hpp"
#include "model/host.hpp"
#include "model/machine.hpp"
#include "perm/permutation.hpp"

namespace hmm::core {

/// Full diagnostic report for (P, machine).
struct Diagnosis {
  std::uint64_t n = 0;
  model::MachineParams machine;

  // Distribution (Section IV): the conventional algorithms' cost driver.
  std::uint64_t dist_forward = 0;      ///< d_w(P)   — D-designated's casual writes
  std::uint64_t dist_inverse = 0;      ///< d_w(P⁻¹) — S-designated's casual reads
  double dist_forward_ratio = 0;       ///< d_w(P)/n in [1/w, 1]
  double dist_inverse_ratio = 0;

  // Cycle structure (in-place applicability, identity detection).
  CycleStats cycles;
  bool is_identity = false;
  bool is_involution = false;

  // Scheduled-plan feasibility.
  bool plan_supported = false;         ///< power-of-two n with rows >= w
  std::uint64_t shared_bytes_needed_f32 = 0;
  std::uint64_t shared_bytes_needed_f64 = 0;
  bool fits_shared_f32 = false;
  bool fits_shared_f64 = false;

  // Predicted HMM running times (Lemma 4 / Theorem 9).
  std::uint64_t time_d_designated = 0;
  std::uint64_t time_s_designated = 0;
  std::uint64_t time_scheduled = 0;    ///< 0 when the plan is unsupported
  std::uint64_t lower_bound = 0;

  /// The model's pick: "scheduled", "s-designated" or "d-designated".
  std::string recommendation;

  // The host's pick (kAuto for float elements, core::host_pick on this
  // host's parameters): "s-designated" outright when the plan is
  // unsupported.
  std::string host_recommendation;
  model::GatherMisses host_misses;  ///< zero when the source fits L2
  double host_conventional_ms = 0;  ///< predicted gather time (0 = not probed)
  double host_scheduled_ms = 0;     ///< predicted scheduled time (0 = not probed/unsupported)
};

/// Run the full analysis (O(n)).
Diagnosis diagnose(const perm::Permutation& p, const model::MachineParams& machine);

/// Pretty-print the report.
void print_diagnosis(std::ostream& os, const Diagnosis& d);

}  // namespace hmm::core
