#pragma once
/// \file plan_io.hpp
/// \brief Binary serialization of compiled ScheduledPlans.
///
/// Plan construction (König coloring + per-row schedules) costs ~1 µs
/// per element; in the offline setting it pays to persist the compiled
/// plan next to the data it reorders (e.g. an FFT reorder plan for a
/// fixed size) and load it in O(read) at run time. The format stores
/// the machine parameters and all six schedule arrays plus the direct
/// per-row permutations; a loaded plan is bit-identical to the built
/// one (asserted by tests via validate()).
///
/// The header carries a format-version byte after the magic; loaders
/// reject unknown versions, truncated payloads, out-of-range machine
/// parameters, and schedule rows that are not permutations of their
/// row (an entry outside the row, or a repeated entry), so a foreign or
/// corrupted file fails with `nullopt` instead of feeding garbage
/// indices to a kernel or leaving output slots unwritten.

#include <iosfwd>
#include <optional>
#include <string>

#include "core/plan.hpp"

namespace hmm::core {

/// Write the plan. Returns false on stream failure.
bool save_plan(std::ostream& os, const ScheduledPlan& plan);

/// Read a plan written by `save_plan`; nullopt on malformed input.
/// The loaded plan carries the machine parameters it was built for.
/// When `error` is non-null and loading fails, it receives the reason
/// (bad magic, unknown version, truncated payload, out-of-range machine
/// parameters, schedule row that is not a permutation) — the serving layer
/// surfaces this through `runtime::Status` instead of guessing.
std::optional<ScheduledPlan> load_plan(std::istream& is, std::string* error = nullptr);

bool save_plan_file(const std::string& path, const ScheduledPlan& plan);
std::optional<ScheduledPlan> load_plan_file(const std::string& path,
                                            std::string* error = nullptr);

}  // namespace hmm::core
