#pragma once
/// \file plan_io.hpp
/// \brief Binary serialization of compiled ScheduledPlans.
///
/// Plan construction (the König coloring of the row graph) costs a few
/// hundred ns per element; in the offline setting it pays to persist the
/// compiled plan next to the data it reorders (e.g. an FFT reorder plan
/// for a fixed size) and load it in O(read) at run time. The format
/// (version 3) stores the matrix shape, the machine parameters and the
/// direct per-row permutations g1..g3 — 6 bytes per element; a loaded
/// plan's gather tables are bit-identical to the built one's.
///
/// The header carries a format-version byte after the magic; loaders
/// reject other versions (v2 files, which also carried the (p̂, q)
/// schedules, included), truncated payloads, out-of-range machine
/// parameters, and rows that are not permutations of their row (an
/// entry outside the row, or a repeated entry), so a foreign or
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
/// parameters, plan row that is not a permutation) — the serving layer
/// surfaces this through `runtime::Status` instead of guessing.
std::optional<ScheduledPlan> load_plan(std::istream& is, std::string* error = nullptr);

bool save_plan_file(const std::string& path, const ScheduledPlan& plan);
std::optional<ScheduledPlan> load_plan_file(const std::string& path,
                                            std::string* error = nullptr);

}  // namespace hmm::core
