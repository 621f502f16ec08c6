#pragma once
/// \file strategy.hpp
/// \brief The execution strategies an `OfflinePermuter` can run, apart
///        from the permuter itself so that metrics and tools can name
///        them without the kernel headers.

#include <optional>
#include <string_view>

namespace hmm::core {

/// Execution strategy of an OfflinePermuter.
enum class Strategy {
  kAuto,           ///< pick by the host cost model (default)
  kScheduled,      ///< force the paper's scheduled algorithm
  kSDesignated,    ///< force conventional gather  (b[i] = a[p̄[i]])
  kDDesignated,    ///< force conventional scatter (b[p[i]] = a[i])
  kBucketed,       ///< two gathers through skewed buckets (core/bucketed.hpp)
};

std::string_view to_string(Strategy s) noexcept;

/// Parse a `to_string` name back ("auto", "scheduled", ...).
std::optional<Strategy> strategy_from_string(std::string_view name) noexcept;

}  // namespace hmm::core
