#pragma once
/// \file fault_injector.hpp
/// \brief Deterministic fault injection for chaos-testing the serving
///        layer.
///
/// The serving code carries named injection points (see `fault_sites`)
/// at exactly the places a production deployment fails: plan
/// compilation, request scratch allocation, worker execution, buffer-pool
/// pressure. When the injector is **disarmed** (the default) every check
/// is one relaxed atomic load; arming happens either programmatically
/// (tests, `ScopedFaultInjection`) or through environment variables so
/// a stock binary can run a chaos drill:
///
///   HMM_FAULT_RATE=0.3 HMM_FAULT_SEED=7 HMM_FAULT_SITES=plan_cache.build
///       ./permd_replay ...   (one command line)
///
/// Decisions are *deterministic*: whether the k-th check of a site
/// fires depends only on (seed, site name, k), never on wall-clock or
/// thread scheduling, so a failing chaos run replays exactly with the
/// same seed. Each site keeps check/fired counters for assertions.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

#include "runtime/status.hpp"

namespace hmm::runtime {

/// Injection point names. String constants (not an enum) so tools can
/// pass them through `--fault-sites` / HMM_FAULT_SITES unchanged.
namespace fault_sites {
inline constexpr std::string_view kPlanBuild = "plan_cache.build";        ///< throw in offline compile
inline constexpr std::string_view kPlanBuildStall = "plan_cache.build_stall";  ///< stall the builder
inline constexpr std::string_view kExecutorAlloc = "executor.alloc";      ///< scratch allocation failure
inline constexpr std::string_view kExecutorStall = "executor.stall";      ///< worker stall before execute
inline constexpr std::string_view kPoolExhausted = "pool.exhausted";      ///< buffer-pool pressure
}  // namespace fault_sites

/// The exception an armed `maybe_throw` site raises. Carries the
/// StatusCode the failure should surface as, so the catch site at the
/// subsystem boundary maps it without string matching.
struct FaultInjectedError : std::runtime_error {
  FaultInjectedError(StatusCode status_code, const std::string& what)
      : std::runtime_error(what), code(status_code) {}
  StatusCode code;
};

class FaultInjector {
 public:
  struct Config {
    bool enabled = false;
    std::uint64_t seed = 0;
    double rate = 0.0;            ///< per-check fire probability in [0, 1]
    std::uint32_t stall_ms = 50;  ///< sleep length for stall sites
    /// Comma-separated site filter; empty = every site participates.
    std::string sites;
  };

  /// Process-wide instance. The first call parses HMM_FAULT_RATE /
  /// HMM_FAULT_SEED / HMM_FAULT_SITES / HMM_FAULT_STALL_MS (the
  /// injector arms iff HMM_FAULT_RATE parses > 0).
  static FaultInjector& instance();

  void configure(const Config& config);
  void disarm();

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Deterministically decide whether this check of `site` fires, and
  /// bump the site counters. Disarmed: always false, counters untouched.
  bool should_fire(std::string_view site);

  /// Throw FaultInjectedError{code} if this check fires.
  void maybe_throw(std::string_view site, StatusCode code, const char* what) {
    if (!armed()) return;
    maybe_throw_slow(site, code, what);
  }

  /// Sleep `stall_ms` if this check fires (models a stalled worker or
  /// a pathologically slow build, without touching any clocks when
  /// disarmed).
  void maybe_stall(std::string_view site) {
    if (!armed()) return;
    maybe_stall_slow(site);
  }

  /// Times `site` was evaluated / actually fired since the last
  /// configure()/disarm() (both reset the counters).
  [[nodiscard]] std::uint64_t checks(std::string_view site) const;
  [[nodiscard]] std::uint64_t fired(std::string_view site) const;
  [[nodiscard]] std::uint64_t total_fired() const;

 private:
  FaultInjector();

  struct SiteState {
    std::uint64_t checks = 0;
    std::uint64_t fired = 0;
  };

  void maybe_throw_slow(std::string_view site, StatusCode code, const char* what);
  void maybe_stall_slow(std::string_view site);
  [[nodiscard]] bool site_enabled_locked(std::string_view site) const;

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  Config config_;
  std::unordered_map<std::string, SiteState> sites_;
};

/// RAII arming for tests: configures on construction, disarms on
/// destruction so no fault leaks into the next test case.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultInjector::Config config) {
    config.enabled = true;
    FaultInjector::instance().configure(config);
  }
  ~ScopedFaultInjection() { FaultInjector::instance().disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace hmm::runtime
