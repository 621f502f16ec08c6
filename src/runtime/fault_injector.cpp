#include "runtime/fault_injector.hpp"

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/hash.hpp"

namespace hmm::runtime {
namespace {

std::uint64_t hash_site(std::string_view site) noexcept {
  return util::hash64(site.data(), site.size());
}

/// True iff `site` appears in the comma-separated `filter`.
bool filter_contains(const std::string& filter, std::string_view site) {
  std::size_t pos = 0;
  while (pos <= filter.size()) {
    const std::size_t comma = filter.find(',', pos);
    const std::size_t end = comma == std::string::npos ? filter.size() : comma;
    if (filter.compare(pos, end - pos, site) == 0) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  const char* rate = std::getenv("HMM_FAULT_RATE");
  if (rate == nullptr) return;
  Config config;
  config.rate = std::atof(rate);
  if (config.rate <= 0.0) return;
  if (const char* seed = std::getenv("HMM_FAULT_SEED")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* sites = std::getenv("HMM_FAULT_SITES")) config.sites = sites;
  if (const char* stall = std::getenv("HMM_FAULT_STALL_MS")) {
    config.stall_ms = static_cast<std::uint32_t>(std::strtoul(stall, nullptr, 10));
  }
  config.enabled = true;
  configure(config);
}

void FaultInjector::configure(const Config& config) {
  std::lock_guard lock(mutex_);
  config_ = config;
  sites_.clear();
  armed_.store(config.enabled && config_.rate > 0.0, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  std::lock_guard lock(mutex_);
  config_ = Config{};
  sites_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::site_enabled_locked(std::string_view site) const {
  return config_.sites.empty() || filter_contains(config_.sites, site);
}

bool FaultInjector::should_fire(std::string_view site) {
  if (!armed()) return false;
  std::lock_guard lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return false;  // disarmed while we waited
  if (!site_enabled_locked(site)) return false;
  SiteState& state = sites_[std::string(site)];
  const std::uint64_t check_index = state.checks++;
  // A full-avalanche mix of (seed, site, counter), so that adjacent
  // checks of a site fire independently.
  const std::uint64_t roll = util::mix64(
      (config_.seed ^ hash_site(site) ^ (check_index * 0xd1342543de82ef95ull)) +
      0x9e3779b97f4a7c15ull);
  // Compare against rate scaled to the full 64-bit range (rate >= 1
  // always fires; the product is clamped by the double->u64 conversion).
  const double threshold = config_.rate * 18446744073709551616.0;  // 2^64
  const bool fire =
      config_.rate >= 1.0 || static_cast<double>(roll) < threshold;
  if (fire) ++state.fired;
  return fire;
}

void FaultInjector::maybe_throw_slow(std::string_view site, StatusCode code, const char* what) {
  if (should_fire(site)) {
    throw FaultInjectedError(code, std::string("[fault-injected] ") + what);
  }
}

void FaultInjector::maybe_stall_slow(std::string_view site) {
  std::uint32_t stall_ms = 0;
  if (should_fire(site)) {
    std::lock_guard lock(mutex_);
    stall_ms = config_.stall_ms;
  }
  if (stall_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
}

std::uint64_t FaultInjector::checks(std::string_view site) const {
  std::lock_guard lock(mutex_);
  auto it = sites_.find(std::string(site));
  return it == sites_.end() ? 0 : it->second.checks;
}

std::uint64_t FaultInjector::fired(std::string_view site) const {
  std::lock_guard lock(mutex_);
  auto it = sites_.find(std::string(site));
  return it == sites_.end() ? 0 : it->second.fired;
}

std::uint64_t FaultInjector::total_fired() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, state] : sites_) total += state.fired;
  return total;
}

}  // namespace hmm::runtime
