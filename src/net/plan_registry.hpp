#pragma once
/// \file plan_registry.hpp
/// \brief The SUBMIT_PLAN registry a server and a router each keep:
///        plan id → mapping, bounded, and refusing a colliding mapping.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perm/permutation.hpp"
#include "runtime/status.hpp"

namespace hmm::net {

class PlanRegistry {
 public:
  using Plan = std::shared_ptr<const perm::Permutation>;

  explicit PlanRegistry(std::uint32_t max_plans) : max_plans_(max_plans) {}

  /// Register `plan` under `id`: OK when `id` is new or holds the same
  /// mapping, RESOURCE_EXHAUSTED at `max_plans`, and INVALID_ARGUMENT
  /// when `id` holds another mapping (a 64-bit collision; the first
  /// stays). Plans are never replaced, so the compare runs unlocked.
  runtime::Status insert(std::uint64_t id, Plan plan) {
    Plan held;
    {
      std::lock_guard lock(mutex_);
      const auto it = plans_.find(id);
      if (it == plans_.end()) {
        if (plans_.size() >= max_plans_) {
          return runtime::Status(runtime::StatusCode::kResourceExhausted,
                                 "plan registry full; retry later");
        }
        plans_.emplace(id, std::move(plan));
        return runtime::Status::ok();
      }
      held = it->second;
    }
    if (*held == *plan) return runtime::Status::ok();
    return runtime::Status(runtime::StatusCode::kInvalidArgument,
                           "plan id collision: the id names a different mapping");
  }

  /// SUBMIT_PLAN: register the little-endian wire words, copied,
  /// validated and named in one pass. The plan id, or a typed refusal.
  runtime::StatusOr<std::uint64_t> submit(std::span<const std::uint8_t> le_words) {
    std::optional<perm::Permutation> adopted = perm::Permutation::from_le_words(le_words);
    if (!adopted) {
      return runtime::Status(runtime::StatusCode::kInvalidArgument,
                             "SUBMIT_PLAN: mapping is not a bijection");
    }
    const std::uint64_t id = adopted->fingerprint_memo();
    runtime::Status s =
        insert(id, std::make_shared<const perm::Permutation>(std::move(*adopted)));
    return s.is_ok() ? runtime::StatusOr<std::uint64_t>(id) : s;
  }

  /// The plan registered under `id`, or nullptr.
  [[nodiscard]] Plan find(std::uint64_t id) const {
    std::lock_guard lock(mutex_);
    const auto it = plans_.find(id);
    return it == plans_.end() ? nullptr : it->second;
  }

  /// Every registered (id, plan).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, Plan>> all() const {
    std::lock_guard lock(mutex_);
    return {plans_.begin(), plans_.end()};
  }

  /// Plans held. None is ever dropped, so this also counts the distinct
  /// plans registered so far.
  [[nodiscard]] std::uint64_t size() const {
    std::lock_guard lock(mutex_);
    return plans_.size();
  }

 private:
  const std::uint32_t max_plans_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Plan> plans_;
};

}  // namespace hmm::net
