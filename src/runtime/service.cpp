#include "runtime/service.hpp"

namespace hmm::runtime {

StatusOr<std::shared_ptr<const perm::Permutation>> RobustPermuteService::compile_program(
    const Program& program, std::uint64_t n, const PlanResolver& resolver) {
  const std::uint64_t key = program_fingerprint(program.ops, n).value;
  {
    std::lock_guard lock(composites_mutex_);
    const auto it = composites_.find(key);
    if (it != composites_.end()) {
      composites_lru_.splice(composites_lru_.begin(), composites_lru_, it->second.second);
      return it->second.first;
    }
  }
  StatusOr<ResolvedProgram> resolved = resolve_program(program, n, resolver);
  if (!resolved.ok()) return resolved.status();
  StatusOr<perm::Permutation> fused = fuse_program(resolved.value());
  if (!fused.ok()) return fused.status();
  auto composite = std::make_shared<const perm::Permutation>(std::move(fused).value());

  std::lock_guard lock(composites_mutex_);
  // Racing first submissions: the first to get here stays memoized.
  if (composites_.count(key) != 0) return composite;
  composites_lru_.push_front(key);
  composites_.emplace(key, std::make_pair(composite, composites_lru_.begin()));
  while (composites_.size() > kMaxCachedComposites) {
    composites_.erase(composites_lru_.back());
    composites_lru_.pop_back();
  }
  return composite;
}

}  // namespace hmm::runtime
