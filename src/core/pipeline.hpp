#pragma once
/// \file pipeline.hpp
/// \brief Multi-stage permutation pipelines and their fusion.
///
/// Many workloads apply a *sequence* of data-independent permutations
/// (FFT stage reorders, sorting-network rounds, repeated corner turns).
/// Because the scheduled algorithm's cost is permutation-independent
/// (Theorem 9), composing k stages into one permutation and compiling
/// a single plan is a guaranteed k-fold saving over executing the
/// stages one by one — the model makes fusion a theorem rather than a
/// heuristic. `PermutationPipeline` owns that decision: stages are
/// appended, `compile()` fuses maximal runs, and `execute()` runs the
/// fused plans back to back.
///
/// Fusion is still broken (a) where the caller inserts an explicit
/// barrier — meaning some computation happens between stages, so the
/// intermediate order must materialize — and (b) when a fused stage
/// group degenerates to the identity (it is then skipped entirely,
/// another win composition makes visible: e.g. two corner turns).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "model/cost.hpp"
#include "perm/permutation.hpp"

namespace hmm::core {

class PermutationPipeline {
 public:
  explicit PermutationPipeline(model::MachineParams machine) : machine_(machine) {
    machine_.validate();
  }

  /// Append a stage: the array is permuted by `p` (b[p(i)] = a[i]).
  PermutationPipeline& then(perm::Permutation p) {
    HMM_CHECK_MSG(stages_.empty() || stages_.back().size() == p.size(),
                  "all pipeline stages must share one size");
    HMM_CHECK_MSG(!compiled(), "pipeline already compiled");
    stages_.push_back(std::move(p));
    barriers_.push_back(false);
    return *this;
  }

  /// Insert a barrier after the most recent stage: the intermediate
  /// ordering must materialize (computation happens there), so fusion
  /// must not cross it.
  PermutationPipeline& barrier() {
    HMM_CHECK_MSG(!stages_.empty(), "barrier needs a preceding stage");
    HMM_CHECK_MSG(!compiled(), "pipeline already compiled");
    barriers_.back() = true;
    return *this;
  }

  [[nodiscard]] std::uint64_t stage_count() const noexcept { return stages_.size(); }
  [[nodiscard]] bool compiled() const noexcept { return !segments_.empty(); }

  /// Fuse maximal barrier-free runs and build one plan per non-identity
  /// fused segment.
  void compile() {
    HMM_CHECK_MSG(!stages_.empty(), "empty pipeline");
    HMM_CHECK_MSG(!compiled(), "pipeline already compiled");
    std::optional<perm::Permutation> fused;
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      fused = fused ? stages_[s].compose(*fused) : stages_[s];
      if (barriers_[s] || s + 1 == stages_.size()) {
        Segment seg;
        seg.fused_stages = fused_count_ + 1;
        if (!fused->is_identity()) {
          seg.plan.emplace(ScheduledPlan::build(*fused, machine_));
          seg.permutation.emplace(std::move(*fused));
        }
        segments_.push_back(std::move(seg));
        fused.reset();
        fused_count_ = 0;
      } else {
        ++fused_count_;
      }
    }
    fused_count_ = 0;
  }

  /// Number of compiled segments (plans actually executed, identity
  /// segments excluded from work but present in the list).
  [[nodiscard]] std::uint64_t segment_count() const noexcept { return segments_.size(); }
  [[nodiscard]] std::uint64_t active_segment_count() const {
    std::uint64_t k = 0;
    for (const auto& seg : segments_) k += seg.plan.has_value();
    return k;
  }

  /// Predicted HMM time: one scheduled execution per active segment —
  /// vs `stage_count()` executions unfused (the saving fusion buys).
  [[nodiscard]] std::uint64_t predicted_time_units() const {
    HMM_CHECK_MSG(compiled(), "compile() first");
    return active_segment_count() *
           model::scheduled_time(stages_.front().size(), machine_);
  }
  [[nodiscard]] std::uint64_t predicted_unfused_time_units() const {
    return stage_count() * model::scheduled_time(stages_.front().size(), machine_);
  }

  /// Execute on the host backend. `a` in, `b` out; scratch of size n.
  /// Safe aliasing: a segment's input is fully consumed by its first
  /// sweep before its scratch leg is first written, so two buffers
  /// ping-pong through any number of segments.
  template <class T>
  void execute(util::ThreadPool& pool, std::span<const T> a, std::span<T> b,
               std::span<T> scratch) const {
    HMM_CHECK_MSG(compiled(), "compile() first");
    const std::uint64_t n = stages_.front().size();
    HMM_CHECK(a.size() == n && b.size() == n && scratch.size() == n);
    // Start with the input in b (identity pipelines degenerate to copy).
    std::copy(a.begin(), a.end(), b.begin());
    std::span<T> cur = b;
    std::span<T> other = scratch;
    for (const auto& seg : segments_) {
      if (!seg.plan) continue;
      scheduled_cpu<T>(pool, *seg.plan, std::span<const T>(cur.data(), n), other, cur);
      std::swap(cur, other);
    }
    if (cur.data() != b.data()) std::copy(cur.begin(), cur.end(), b.begin());
  }

  /// The fused permutation a segment applies (for tests/inspection).
  [[nodiscard]] const perm::Permutation* segment_permutation(std::uint64_t i) const {
    return segments_[i].permutation ? &*segments_[i].permutation : nullptr;
  }

 private:
  struct Segment {
    std::uint64_t fused_stages = 0;
    std::optional<ScheduledPlan> plan;
    std::optional<perm::Permutation> permutation;
  };

  model::MachineParams machine_;
  std::vector<perm::Permutation> stages_;
  std::vector<bool> barriers_;
  std::vector<Segment> segments_;
  std::uint64_t fused_count_ = 0;
};

}  // namespace hmm::core
