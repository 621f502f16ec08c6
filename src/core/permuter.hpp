#pragma once
/// \file permuter.hpp
/// \brief `OfflinePermuter<T>` — the one-stop downstream API.
///
/// Wraps the paper's decision problem for the user: given a permutation
/// known in advance, pick the best algorithm for this machine (the
/// scheduled plan when the permutation's distribution is high and the
/// size supports it; the conventional gather otherwise), own the
/// scratch buffers, and expose a single `permute(a, b)` call that can
/// be invoked any number of times.
///
/// The selection rule mirrors Lemma 4 vs Theorem 9: scheduled wins when
///   16(n/w + l - 1) + 16 n/(dw)  <  2(n/w + l - 1) + d_w(P) + l - 1,
/// evaluated with the actual machine parameters and measured d_w(P).

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "util/bits.hpp"
#include "util/stopwatch.hpp"

namespace hmm::core {

/// Execution strategy of an OfflinePermuter.
enum class Strategy {
  kAuto,           ///< pick by model cost (default)
  kScheduled,      ///< force the paper's scheduled algorithm
  kSDesignated,    ///< force conventional gather  (b[i] = a[p̄[i]])
  kDDesignated,    ///< force conventional scatter (b[p[i]] = a[i])
};

std::string_view to_string(Strategy s) noexcept;

template <class T>
class OfflinePermuter {
 public:
  /// Compile the permuter. The permutation is copied (it defines the
  /// object); plan/inverse construction is the offline phase.
  explicit OfflinePermuter(perm::Permutation p,
                           model::MachineParams machine = model::MachineParams::gtx680(),
                           Strategy strategy = Strategy::kAuto)
      : perm_(std::move(p)), machine_(machine) {
    const util::Stopwatch build_clock;
    const std::uint64_t n = perm_.size();
    const bool plannable = util::is_pow2(n) && plan_supported(n, machine_);

    chosen_ = strategy;
    if (strategy == Strategy::kAuto) {
      if (plannable) {
        const std::uint64_t t_sched = model::scheduled_time(n, machine_);
        const std::uint64_t t_conv = model::s_designated_time(
            n, perm::inverse_distribution(perm_, machine_.width), machine_);
        chosen_ = t_sched < t_conv ? Strategy::kScheduled : Strategy::kSDesignated;
      } else {
        chosen_ = Strategy::kSDesignated;
      }
    }
    HMM_CHECK_MSG(chosen_ != Strategy::kScheduled || plannable,
                  "scheduled strategy requires power-of-two n, width^2 <= n < 2^32");

    switch (chosen_) {
      case Strategy::kScheduled:
        plan_.emplace(ScheduledPlan::build(perm_, machine_));
        scratch_.resize(n);
        HMM_CHECK_MSG(plan_->fits_shared(sizeof(T)),
                      "plan does not fit this machine's shared memory for T");
        break;
      case Strategy::kSDesignated:
        inverse_.emplace(perm_.inverse());
        break;
      case Strategy::kDDesignated:
        break;
      case Strategy::kAuto:
        break;  // unreachable; resolved above
    }
    offline_seconds_ = build_clock.seconds();
  }

  /// The strategy actually in use (after kAuto resolution).
  [[nodiscard]] Strategy strategy() const noexcept { return chosen_; }
  [[nodiscard]] const perm::Permutation& permutation() const noexcept { return perm_; }
  [[nodiscard]] const model::MachineParams& machine() const noexcept { return machine_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return perm_.size(); }

  /// The compiled plan, when the scheduled strategy is active.
  [[nodiscard]] const ScheduledPlan* plan() const noexcept {
    return plan_ ? &*plan_ : nullptr;
  }

  /// Wall-clock seconds the constructor spent on the offline phase
  /// (strategy selection + plan build or inverse computation). This is
  /// the cost a plan cache amortizes away on a hit.
  [[nodiscard]] double offline_build_seconds() const noexcept { return offline_seconds_; }

  /// Approximate resident bytes of the compiled artifact: the owned
  /// permutation, plus the strategy's precomputed state (schedule
  /// arrays + direct row permutations, or the inverse mapping) and the
  /// internal scratch buffer. Used for byte-bounded cache accounting.
  [[nodiscard]] std::uint64_t compiled_bytes() const noexcept {
    const std::uint64_t n = size();
    std::uint64_t bytes = n * sizeof(std::uint32_t);  // perm_
    if (plan_) {
      bytes += plan_->schedule_bytes();
      bytes += 3 * n * sizeof(std::uint16_t);  // direct1/2/3
    }
    if (inverse_) bytes += n * sizeof(std::uint32_t);
    bytes += scratch_.size() * sizeof(T);
    return bytes;
  }

  /// Scratch elements an external-scratch `permute` call must provide
  /// (n for the scheduled strategy, 0 otherwise).
  [[nodiscard]] std::uint64_t scratch_elements() const noexcept {
    return chosen_ == Strategy::kScheduled ? size() : 0;
  }

  /// Thread-safe online phase: b[P(i)] = a[i] using caller-provided
  /// scratch (size `scratch_elements()`; may be empty for the
  /// conventional strategies). Unlike the stateful overload below, this
  /// is `const` and touches no member buffers, so any number of threads
  /// may execute the same compiled permuter on distinct (a, b, scratch)
  /// triples concurrently — the runtime executor's batched path.
  void permute(std::span<const T> a, std::span<T> b, std::span<T> scratch) const {
    (void)permute_gated(a, b, scratch, PhaseGate{});
  }

  /// Gated variant of the const online phase: `gate` is consulted at
  /// the boundaries between the strategy's sequential kernel launches
  /// (the scheduled algorithm's five kernels; the conventional
  /// strategies are a single kernel and only check up front). Returning
  /// false stops the execution — the function then returns false and
  /// `b`/`scratch` hold garbage. This is how the runtime executor
  /// observes deadlines and cancellation mid-request without preempting
  /// a running kernel.
  [[nodiscard]] bool permute_gated(std::span<const T> a, std::span<T> b, std::span<T> scratch,
                                   const PhaseGate& gate) const {
    return permute_timed(a, b, scratch, gate, KernelObserver{});
  }

  /// Timed variant of the gated const online phase: `observer` (when
  /// non-empty) receives one (kernel index, wall ns) callback per
  /// kernel launch that ran — indices 0..4 for the scheduled
  /// algorithm's five launches, `kConventionalKernel` for the single
  /// kernel of a conventional strategy. The serving layer uses this to
  /// attribute request time to the paper's phase structure; an empty
  /// observer skips all clock reads.
  [[nodiscard]] bool permute_timed(std::span<const T> a, std::span<T> b, std::span<T> scratch,
                                   const PhaseGate& gate, const KernelObserver& observer) const {
    HMM_CHECK(a.size() == size() && b.size() == size());
    auto& pool = util::ThreadPool::global();
    const auto run_conventional = [&](auto&& kernel) {
      if (gate && !gate()) return false;
      if (observer) {
        util::Stopwatch clock;
        kernel();
        observer(kConventionalKernel, static_cast<std::uint64_t>(clock.nanos()));
      } else {
        kernel();
      }
      return true;
    };
    switch (chosen_) {
      case Strategy::kScheduled:
        HMM_CHECK_MSG(scratch.size() == size(), "scheduled strategy needs n scratch elements");
        return scheduled_cpu_lean_timed<T>(pool, *plan_, a, b, scratch, gate, observer);
      case Strategy::kSDesignated:
        return run_conventional([&] { s_designated_cpu<T>(pool, a, b, *inverse_); });
      case Strategy::kDDesignated:
        return run_conventional([&] { d_designated_cpu<T>(pool, a, b, perm_); });
      case Strategy::kAuto:
        break;
    }
    HMM_CHECK_MSG(false, "unresolved strategy");
    return false;
  }

  /// Online phase: b[P(i)] = a[i]. Reusable; `a` and `b` must not
  /// alias. Uses the permuter's own scratch buffer, so calls on the
  /// same object must be serialized — use the const overload above for
  /// concurrent execution.
  void permute(std::span<const T> a, std::span<T> b) {
    permute(a, b, std::span<T>(scratch_.data(), scratch_.size()));
  }

  /// Predicted HMM running time of the active strategy (time units).
  [[nodiscard]] std::uint64_t predicted_time_units() const {
    const std::uint64_t n = size();
    switch (chosen_) {
      case Strategy::kScheduled:
        return model::scheduled_time(n, machine_);
      case Strategy::kSDesignated:
        return model::s_designated_time(
            n, perm::inverse_distribution(perm_, machine_.width), machine_);
      case Strategy::kDDesignated:
        return model::d_designated_time(n, perm::distribution(perm_, machine_.width),
                                        machine_);
      case Strategy::kAuto:
        break;
    }
    return 0;
  }

  /// True iff the scheduled plan is usable for (n, machine).
  static bool plan_supported(std::uint64_t n, const model::MachineParams& machine) {
    // The row graph numbers its n edges with 32-bit ids.
    if (!util::is_pow2(n) || n >= (1ull << 32)) return false;
    const unsigned k = util::log2_floor(n);
    const unsigned wk = util::log2_floor(machine.width);
    return (k - (k + 1) / 2) >= wk;  // rows >= width (layout.cpp's rule)
  }

 private:
  perm::Permutation perm_;
  model::MachineParams machine_;
  Strategy chosen_;
  double offline_seconds_ = 0;
  std::optional<ScheduledPlan> plan_;
  std::optional<perm::Permutation> inverse_;
  util::aligned_vector<T> scratch_;
};

}  // namespace hmm::core
