#pragma once
/// \file permuter.hpp
/// \brief `OfflinePermuter<T>` — the one-stop downstream API.
///
/// Wraps the paper's decision problem for the user: given a permutation
/// known in advance, pick the faster algorithm for this host (the
/// bucketed two gathers or the conventional gather), own the scratch
/// buffers, and expose a single `permute(a, b)` call that can be
/// invoked any number of times. Forced `kScheduled` runs the paper's
/// own algorithm (Tables II and III).
///
/// `kAuto` is resolved by `host_pick`: the HMM instantiated for the
/// host CPU (model/host.hpp), where the address group is a 64 B cache
/// line and the conventional kernel's distribution is the number of
/// source lines its gather misses in a core's L2. The paper's own rule,
/// Lemma 4 against Theorem 9 on the GPU's machine parameters,
///   16(n/w + l - 1) + 16 n/(dw)  <  2(n/w + l - 1) + d_w(P) + l - 1,
/// stays available as `gpu_pick`; `predicted_time_units()` reports that
/// model's time for whichever strategy the host chose.

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "core/bucketed.hpp"
#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "core/strategy.hpp"
#include "model/cost.hpp"
#include "model/host.hpp"
#include "perm/distribution.hpp"
#include "util/bits.hpp"
#include "util/stopwatch.hpp"

namespace hmm::core {

/// The paper's selection rule on `machine`: the scheduled algorithm when
/// its Theorem 9 time beats S-designated's Lemma 4 time at the measured
/// d_w(P⁻¹) and the plan is supported, S-designated otherwise. A pure
/// function of (P, machine), kept for the GPU model; kAuto does not use it.
Strategy gpu_pick(const perm::Permutation& p, const model::MachineParams& machine);

/// kAuto's decision on the host, with the predictions behind it.
struct HostPick {
  Strategy strategy = Strategy::kSDesignated;
  /// Simulated L2 misses of the gather (zero when the source fits half
  /// the L2 and nothing was simulated).
  model::GatherMisses misses;
  double conventional_ms = 0;  ///< predicted gather time
  double bucketed_ms = 0;      ///< predicted bucketed-kernel time (0 when not simulated)
};

/// kAuto on the host. `pinv` is P⁻¹ (the array S-designated gathers
/// through) and `elem_bytes` is sizeof(T). A source that fits in half
/// of one core's L2 goes to S-designated without simulation; otherwise
/// the gather's L2 misses are simulated on the source's share of the L2
/// (model::gather_l2_misses on `host.source_share()`, on the global
/// pool) and S-designated is picked only when predicted faster
/// than the bucketed kernel by more than `model::kHostPickMargin`. A
/// pure function of (P⁻¹, sizeof(T), host).
HostPick host_pick(const perm::Permutation& pinv, std::size_t elem_bytes,
                   const model::HostParams& host);

/// This host's parameters for a gather over a `source_bytes` source:
/// the cache geometry always; the measured costs only when the source
/// does not fit half the L2, since host_pick needs them only then. The
/// costs come from a probe that runs once per process, on first need: a
/// pool fork-join, the bucketed kernel on a random-looking permutation
/// past the LLC share, and a random and a transposing gather at four
/// times the L2. The DRAM level is probed once, only when a source past
/// the LLC share first asks for it. Never called on the request path:
/// only compiles ask.
model::HostParams host_params(std::uint64_t source_bytes);

/// What `host_params` knows without probing: the geometry, plus the
/// costs of whichever probes have already run (zero otherwise). For
/// STATS and Prometheus.
model::HostParams host_params_so_far();

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

    chosen_ = strategy;
    if (strategy == Strategy::kAuto) {
      inverse_.emplace(perm_.inverse());
      chosen_ = host_pick(*inverse_, sizeof(T), host_params(n * sizeof(T))).strategy;
    }
    HMM_CHECK_MSG(chosen_ != Strategy::kScheduled || plan_supported(n, machine_),
                  "scheduled strategy requires power-of-two n, width^2 <= n < 2^32");

    switch (chosen_) {
      case Strategy::kScheduled:
        plan_.emplace(ScheduledPlan::build(perm_, machine_));
        break;
      case Strategy::kBucketed:
        // host_params(0) is the geometry alone: an empty source fits
        // L2, so nothing is probed.
        buckets_.emplace(BucketedPlan::build(
            perm_, BucketedPlan::band_for(n, sizeof(T), host_params(0).l2_bytes),
            BucketedPlan::skew_for(sizeof(T)), inverse_ ? &*inverse_ : nullptr));
        inverse_.reset();
        break;
      case Strategy::kSDesignated:
        if (!inverse_) inverse_.emplace(perm_.inverse());
        break;
      case Strategy::kDDesignated:
        break;
      case Strategy::kAuto:
        break;  // unreachable; resolved above
    }
    offline_seconds_ = build_clock.seconds();
  }

  /// The strategy actually in use: the forced one, or kAuto's host pick.
  [[nodiscard]] Strategy strategy() const noexcept { return chosen_; }
  [[nodiscard]] const perm::Permutation& permutation() const noexcept { return perm_; }
  [[nodiscard]] const model::MachineParams& machine() const noexcept { return machine_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return perm_.size(); }

  /// The compiled plan, when the scheduled strategy is active.
  [[nodiscard]] const ScheduledPlan* plan() const noexcept {
    return plan_ ? &*plan_ : nullptr;
  }

  /// The compiled bucketed plan, when the bucketed strategy is active.
  [[nodiscard]] const BucketedPlan* buckets() const noexcept {
    return buckets_ ? &*buckets_ : nullptr;
  }

  /// Wall-clock seconds the constructor spent on the offline phase
  /// (strategy selection + plan build or inverse computation). This is
  /// the cost a plan cache amortizes away on a hit.
  [[nodiscard]] double offline_build_seconds() const noexcept { return offline_seconds_; }

  /// Approximate resident bytes of the compiled artifact: the owned
  /// permutation, plus the strategy's precomputed state (the gather
  /// tables, or the inverse mapping). Used for byte-bounded cache accounting.
  [[nodiscard]] std::uint64_t compiled_bytes() const noexcept {
    const std::uint64_t n = size();
    std::uint64_t bytes = n * sizeof(std::uint32_t);  // perm_
    if (plan_) bytes += plan_->gather_bytes();
    if (buckets_) bytes += buckets_->table_bytes();
    if (inverse_) bytes += n * sizeof(std::uint32_t);
    return bytes;
  }

  /// Scratch elements an external-scratch `permute` call must provide:
  /// n for the scheduled strategy, the padded packed array for the
  /// bucketed one, 0 for the conventional ones.
  [[nodiscard]] std::uint64_t scratch_elements() const noexcept {
    if (plan_) return size();
    if (buckets_) return buckets_->packed_size();
    return 0;
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
  /// (the scheduled plan's three sweeps, the bucketed plan's two
  /// passes; the conventional strategies are a single kernel and only
  /// check up front). Returning
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
  /// kernel launch that ran — indices 0, 2 and 4 for the scheduled
  /// plan's three sweeps, 0 and `kConventionalKernel` for the bucketed
  /// plan's pack and merge, `kConventionalKernel` for the single
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
      case Strategy::kScheduled: {
        HMM_CHECK_MSG(scratch.size() == size(), "scheduled strategy needs n scratch elements");
        Lane<T> lane{a, b, scratch};
        LaneGate lane_gate;
        if (gate) lane_gate = [&gate](std::size_t) { return gate(); };
        return scheduled_cpu<T>(pool, *plan_, std::span<Lane<T>>(&lane, 1), lane_gate,
                                observer);
      }
      case Strategy::kBucketed:
        return bucketed_cpu<T>(pool, *buckets_, a, b, scratch, gate, observer);
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
  /// alias. Uses the permuter's own scratch buffer, allocated on the
  /// first call, so calls on the same object must be serialized — use
  /// the const overload above for concurrent execution.
  void permute(std::span<const T> a, std::span<T> b) {
    scratch_.resize(scratch_elements());
    permute(a, b, std::span<T>(scratch_.data(), scratch_.size()));
  }

  /// Predicted HMM running time of the active strategy (time units), on
  /// the machine the permuter was compiled for — the paper's model, not
  /// the host's.
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
      case Strategy::kBucketed:
        return bucketed_time(*buckets_, machine_);
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
  std::optional<BucketedPlan> buckets_;
  std::optional<perm::Permutation> inverse_;
  util::aligned_vector<T> scratch_;
};

}  // namespace hmm::core
