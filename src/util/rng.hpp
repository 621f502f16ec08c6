#pragma once
/// \file rng.hpp
/// \brief Deterministic, fast PRNG (xoshiro256**) used by generators,
///        property tests, and benchmark workloads.
///
/// A fixed seed gives fully reproducible experiment tables; the engine
/// satisfies the `std::uniform_random_bit_generator` concept so it can
/// drive `std::shuffle`-style code, but we provide our own unbiased
/// bounded sampler to keep results identical across standard libraries.

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "util/hash.hpp"

namespace hmm::util {

/// SplitMix64 — used to expand a 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept { return mix64(state_ += 0x9e3779b97f4a7c15ull); }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x1234abcd5678ef90ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  std::uint64_t operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Unbiased uniform draw in [0, bound) via Lemire rejection.
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Long-jump: advance 2^192 steps (for carving independent streams).
  void long_jump() noexcept;

 private:
  std::uint64_t s_[4];
};

/// The pause before retry `step` (1-based): base·2^(step-1) capped at
/// `cap`, plus a deterministic jitter below that drawn from `seed` and
/// the step, so that synchronized failures fan out yet replay exactly.
/// No pause at step 0 or with a zero base.
[[nodiscard]] inline std::chrono::microseconds jittered_backoff(std::chrono::microseconds base,
                                                                std::chrono::microseconds cap,
                                                                int step,
                                                                std::uint64_t seed) noexcept {
  if (step <= 0 || base.count() <= 0) return std::chrono::microseconds{0};
  const std::uint64_t delay_us =
      std::min(static_cast<std::uint64_t>(base.count()) << std::min(step - 1, 20),
               static_cast<std::uint64_t>(std::max<std::int64_t>(0, cap.count())));
  const std::uint64_t x =
      mix64(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(step)));
  return std::chrono::microseconds(delay_us + (delay_us == 0 ? 0 : x % delay_us));
}

}  // namespace hmm::util
