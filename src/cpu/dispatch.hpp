#pragma once
/// \file dispatch.hpp
/// \brief Runtime CPU-feature dispatch for the kernel tier.
///
/// The host kernels exist in up to three tiers: the scalar C++ loops
/// (the differential-test oracle, always built), an AVX2 tier
/// (vpgatherdd/vpgatherdq reads, widened uint16 table loads), and an
/// AVX-512 tier (16-lane gathers with masked tails, plus a vpscatter
/// for the conventional D-designated kernel, where p is a global
/// permutation and so the indices inside one scatter vector are
/// distinct). The scheduled plan's sweeps are gathers only: each step
/// widens sixteen uint16 table entries to 32-bit offsets, gathers, and
/// stores a contiguous run (see kernels.hpp).
///
/// Selection happens once, at first kernel launch:
///   1. detect what the CPU supports (AVX2; AVX-512 F+BW+VL+DQ),
///   2. apply the `HMM_KERNEL_VARIANT` env override
///      (`scalar` | `avx2` | `avx512` | `auto`), clamped to what the
///      hardware can run (a forced `avx512` on an AVX2-only box warns
///      and degrades to `avx2`),
///   3. cache the result; every kernel launch is then one relaxed load.
///
/// `set_kernel_variant` re-aims the dispatcher at runtime for the
/// differential tests and the per-variant bench rows; it clamps the
/// same way and returns the variant actually installed.
///
/// The same choice selects the HMMP frame checksum path (net/wire.cpp):
/// `scalar` runs the table-driven CRC32C, and every SIMD tier, which
/// detection admits only with SSE4.2 and PCLMULQDQ, runs the `crc32`
/// instruction.
///
/// Element types dispatch by width: 4- and 8-byte elements (the
/// uint32/uint64/float/double serving types — kernels only move bits,
/// so float rides the u32 path bit-identically) take the SIMD tiers;
/// every other width runs scalar.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hmm::cpu {

/// Kernel tiers in ascending capability order (the dispatcher clamps
/// downward, so the order is meaningful).
enum class KernelVariant : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

[[nodiscard]] std::string_view to_string(KernelVariant v) noexcept;

/// What the running CPU supports (cpuid, detected once). `avx512`
/// requires the F+BW+VL+DQ subset the kernels use, not just AVX512F.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512 = false;
};

[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

/// The best variant this binary + CPU can run (ignores the env
/// override; what `auto` resolves to).
[[nodiscard]] KernelVariant best_kernel_variant() noexcept;

/// The active variant: resolved on first call (hardware cap, then the
/// `HMM_KERNEL_VARIANT` override), one relaxed atomic load after that.
[[nodiscard]] KernelVariant kernel_variant() noexcept;

/// Re-aim the dispatcher (tests, per-variant bench rows). Requests the
/// hardware or build cannot satisfy clamp down; returns the variant
/// actually installed. Not meant to race with in-flight kernels.
KernelVariant set_kernel_variant(KernelVariant v) noexcept;

namespace simd {

/// Serial sub-range kernels for one element width, type-erased to
/// `void*` (the kernels move bits; width is fixed per table). The
/// thread pool templates in kernels.hpp fan chunks out and call these
/// per chunk. Every table has both sweeps; a null conventional member
/// means "run the scalar loop instead" (AVX2 has gathers but no
/// scatter, so its conventional-scatter slot stays null).
struct KernelOps {
  /// Bands [b0, b1) of the fused row pass + transpose: for each lane l,
  /// dsts[l][c * rows + r] = srcs[l][r * cols + h(r, c)], with `h`
  /// band-interleaved (cpu::band_offset). `rows` need not be a multiple
  /// of the band height: the last band runs masked.
  void (*band_sweep)(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                     std::uint64_t rows, std::uint64_t cols, const std::uint16_t* h,
                     std::uint64_t b0, std::uint64_t b1);
  /// Rows [r0, r1) of dsts[l][r][c] = srcs[l][r][h[r][c]] for each lane,
  /// `h` row-major.
  void (*row_sweep)(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                    std::uint64_t cols, const std::uint16_t* h, std::uint64_t r0,
                    std::uint64_t r1);
  /// b[i] = a[idx[i]] for i in [lo, hi) (conventional S-designated).
  void (*gather)(const void* a, void* b, const std::uint32_t* idx,
                 std::uint64_t lo, std::uint64_t hi);
  /// b[idx[i]] = a[i] for i in [lo, hi) (conventional D-designated).
  void (*scatter)(const void* a, void* b, const std::uint32_t* idx,
                  std::uint64_t lo, std::uint64_t hi);
};

}  // namespace simd

/// The kernel-ops table for the active variant and element width, or
/// nullptr when that combination runs scalar (scalar variant active,
/// width not 4/8 bytes, or the SIMD TUs were not built for this
/// target). The x86 gather/scatter instructions take signed 32-bit
/// element indices, so callers must additionally keep any *global*
/// index space below 2^31 elements (the sweeps index within a band or
/// row and are unaffected).
[[nodiscard]] const simd::KernelOps* active_kernel_ops(std::size_t elem_size) noexcept;

}  // namespace hmm::cpu
