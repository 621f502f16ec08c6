#include "cpu/dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hmm::cpu {

// Tables defined by the per-variant translation units (kernels_avx2.cpp
// and kernels_avx512.cpp, compiled with the matching -m flags). The
// build defines HMM_HAVE_*_KERNELS only when the TU is compiled in, so
// a non-x86 or old-compiler build degrades to scalar at compile time.
#if defined(HMM_HAVE_AVX2_KERNELS)
namespace avx2 {
extern const simd::KernelOps kOps4;
extern const simd::KernelOps kOps8;
}  // namespace avx2
#endif
#if defined(HMM_HAVE_AVX512_KERNELS)
namespace avx512 {
extern const simd::KernelOps kOps4;
extern const simd::KernelOps kOps8;
}  // namespace avx512
#endif

namespace {

CpuFeatures detect_features() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports folds in the OS XSAVE state checks, so a
  // kernel that disabled AVX-512 reports unsupported here. A SIMD tier
  // also selects the frame checksum's `crc32` + PCLMULQDQ path
  // (net/wire.cpp), so it requires both: a hypervisor that masks either
  // gets the scalar tier and the table CRC, not SIGILL.
  f.avx2 = __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("sse4.2") != 0 &&
           __builtin_cpu_supports("pclmul") != 0;
  f.avx512 = f.avx2 && __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#endif
#if !defined(HMM_HAVE_AVX2_KERNELS)
  f.avx2 = false;
#endif
#if !defined(HMM_HAVE_AVX512_KERNELS)
  f.avx512 = false;
#endif
  return f;
}

/// Clamp a requested variant to what the CPU + build can run.
KernelVariant clamp_supported(KernelVariant v) noexcept {
  const CpuFeatures& f = cpu_features();
  if (v == KernelVariant::kAvx512 && !f.avx512) v = KernelVariant::kAvx2;
  if (v == KernelVariant::kAvx2 && !f.avx2) v = KernelVariant::kScalar;
  return v;
}

/// First-use resolution: hardware cap, then the env override.
KernelVariant resolve_variant() noexcept {
  KernelVariant v = best_kernel_variant();
  const char* env = std::getenv("HMM_KERNEL_VARIANT");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    KernelVariant want = v;
    if (std::strcmp(env, "scalar") == 0) {
      want = KernelVariant::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      want = KernelVariant::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      want = KernelVariant::kAvx512;
    } else {
      std::fprintf(stderr,
                   "hmm: HMM_KERNEL_VARIANT=%s not recognized "
                   "(scalar|avx2|avx512|auto); using %.*s\n",
                   env, static_cast<int>(to_string(v).size()), to_string(v).data());
      return v;
    }
    const KernelVariant got = clamp_supported(want);
    if (got != want) {
      std::fprintf(stderr,
                   "hmm: HMM_KERNEL_VARIANT=%s unsupported on this CPU/build; "
                   "degrading to %.*s\n",
                   env, static_cast<int>(to_string(got).size()), to_string(got).data());
    }
    v = got;
  }
  return v;
}

/// -1 = not yet resolved; otherwise the int value of the variant.
std::atomic<int> g_variant{-1};

}  // namespace

std::string_view to_string(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kAvx2:
      return "avx2";
    case KernelVariant::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = detect_features();
  return features;
}

KernelVariant best_kernel_variant() noexcept {
  const CpuFeatures& f = cpu_features();
  if (f.avx512) return KernelVariant::kAvx512;
  if (f.avx2) return KernelVariant::kAvx2;
  return KernelVariant::kScalar;
}

KernelVariant kernel_variant() noexcept {
  int v = g_variant.load(std::memory_order_relaxed);
  if (v < 0) {
    // Resolution is deterministic, so a race just repeats the work.
    v = static_cast<int>(resolve_variant());
    g_variant.store(v, std::memory_order_relaxed);
  }
  return static_cast<KernelVariant>(v);
}

KernelVariant set_kernel_variant(KernelVariant v) noexcept {
  const KernelVariant got = clamp_supported(v);
  g_variant.store(static_cast<int>(got), std::memory_order_relaxed);
  return got;
}

const simd::KernelOps* active_kernel_ops(std::size_t elem_size) noexcept {
  const KernelVariant v = kernel_variant();
  if (v == KernelVariant::kScalar) return nullptr;
#if defined(HMM_HAVE_AVX512_KERNELS)
  if (v == KernelVariant::kAvx512) {
    if (elem_size == 4) return &avx512::kOps4;
    if (elem_size == 8) return &avx512::kOps8;
    return nullptr;
  }
#endif
#if defined(HMM_HAVE_AVX2_KERNELS)
  if (v == KernelVariant::kAvx2) {
    if (elem_size == 4) return &avx2::kOps4;
    if (elem_size == 8) return &avx2::kOps8;
    return nullptr;
  }
#endif
  (void)elem_size;
  return nullptr;
}

}  // namespace hmm::cpu
