/// \file kernels_avx512.cpp
/// \brief AVX-512 tier of the kernel dispatch (compiled with
/// -mavx512f -mavx512bw -mavx512vl -mavx512dq).
///
/// The sweeps are straight-line gather→store pipelines: widen sixteen
/// uint16 table entries to 32-bit lanes, add the per-lane row offsets,
/// vpgatherdd (or two 8-lane vpgatherdq for 8-byte elements) from the
/// cache-resident band or row, and store one contiguous run. For
/// 4-byte elements a band step stores one full 64 B line. The
/// conventional `scatter` slot (absent in the AVX2 tier) is populated
/// here: p is a global permutation, so indices are globally unique and
/// vpscatterdd is well-defined.
///
/// Masked tails: a band shorter than sixteen rows, a row whose length
/// is not a multiple of the vector width and the conventional kernels'
/// remainders all run the body's instructions with the top lanes
/// switched off, not a scalar loop.

#include <immintrin.h>

#include <cstdint>

#include "cpu/dispatch.hpp"

namespace hmm::cpu::avx512 {
namespace {

/// Rows per band (cpu::kBandRows): one 16-lane gather per column.
constexpr std::uint64_t kBand = 16;

/// Sixteen uint16 table entries widened to sixteen 32-bit lanes.
inline __m512i load_idx16(const std::uint16_t* p) {
  return _mm512_cvtepu16_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

/// Masked variant of load_idx16 for the tail (inactive lanes zero).
inline __m512i load_idx16_masked(const std::uint16_t* p, __mmask16 m) {
  return _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(m, p));
}

inline __mmask16 low_mask16(std::uint64_t k) {
  return static_cast<__mmask16>((1u << k) - 1u);
}

/// Lane i's row offset inside a band: i * cols.
inline __m512i band_offsets(std::uint64_t cols) {
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm512_mullo_epi32(iota, _mm512_set1_epi32(static_cast<int>(cols)));
}

/// Gather sixteen 8-byte elements at 32-bit offsets `idx` (lanes off in
/// `m` read nothing) and store them to `out` under the same mask.
inline void gather_store_u64x16(const std::uint64_t* in, std::uint64_t* out, __m512i idx,
                                __mmask16 m) {
  const __m256i lo = _mm512_castsi512_si256(idx);
  const __m256i hi = _mm512_extracti64x4_epi64(idx, 1);
  const auto mlo = static_cast<__mmask8>(m & 0xff);
  const auto mhi = static_cast<__mmask8>(m >> 8);
  if (m == 0xffff) {
    _mm512_storeu_si512(out, _mm512_i32gather_epi64(lo, in, 8));
    _mm512_storeu_si512(out + 8, _mm512_i32gather_epi64(hi, in, 8));
    return;
  }
  _mm512_mask_storeu_epi64(
      out, mlo, _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), mlo, lo, in, 8));
  _mm512_mask_storeu_epi64(
      out + 8, mhi, _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), mhi, hi, in, 8));
}

// ---- band sweep (row pass fused with the transpose after it) ---------
//
// Column c of a band: sixteen table entries (one per band row, 32 B
// contiguous) plus the row offsets {0, cols, ..., 15 cols} address the
// band's sixteen source elements; they land contiguously at
// out[c][band rows]. The index vector is decoded once per column and
// reused by every lane.

void band_sweep_u32(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                    std::uint64_t rows, std::uint64_t cols, const std::uint16_t* h,
                    std::uint64_t b0, std::uint64_t b1) {
  const __m512i offsets = band_offsets(cols);
  for (std::uint64_t band = b0; band < b1; ++band) {
    const std::uint64_t r0 = band * kBand;
    const std::uint64_t height = rows - r0 < kBand ? rows - r0 : kBand;
    const __mmask16 m = low_mask16(height);
    const std::uint16_t* hb = h + r0 * cols;
    for (std::uint64_t c = 0; c < cols; ++c) {
      if (height == kBand) {
        const __m512i idx = _mm512_add_epi32(load_idx16(hb + c * kBand), offsets);
        for (std::uint64_t l = 0; l < lanes; ++l) {
          const auto* in = static_cast<const std::uint32_t*>(srcs[l]) + r0 * cols;
          auto* out = static_cast<std::uint32_t*>(dsts[l]) + c * rows + r0;
          _mm512_storeu_si512(out, _mm512_i32gather_epi32(idx, in, 4));
        }
      } else {
        const __m512i idx =
            _mm512_add_epi32(load_idx16_masked(hb + c * height, m), offsets);
        for (std::uint64_t l = 0; l < lanes; ++l) {
          const auto* in = static_cast<const std::uint32_t*>(srcs[l]) + r0 * cols;
          auto* out = static_cast<std::uint32_t*>(dsts[l]) + c * rows + r0;
          _mm512_mask_storeu_epi32(
              out, m, _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, idx, in, 4));
        }
      }
    }
  }
}

void band_sweep_u64(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                    std::uint64_t rows, std::uint64_t cols, const std::uint16_t* h,
                    std::uint64_t b0, std::uint64_t b1) {
  const __m512i offsets = band_offsets(cols);
  for (std::uint64_t band = b0; band < b1; ++band) {
    const std::uint64_t r0 = band * kBand;
    const std::uint64_t height = rows - r0 < kBand ? rows - r0 : kBand;
    const __mmask16 m = low_mask16(height);
    const std::uint16_t* hb = h + r0 * cols;
    for (std::uint64_t c = 0; c < cols; ++c) {
      const __m512i idx = _mm512_add_epi32(
          height == kBand ? load_idx16(hb + c * kBand) : load_idx16_masked(hb + c * height, m),
          offsets);
      for (std::uint64_t l = 0; l < lanes; ++l) {
        const auto* in = static_cast<const std::uint64_t*>(srcs[l]) + r0 * cols;
        auto* out = static_cast<std::uint64_t*>(dsts[l]) + c * rows + r0;
        gather_store_u64x16(in, out, idx, m);
      }
    }
  }
}

// ---- row sweep -------------------------------------------------------

void row_sweep_u32(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                   std::uint64_t cols, const std::uint16_t* h, std::uint64_t r0,
                   std::uint64_t r1) {
  for (std::uint64_t r = r0; r < r1; ++r) {
    const std::uint16_t* hr = h + r * cols;
    for (std::uint64_t k = 0; k < cols; k += 16) {
      const bool full = k + 16 <= cols;
      const __mmask16 m = full ? static_cast<__mmask16>(0xffff) : low_mask16(cols - k);
      const __m512i idx = full ? load_idx16(hr + k) : load_idx16_masked(hr + k, m);
      for (std::uint64_t l = 0; l < lanes; ++l) {
        const auto* in = static_cast<const std::uint32_t*>(srcs[l]) + r * cols;
        auto* out = static_cast<std::uint32_t*>(dsts[l]) + r * cols + k;
        if (full) {
          _mm512_storeu_si512(out, _mm512_i32gather_epi32(idx, in, 4));
        } else {
          _mm512_mask_storeu_epi32(
              out, m, _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, idx, in, 4));
        }
      }
    }
  }
}

void row_sweep_u64(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                   std::uint64_t cols, const std::uint16_t* h, std::uint64_t r0,
                   std::uint64_t r1) {
  for (std::uint64_t r = r0; r < r1; ++r) {
    const std::uint16_t* hr = h + r * cols;
    for (std::uint64_t k = 0; k < cols; k += 16) {
      const bool full = k + 16 <= cols;
      const __mmask16 m = full ? static_cast<__mmask16>(0xffff) : low_mask16(cols - k);
      const __m512i idx = full ? load_idx16(hr + k) : load_idx16_masked(hr + k, m);
      for (std::uint64_t l = 0; l < lanes; ++l) {
        const auto* in = static_cast<const std::uint64_t*>(srcs[l]) + r * cols;
        auto* out = static_cast<std::uint64_t*>(dsts[l]) + r * cols + k;
        gather_store_u64x16(in, out, idx, m);
      }
    }
  }
}

// ---- conventional gather / scatter -----------------------------------

void gather_u32(const void* a, void* b, const std::uint32_t* idx,
                std::uint64_t lo, std::uint64_t hi) {
  const auto* src = static_cast<const std::uint32_t*>(a);
  auto* dst = static_cast<std::uint32_t*>(b);
  std::uint64_t i = lo;
  for (; i + 16 <= hi; i += 16) {
    const __m512i vi = _mm512_loadu_si512(idx + i);
    _mm512_storeu_si512(dst + i, _mm512_i32gather_epi32(vi, src, 4));
  }
  if (i < hi) {
    const __mmask16 m = static_cast<__mmask16>((1u << (hi - i)) - 1u);
    const __m512i vi = _mm512_maskz_loadu_epi32(m, idx + i);
    const __m512i v =
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, vi, src, 4);
    _mm512_mask_storeu_epi32(dst + i, m, v);
  }
}

void gather_u64(const void* a, void* b, const std::uint32_t* idx,
                std::uint64_t lo, std::uint64_t hi) {
  const auto* src = static_cast<const std::uint64_t*>(a);
  auto* dst = static_cast<std::uint64_t*>(b);
  std::uint64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m256i vi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    _mm512_storeu_si512(dst + i, _mm512_i32gather_epi64(vi, src, 8));
  }
  if (i < hi) {
    const __mmask8 m = static_cast<__mmask8>((1u << (hi - i)) - 1u);
    const __m256i vi = _mm256_maskz_loadu_epi32(m, idx + i);
    const __m512i v =
        _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), m, vi, src, 8);
    _mm512_mask_storeu_epi64(dst + i, m, v);
  }
}

void scatter_u32(const void* a, void* b, const std::uint32_t* idx,
                 std::uint64_t lo, std::uint64_t hi) {
  const auto* src = static_cast<const std::uint32_t*>(a);
  auto* dst = static_cast<std::uint32_t*>(b);
  std::uint64_t i = lo;
  for (; i + 16 <= hi; i += 16) {
    const __m512i vi = _mm512_loadu_si512(idx + i);
    const __m512i v = _mm512_loadu_si512(src + i);
    _mm512_i32scatter_epi32(dst, vi, v, 4);
  }
  if (i < hi) {
    const __mmask16 m = static_cast<__mmask16>((1u << (hi - i)) - 1u);
    const __m512i vi = _mm512_maskz_loadu_epi32(m, idx + i);
    const __m512i v = _mm512_maskz_loadu_epi32(m, src + i);
    _mm512_mask_i32scatter_epi32(dst, m, vi, v, 4);
  }
}

void scatter_u64(const void* a, void* b, const std::uint32_t* idx,
                 std::uint64_t lo, std::uint64_t hi) {
  const auto* src = static_cast<const std::uint64_t*>(a);
  auto* dst = static_cast<std::uint64_t*>(b);
  std::uint64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m256i vi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m512i v = _mm512_loadu_si512(src + i);
    _mm512_i32scatter_epi64(dst, vi, v, 8);
  }
  if (i < hi) {
    const __mmask8 m = static_cast<__mmask8>((1u << (hi - i)) - 1u);
    const __m256i vi = _mm256_maskz_loadu_epi32(m, idx + i);
    const __m512i v = _mm512_maskz_loadu_epi64(m, src + i);
    _mm512_mask_i32scatter_epi64(dst, m, vi, v, 8);
  }
}

}  // namespace

extern const simd::KernelOps kOps4 = {band_sweep_u32, row_sweep_u32, gather_u32, scatter_u32};
extern const simd::KernelOps kOps8 = {band_sweep_u64, row_sweep_u64, gather_u64, scatter_u64};

}  // namespace hmm::cpu::avx512
