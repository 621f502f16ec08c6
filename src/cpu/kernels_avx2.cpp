/// \file kernels_avx2.cpp
/// \brief AVX2 tier of the kernel dispatch (compiled with -mavx2).
///
/// AVX2 has gathers (vpgatherdd/vpgatherdq) but no scatter. The
/// scheduled plan's sweeps need none: each step widens uint16 table
/// entries to 32-bit lanes with vpmovzxwd, gathers the source elements
/// and stores them contiguously. A band step gathers sixteen rows as
/// two 8-lane halves (four 4-lane quarters for 8-byte elements), the
/// same layout and order as the AVX-512 tier. The conventional
/// `scatter` slot is null: contiguous reads + indexed writes gain
/// nothing without a scatter instruction, so it stays on the scalar
/// loop.
///
/// Masked tails: a short band or row fills its index vector through a
/// small buffer (AVX2 has no masked 16-bit load) and then runs the
/// body's masked gather and masked store (vpmaskmov).

#include <immintrin.h>

#include <cstdint>

#include "cpu/dispatch.hpp"

namespace hmm::cpu::avx2 {
namespace {

/// Rows per band (cpu::kBandRows).
constexpr std::uint64_t kBand = 16;

/// Eight uint16 table entries widened to eight 32-bit gather lanes.
inline __m256i load_idx8(const std::uint16_t* p) {
  return _mm256_cvtepu16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// `k` (< 8) uint16 entries widened, the other lanes zero: the tail
/// load, which must not read past the table.
inline __m256i load_idx8_partial(const std::uint16_t* p, std::uint64_t k) {
  alignas(16) std::uint16_t buf[8] = {};
  for (std::uint64_t i = 0; i < k; ++i) buf[i] = p[i];
  return load_idx8(buf);
}

/// All-ones in the first `k` (<= 8) 32-bit lanes.
inline __m256i lane_mask8(std::uint64_t k) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(k)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Gather eight 4-byte elements at offsets `idx` and store them to
/// `out`, the lanes outside `mask` neither read nor written.
inline void gather_store(const std::uint32_t* in, std::uint32_t* out, __m256i idx,
                               __m256i mask, bool full) {
  const auto* base = reinterpret_cast<const int*>(in);
  if (full) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_i32gather_epi32(base, idx, 4));
    return;
  }
  const __m256i v = _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), base, idx, mask, 4);
  _mm256_maskstore_epi32(reinterpret_cast<int*>(out), mask, v);
}

/// Gather eight 8-byte elements at offsets `idx` as two 4-lane halves;
/// `mask` is the 32-bit lane mask of the eight offsets.
inline void gather_store(const std::uint64_t* in, std::uint64_t* out, __m256i idx,
                               __m256i mask, bool full) {
  const auto* base = reinterpret_cast<const long long*>(in);
  const __m128i lo = _mm256_castsi256_si128(idx);
  const __m128i hi = _mm256_extracti128_si256(idx, 1);
  if (full) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), _mm256_i32gather_epi64(base, lo, 8));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4),
                        _mm256_i32gather_epi64(base, hi, 8));
    return;
  }
  const __m256i mlo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(mask));
  const __m256i mhi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(mask, 1));
  const __m256i zero = _mm256_setzero_si256();
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(out), mlo,
                         _mm256_mask_i32gather_epi64(zero, base, lo, mlo, 8));
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(out + 4), mhi,
                         _mm256_mask_i32gather_epi64(zero, base, hi, mhi, 8));
}

// ---- band sweep (row pass fused with the transpose after it) ---------
//
// Column c of a band: the band's table entries for c (contiguous) plus
// the row offsets {0, cols, ..., 15 cols} address its source elements,
// which land contiguously at out[c][band rows]. Both halves' index
// vectors are decoded once per column and reused by every lane.

template <class T>
void band_sweep(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                std::uint64_t rows, std::uint64_t cols, const std::uint16_t* h,
                std::uint64_t b0, std::uint64_t b1) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i off_lo = _mm256_mullo_epi32(iota, _mm256_set1_epi32(static_cast<int>(cols)));
  const __m256i off_hi =
      _mm256_add_epi32(off_lo, _mm256_set1_epi32(static_cast<int>(8 * cols)));
  for (std::uint64_t band = b0; band < b1; ++band) {
    const std::uint64_t r0 = band * kBand;
    const std::uint64_t height = rows - r0 < kBand ? rows - r0 : kBand;
    const bool full = height == kBand;
    const std::uint64_t n_lo = height < 8 ? height : 8;
    const std::uint64_t n_hi = height - n_lo;
    const __m256i m_lo = lane_mask8(n_lo);
    const __m256i m_hi = lane_mask8(n_hi);
    const std::uint16_t* hb = h + r0 * cols;
    for (std::uint64_t c = 0; c < cols; ++c) {
      const std::uint16_t* hc = hb + c * height;
      const __m256i lo = full ? load_idx8(hc) : load_idx8_partial(hc, n_lo);
      const __m256i hi = full ? load_idx8(hc + 8) : load_idx8_partial(hc + n_lo, n_hi);
      const __m256i i_lo = _mm256_add_epi32(lo, off_lo);
      const __m256i i_hi = _mm256_add_epi32(hi, off_hi);
      for (std::uint64_t l = 0; l < lanes; ++l) {
        const T* in = static_cast<const T*>(srcs[l]) + r0 * cols;
        T* out = static_cast<T*>(dsts[l]) + c * rows + r0;
        gather_store(in, out, i_lo, m_lo, full);
        if (n_hi > 0) gather_store(in, out + 8, i_hi, m_hi, full);
      }
    }
  }
}

void band_sweep_u32(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                    std::uint64_t rows, std::uint64_t cols, const std::uint16_t* h,
                    std::uint64_t b0, std::uint64_t b1) {
  band_sweep<std::uint32_t>(srcs, dsts, lanes, rows, cols, h, b0, b1);
}

void band_sweep_u64(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                    std::uint64_t rows, std::uint64_t cols, const std::uint16_t* h,
                    std::uint64_t b0, std::uint64_t b1) {
  band_sweep<std::uint64_t>(srcs, dsts, lanes, rows, cols, h, b0, b1);
}

// ---- row sweep -------------------------------------------------------

template <class T>
void row_sweep(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
               std::uint64_t cols, const std::uint16_t* h, std::uint64_t r0, std::uint64_t r1) {
  for (std::uint64_t r = r0; r < r1; ++r) {
    const std::uint16_t* hr = h + r * cols;
    for (std::uint64_t k = 0; k < cols; k += 8) {
      const bool full = k + 8 <= cols;
      const __m256i mask = lane_mask8(full ? 8 : cols - k);
      const __m256i idx = full ? load_idx8(hr + k) : load_idx8_partial(hr + k, cols - k);
      for (std::uint64_t l = 0; l < lanes; ++l) {
        gather_store(static_cast<const T*>(srcs[l]) + r * cols,
                     static_cast<T*>(dsts[l]) + r * cols + k, idx, mask, full);
      }
    }
  }
}

void row_sweep_u32(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                   std::uint64_t cols, const std::uint16_t* h, std::uint64_t r0,
                   std::uint64_t r1) {
  row_sweep<std::uint32_t>(srcs, dsts, lanes, cols, h, r0, r1);
}

void row_sweep_u64(const void* const* srcs, void* const* dsts, std::uint64_t lanes,
                   std::uint64_t cols, const std::uint16_t* h, std::uint64_t r0,
                   std::uint64_t r1) {
  row_sweep<std::uint64_t>(srcs, dsts, lanes, cols, h, r0, r1);
}

// ---- conventional gather ---------------------------------------------

void gather_u32(const void* a, void* b, const std::uint32_t* idx,
                std::uint64_t lo, std::uint64_t hi) {
  const auto* src = static_cast<const std::uint32_t*>(a);
  auto* dst = static_cast<std::uint32_t*>(b);
  std::uint64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i v = _mm256_i32gather_epi32(reinterpret_cast<const int*>(src), vi, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < hi; ++i) dst[i] = src[idx[i]];
}

void gather_u64(const void* a, void* b, const std::uint32_t* idx,
                std::uint64_t lo, std::uint64_t hi) {
  const auto* src = static_cast<const std::uint64_t*>(a);
  auto* dst = static_cast<std::uint64_t*>(b);
  std::uint64_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    const __m256i v =
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(src), vi, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < hi; ++i) dst[i] = src[idx[i]];
}

}  // namespace

// The AVX2 tables: scatter stays null (no scatter instruction below
// AVX-512), which routes the conventional D-designated kernel to the
// scalar loop.
extern const simd::KernelOps kOps4 = {band_sweep_u32, row_sweep_u32, gather_u32, nullptr};
extern const simd::KernelOps kOps8 = {band_sweep_u64, row_sweep_u64, gather_u64, nullptr};

}  // namespace hmm::cpu::avx2
