#pragma once
/// \file kernels.hpp
/// \brief Host (CPU) kernels standing in for the paper's CUDA kernels.
///
/// On a GPU, the conventional algorithm's weakness is non-coalesced
/// global traffic; on a CPU the same weakness appears as random
/// cacheline/TLB misses. The paper runs the scheduled plan as five
/// kernels (row pass, transpose, row pass, transpose, row pass) because
/// a GPU block cannot keep a row band between launches. A CPU core can:
/// 16 rows of a 1M-element matrix (64 KiB) sit in its L2. So the host
/// runs the plan as three sweeps, each one read and one write of the
/// data plus a 2-byte table entry per element (30 B/element at 4-byte
/// elements):
///   - `band_sweep`: a row pass fused with the transpose after it, one
///     16-row band at a time (passes 1+2 and 3+4 of the paper);
///   - `row_sweep`: a plain row pass (pass 5, and shard bands).
/// Both are gathers, `out[...] = in[r][h(r, c)]`, driven by the row
/// inverses of the plan's row permutations (ScheduledPlan::gather1..3).
///
/// Each kernel body is two tiers: the scalar loop (always present, the
/// differential-test oracle and the path for element widths other than
/// 4 and 8 bytes) and an explicit SIMD path reached through
/// `active_kernel_ops` (dispatch.hpp). The split point is the
/// parallel_for chunk: the pool owns the fork/join, and each chunk
/// either calls the variant's serial sub-range function or falls into
/// the scalar loop. Every sweep takes a span of lanes (same-plan
/// requests) and loops over them inside the chunk, so one index decode
/// serves the whole batch. Sweeps index within one band or row, so
/// their 32-bit gather offsets never wrap; the conventional kernels
/// index the whole array and take the SIMD path only below 2^31
/// elements. The conventional kernels run inline below
/// `kInlineElements`; the sweeps fan out at every size.

#include <algorithm>
#include <cstdint>
#include <span>

#include "cpu/dispatch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hmm::cpu {

/// Below this many elements the conventional kernels (gather, scatter)
/// run inline on the calling thread: one fork-join costs more than the
/// other workers save. `bench_kernels` BM_GatherForkJoin and
/// BM_GatherInline cross between 32K and 64K on a 4-vCPU AVX-512 host
/// with the caller-joined pool (pooled vs inline, µs: 8K 12 vs 2; 32K
/// 19 vs 13; 64K 28 vs 35; 256K 102 vs 188), as they did with the
/// 5-10x dearer fork-join before it. Fixed, like the plan build's
/// `graph::kInlineEdges`.
inline constexpr std::uint64_t kInlineElements = std::uint64_t{1} << 16;

namespace detail {

/// Run `body(lo, hi)` over [0, n): inline below kInlineElements,
/// otherwise as chunks on the pool.
template <class Body>
void fan_out(util::ThreadPool& pool, std::uint64_t n, Body&& body) {
  if (n < kInlineElements) {
    if (n > 0) body(0, n);
    return;
  }
  pool.parallel_for_chunks(0, n, body);
}

/// Global-index-space cap for the SIMD tiers: vpgather/vpscatter take
/// signed 32-bit element indices.
inline constexpr std::uint64_t kSimdIndexLimit = std::uint64_t{1} << 31;

template <class T>
const void* const* erase_srcs(std::span<const T* const> s) {
  return reinterpret_cast<const void* const*>(s.data());
}

template <class T>
void* const* erase_dsts(std::span<T* const> s) {
  return reinterpret_cast<void* const*>(s.data());
}

}  // namespace detail

/// D-designated conventional permutation: b[p[i]] = a[i] (casual writes).
template <class T>
void scatter(util::ThreadPool& pool, std::span<const T> a, std::span<T> b,
             std::span<const std::uint32_t> p) {
  HMM_CHECK(a.size() == b.size() && a.size() == p.size());
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  const bool simd = ops != nullptr && ops->scatter != nullptr &&
                    a.size() < detail::kSimdIndexLimit;
  detail::fan_out(pool, a.size(), [&](std::uint64_t lo, std::uint64_t hi) {
    if (simd) {
      ops->scatter(a.data(), b.data(), p.data(), lo, hi);
      return;
    }
    for (std::uint64_t i = lo; i < hi; ++i) b[p[i]] = a[i];
  });
}

/// S-designated conventional permutation: b[i] = a[pinv[i]] (casual reads).
template <class T>
void gather(util::ThreadPool& pool, std::span<const T> a, std::span<T> b,
            std::span<const std::uint32_t> pinv) {
  HMM_CHECK(a.size() == b.size() && a.size() == pinv.size());
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  const bool simd = ops != nullptr && ops->gather != nullptr &&
                    a.size() < detail::kSimdIndexLimit;
  detail::fan_out(pool, a.size(), [&](std::uint64_t lo, std::uint64_t hi) {
    if (simd) {
      ops->gather(a.data(), b.data(), pinv.data(), lo, hi);
      return;
    }
    for (std::uint64_t i = lo; i < hi; ++i) b[i] = a[pinv[i]];
  });
}

/// Rows per band of `band_sweep`: one 16-lane gather per column, and
/// for 4-byte elements one full 64 B line stored per column.
inline constexpr std::uint64_t kBandRows = 16;

/// Offset of entry (row, col) of a rows x cols gather table stored
/// band-interleaved: bands of kBandRows rows, and inside a band the
/// band's entries of one column are contiguous (`height` entries, where
/// the last band may be shorter than kBandRows). The table holds
/// exactly rows * cols entries, like a row-major one.
[[nodiscard]] inline std::uint64_t band_offset(std::uint64_t rows, std::uint64_t cols,
                                               std::uint64_t row, std::uint64_t col) noexcept {
  const std::uint64_t first = row - row % kBandRows;
  const std::uint64_t height = std::min(kBandRows, rows - first);
  return first * cols + col * height + (row - first);
}

/// Fused row pass + transpose over every lane: for the rows x cols
/// matrix `srcs[l]` and the band-interleaved gather table `h`,
///   dsts[l][c * rows + r] = srcs[l][r * cols + h(r, c)],
/// i.e. the cols x rows transpose of the row pass out[r][c] =
/// in[r][h(r, c)]. Parallel over bands of kBandRows rows; each band
/// (16 rows) stays cache-resident while every column of it is gathered
/// once and stored as one contiguous run of the output row. Gathers
/// only: no scatter, so no lane-distinctness argument is needed.
template <class T>
void band_sweep(util::ThreadPool& pool, std::span<const T* const> srcs,
                std::span<T* const> dsts, std::uint64_t rows, std::uint64_t cols,
                std::span<const std::uint16_t> h) {
  HMM_CHECK(srcs.size() == dsts.size() && h.size() == rows * cols);
  const std::uint64_t lanes = srcs.size();
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  const std::uint64_t bands = (rows + kBandRows - 1) / kBandRows;
  pool.parallel_for_chunks(0, bands, [&](std::uint64_t b0, std::uint64_t b1) {
    if (ops != nullptr) {
      ops->band_sweep(detail::erase_srcs(srcs), detail::erase_dsts(dsts), lanes, rows, cols,
                      h.data(), b0, b1);
      return;
    }
    for (std::uint64_t band = b0; band < b1; ++band) {
      const std::uint64_t r0 = band * kBandRows;
      const std::uint64_t height = std::min(kBandRows, rows - r0);
      const std::uint16_t* hb = h.data() + r0 * cols;
      for (std::uint64_t c = 0; c < cols; ++c) {
        const std::uint16_t* hc = hb + c * height;
        for (std::uint64_t l = 0; l < lanes; ++l) {
          const T* in = srcs[l] + r0 * cols;
          T* out = dsts[l] + c * rows + r0;
          for (std::uint64_t i = 0; i < height; ++i) out[i] = in[i * cols + hc[i]];
        }
      }
    }
  });
}

/// Row gather over every lane: dsts[l][r][c] = srcs[l][r][h[r][c]] for
/// a rows x cols matrix and a row-major gather table `h`. A gather plus
/// a contiguous store per step; parallel over rows.
template <class T>
void row_sweep(util::ThreadPool& pool, std::span<const T* const> srcs,
               std::span<T* const> dsts, std::uint64_t rows, std::uint64_t cols,
               std::span<const std::uint16_t> h) {
  HMM_CHECK(srcs.size() == dsts.size() && h.size() == rows * cols);
  const std::uint64_t lanes = srcs.size();
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  pool.parallel_for_chunks(0, rows, [&](std::uint64_t r0, std::uint64_t r1) {
    if (ops != nullptr) {
      ops->row_sweep(detail::erase_srcs(srcs), detail::erase_dsts(dsts), lanes, cols, h.data(),
                     r0, r1);
      return;
    }
    for (std::uint64_t r = r0; r < r1; ++r) {
      const std::uint16_t* hr = h.data() + r * cols;
      for (std::uint64_t l = 0; l < lanes; ++l) {
        const T* in = srcs[l] + r * cols;
        T* out = dsts[l] + r * cols;
        for (std::uint64_t c = 0; c < cols; ++c) out[c] = in[hr[c]];
      }
    }
  });
}

/// One-lane `row_sweep`: out[r][c] = in[r][h[r][c]].
template <class T>
void row_sweep(util::ThreadPool& pool, std::span<const T> in, std::span<T> out,
               std::uint64_t rows, std::uint64_t cols, std::span<const std::uint16_t> h) {
  HMM_CHECK(in.size() == rows * cols && out.size() == rows * cols);
  const T* src = in.data();
  T* dst = out.data();
  row_sweep<T>(pool, std::span<const T* const>(&src, 1), std::span<T* const>(&dst, 1), rows,
               cols, h);
}

/// Blocked matrix transpose: out (cols x rows) = in (rows x cols)^T,
/// `tile` x `tile` blocks at a time. Scalar-only: no scheduled plan
/// runs it (`band_sweep` fuses the transposes into the row passes); it
/// serves the tile ablation and the matrix-transpose example.
template <class T>
void transpose_blocked(util::ThreadPool& pool, std::span<const T> in, std::span<T> out,
                       std::uint64_t rows, std::uint64_t cols, std::uint64_t tile = 32) {
  HMM_CHECK(in.size() == rows * cols && out.size() == rows * cols);
  HMM_CHECK(tile > 0);
  const std::uint64_t tile_rows = (rows + tile - 1) / tile;
  const std::uint64_t tile_cols = (cols + tile - 1) / tile;
  pool.parallel_for_chunks(0, tile_rows * tile_cols, [&](std::uint64_t t0, std::uint64_t t1) {
    for (std::uint64_t t = t0; t < t1; ++t) {
      const std::uint64_t tr = (t / tile_cols) * tile;
      const std::uint64_t tc = (t % tile_cols) * tile;
      const std::uint64_t rmax = std::min(rows, tr + tile);
      const std::uint64_t cmax = std::min(cols, tc + tile);
      for (std::uint64_t i = tr; i < rmax; ++i) {
        for (std::uint64_t j = tc; j < cmax; ++j) {
          out[j * rows + i] = in[i * cols + j];
        }
      }
    }
  });
}

/// Naive (row-streaming read, strided write) transpose for the tile
/// ablation baseline. Deliberately scalar-only.
template <class T>
void transpose_naive(util::ThreadPool& pool, std::span<const T> in, std::span<T> out,
                     std::uint64_t rows, std::uint64_t cols) {
  HMM_CHECK(in.size() == rows * cols && out.size() == rows * cols);
  pool.parallel_for_chunks(0, rows, [&](std::uint64_t r0, std::uint64_t r1) {
    for (std::uint64_t i = r0; i < r1; ++i) {
      for (std::uint64_t j = 0; j < cols; ++j) out[j * rows + i] = in[i * cols + j];
    }
  });
}

}  // namespace hmm::cpu
