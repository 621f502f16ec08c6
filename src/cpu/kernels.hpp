#pragma once
/// \file kernels.hpp
/// \brief Host (CPU) kernels standing in for the paper's CUDA kernels.
///
/// On a GPU, the conventional algorithm's weakness is non-coalesced
/// global traffic; on a CPU the same weakness appears as random
/// cacheline/TLB misses, while the scheduled algorithm's three passes
/// stream memory row-by-row (each row fits in L1/L2). These kernels
/// keep the exact pass structure of the paper's five sequential kernel
/// launches so the wall-clock benchmarks compare the same algorithms.
///
/// The conventional kernels run inline below `kInlineElements`; every
/// other kernel fans out over the pool at every size.
///
/// Each kernel body is two tiers: the scalar loop (always present, the
/// differential-test oracle) and, for 4-/8-byte elements, an explicit
/// SIMD path reached through `active_kernel_ops` (dispatch.hpp). The
/// split point is the parallel_for chunk: the pool still owns the
/// fork/join, and each chunk either calls the variant's serial
/// sub-range function or falls into the scalar loop. x86
/// gather/scatter instructions index with *signed 32-bit* element
/// offsets, so kernels whose index space is the whole array
/// (gather/scatter/transpose) take the SIMD path only below 2^31
/// elements; the row passes index within one row (cols ≤ 65536) and
/// are always eligible.

#include <cstdint>
#include <span>

#include "cpu/dispatch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hmm::cpu {

/// Below this many elements the conventional kernels (gather, scatter)
/// run inline on the calling thread: one fork-join costs more than the
/// other workers save. `bench_kernels` BM_GatherForkJoin and
/// BM_GatherInline cross here on a 4-vCPU AVX-512 host (8K: 52 vs 4 µs;
/// 64K: 54 vs 56 µs; 256K: 149 vs 295 µs). Fixed, like the plan
/// build's `graph::kInlineEdges`.
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

/// One row-wise permutation pass over a rows x cols row-major matrix,
/// using the per-row conflict-free schedules `phat`, `q` (flattened
/// row-major, `cols` entries per row): out[r][q(k)] = in[r][phat(k)],
/// i.e. out[r][g(j)] = in[r][j] for the row permutation g = q ∘ phat^-1.
/// Within a row q is a permutation, so the SIMD tier's scatter vectors
/// carry pairwise-distinct destination indices (DESIGN.md §2.1).
template <class T>
void row_wise_pass(util::ThreadPool& pool, std::span<const T> in, std::span<T> out,
                   std::uint64_t rows, std::uint64_t cols,
                   std::span<const std::uint16_t> phat, std::span<const std::uint16_t> q) {
  HMM_CHECK(in.size() == rows * cols && out.size() == rows * cols);
  HMM_CHECK(phat.size() == rows * cols && q.size() == rows * cols);
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  pool.parallel_for_chunks(0, rows, [&](std::uint64_t r0, std::uint64_t r1) {
    if (ops != nullptr && ops->row_pass != nullptr) {
      ops->row_pass(in.data(), out.data(), cols, phat.data(), q.data(), r0, r1);
      return;
    }
    for (std::uint64_t r = r0; r < r1; ++r) {
      const T* src = in.data() + r * cols;
      T* dst = out.data() + r * cols;
      const std::uint16_t* ph = phat.data() + r * cols;
      const std::uint16_t* qq = q.data() + r * cols;
      for (std::uint64_t k = 0; k < cols; ++k) dst[qq[k]] = src[ph[k]];
    }
  });
}

/// Row-wise pass applying the row permutations directly (no schedule
/// arrays): out[r][g[r][j]] = in[r][j]. Used by the ablation bench to
/// measure the overhead of reading schedules. Deliberately scalar-only:
/// it is a baseline, not a serving path.
template <class T>
void row_wise_pass_direct(util::ThreadPool& pool, std::span<const T> in, std::span<T> out,
                          std::uint64_t rows, std::uint64_t cols,
                          std::span<const std::uint16_t> g) {
  HMM_CHECK(in.size() == rows * cols && out.size() == rows * cols && g.size() == rows * cols);
  pool.parallel_for_chunks(0, rows, [&](std::uint64_t r0, std::uint64_t r1) {
    for (std::uint64_t r = r0; r < r1; ++r) {
      const T* src = in.data() + r * cols;
      T* dst = out.data() + r * cols;
      const std::uint16_t* gr = g.data() + r * cols;
      for (std::uint64_t j = 0; j < cols; ++j) dst[gr[j]] = src[j];
    }
  });
}

/// Fused row-wise pass over `srcs.size()` independent (src, dst) matrix
/// pairs that share one (phat, q) schedule: the batched serving path.
/// One fork/join covers every pair, and within a row the lane loop is
/// innermost so each schedule entry (phat[k], q[k]) is read and decoded
/// ONCE for the whole batch instead of once per request — the
/// schedule-read amortization is the batching lemma's saving, and it is
/// why a fused sweep beats L sequential sweeps even on one core. The
/// per-row working set is L * 2 rows of T plus one row of each schedule
/// array, which stays L1-resident for the row sizes the plan produces.
/// The SIMD tier keeps the same structure one level up: the widened
/// index vectors are decoded once per step and reused by every lane.
template <class T>
void row_wise_pass_batched(util::ThreadPool& pool, std::span<const T* const> srcs,
                           std::span<T* const> dsts, std::uint64_t rows, std::uint64_t cols,
                           std::span<const std::uint16_t> phat,
                           std::span<const std::uint16_t> q) {
  HMM_CHECK(srcs.size() == dsts.size());
  HMM_CHECK(phat.size() == rows * cols && q.size() == rows * cols);
  const std::uint64_t lanes = srcs.size();
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  pool.parallel_for_chunks(0, rows, [&](std::uint64_t r0, std::uint64_t r1) {
    if (ops != nullptr && ops->row_pass_batched != nullptr) {
      ops->row_pass_batched(detail::erase_srcs(srcs), detail::erase_dsts(dsts), lanes,
                            cols, phat.data(), q.data(), r0, r1);
      return;
    }
    for (std::uint64_t r = r0; r < r1; ++r) {
      const std::uint16_t* ph = phat.data() + r * cols;
      const std::uint16_t* qq = q.data() + r * cols;
      const std::uint64_t rc = r * cols;
      // Quads of lanes: the inner loop has a fixed trip count (fully
      // unrolled, lane pointers pinned in registers), and each schedule
      // entry is read once per quad instead of once per lane.
      std::uint64_t l = 0;
      for (; l + 4 <= lanes; l += 4) {
        const T* s0 = srcs[l] + rc;
        const T* s1 = srcs[l + 1] + rc;
        const T* s2 = srcs[l + 2] + rc;
        const T* s3 = srcs[l + 3] + rc;
        T* d0 = dsts[l] + rc;
        T* d1 = dsts[l + 1] + rc;
        T* d2 = dsts[l + 2] + rc;
        T* d3 = dsts[l + 3] + rc;
        for (std::uint64_t k = 0; k < cols; ++k) {
          const std::uint64_t s = ph[k];
          const std::uint64_t d = qq[k];
          d0[d] = s0[s];
          d1[d] = s1[s];
          d2[d] = s2[s];
          d3[d] = s3[s];
        }
      }
      for (; l < lanes; ++l) {
        const T* src = srcs[l] + rc;
        T* dst = dsts[l] + rc;
        for (std::uint64_t k = 0; k < cols; ++k) dst[qq[k]] = src[ph[k]];
      }
    }
  });
}

/// Blocked matrix transpose: out (cols x rows) = in (rows x cols)^T.
/// `tile` plays the role of the paper's w x w shared-memory tile. The
/// SIMD tier reads each output row as a strided column gather and
/// stores it contiguously, so it needs the whole matrix under the
/// 32-bit index cap.
template <class T>
void transpose_blocked(util::ThreadPool& pool, std::span<const T> in, std::span<T> out,
                       std::uint64_t rows, std::uint64_t cols, std::uint64_t tile = 32) {
  HMM_CHECK(in.size() == rows * cols && out.size() == rows * cols);
  HMM_CHECK(tile > 0);
  const std::uint64_t tile_rows = (rows + tile - 1) / tile;
  const std::uint64_t tile_cols = (cols + tile - 1) / tile;
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  const bool simd = ops != nullptr && ops->transpose_tiles != nullptr &&
                    rows * cols < detail::kSimdIndexLimit;
  pool.parallel_for_chunks(0, tile_rows * tile_cols, [&](std::uint64_t t0, std::uint64_t t1) {
    if (simd) {
      ops->transpose_tiles(in.data(), out.data(), rows, cols, tile, tile_cols, t0, t1);
      return;
    }
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

/// Fused blocked transpose over independent (src, dst) pairs of equal
/// shape: the batched counterpart of `transpose_blocked`, one fork/join
/// for the whole batch (unit index = (lane, tile), tiles contiguous
/// per lane).
template <class T>
void transpose_blocked_batched(util::ThreadPool& pool, std::span<const T* const> srcs,
                               std::span<T* const> dsts, std::uint64_t rows,
                               std::uint64_t cols, std::uint64_t tile = 16) {
  HMM_CHECK(srcs.size() == dsts.size());
  HMM_CHECK(tile > 0);
  const std::uint64_t tile_rows = (rows + tile - 1) / tile;
  const std::uint64_t tile_cols = (cols + tile - 1) / tile;
  const std::uint64_t tiles = tile_rows * tile_cols;
  const std::uint64_t lanes = srcs.size();
  const simd::KernelOps* ops = active_kernel_ops(sizeof(T));
  const bool simd = ops != nullptr && ops->transpose_tiles_batched != nullptr &&
                    rows * cols < detail::kSimdIndexLimit;
  // The default tile is half the single-matrix transpose's: four lanes'
  // in+out tiles must fit L1 together for the quad path below.
  pool.parallel_for_chunks(0, tiles, [&](std::uint64_t t0, std::uint64_t t1) {
    if (simd) {
      ops->transpose_tiles_batched(detail::erase_srcs(srcs), detail::erase_dsts(dsts),
                                   lanes, rows, cols, tile, tile_cols, t0, t1);
      return;
    }
    for (std::uint64_t t = t0; t < t1; ++t) {
      const std::uint64_t tr = (t / tile_cols) * tile;
      const std::uint64_t tc = (t % tile_cols) * tile;
      const std::uint64_t rmax = std::min(rows, tr + tile);
      const std::uint64_t cmax = std::min(cols, tc + tile);
      // Quads of lanes share every index computation; the inner lane
      // unroll keeps the four pointers in registers.
      std::uint64_t l = 0;
      for (; l + 4 <= lanes; l += 4) {
        const T* i0 = srcs[l];
        const T* i1 = srcs[l + 1];
        const T* i2 = srcs[l + 2];
        const T* i3 = srcs[l + 3];
        T* o0 = dsts[l];
        T* o1 = dsts[l + 1];
        T* o2 = dsts[l + 2];
        T* o3 = dsts[l + 3];
        for (std::uint64_t i = tr; i < rmax; ++i) {
          for (std::uint64_t j = tc; j < cmax; ++j) {
            const std::uint64_t from = i * cols + j;
            const std::uint64_t to = j * rows + i;
            o0[to] = i0[from];
            o1[to] = i1[from];
            o2[to] = i2[from];
            o3[to] = i3[from];
          }
        }
      }
      for (; l < lanes; ++l) {
        const T* in = srcs[l];
        T* out = dsts[l];
        for (std::uint64_t i = tr; i < rmax; ++i) {
          for (std::uint64_t j = tc; j < cmax; ++j) {
            out[j * rows + i] = in[i * cols + j];
          }
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
