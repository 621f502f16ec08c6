#pragma once
/// \file paper_kernels.hpp
/// \brief The paper's algorithms re-expressed as exec:: kernels —
///        structured like the CUDA kernels in Section VIII, but
///        running on the simulator. Tests pin these, time unit for
///        time unit, against the hand-rolled executors in core/.

#include <array>
#include <cstdint>

#include "core/plan.hpp"
#include "exec/kernel.hpp"
#include "perm/permutation.hpp"

namespace hmm::exec {

/// D-designated conventional permutation: `b[p[i]] = a[i]`. One kernel,
/// three rounds (2 coalesced reads + 1 casual write). Returns time units.
template <class T>
std::uint64_t d_designated_exec(Machine& m, GlobalArray<T> a, GlobalArray<T> b,
                                GlobalArray<std::uint32_t> p, std::uint64_t block_size) {
  struct Regs {
    std::uint32_t target = 0;
    T value{};
  };
  Kernel<Regs> k("d-designated");
  auto gid = [](const ThreadCtx& ctx, const Regs&) { return ctx.global_id(); };
  k.template read_global<std::uint32_t>(
       p, gid, [](Regs& r, std::uint32_t t) { r.target = t; },
       model::AccessClass::kCoalesced, "read p")
      .template read_global<T>(
          a, gid, [](Regs& r, T v) { r.value = v; }, model::AccessClass::kCoalesced,
          "read a")
      .template write_global<T>(
          b, [](const ThreadCtx&, const Regs& r) { return r.target; },
          [](const ThreadCtx&, const Regs& r) { return r.value; },
          model::AccessClass::kCasual, "scatter b");
  return m.launch(LaunchConfig{a.size / block_size, block_size}, k);
}

/// S-designated conventional permutation: `b[i] = a[pinv[i]]`.
template <class T>
std::uint64_t s_designated_exec(Machine& m, GlobalArray<T> a, GlobalArray<T> b,
                                GlobalArray<std::uint32_t> pinv, std::uint64_t block_size) {
  struct Regs {
    std::uint32_t source = 0;
    T value{};
  };
  Kernel<Regs> k("s-designated");
  auto gid = [](const ThreadCtx& ctx, const Regs&) { return ctx.global_id(); };
  k.template read_global<std::uint32_t>(
       pinv, gid, [](Regs& r, std::uint32_t s) { r.source = s; },
       model::AccessClass::kCoalesced, "read pinv")
      .template read_global<T>(
          a, [](const ThreadCtx&, const Regs& r) { return static_cast<std::uint64_t>(r.source); },
          [](Regs& r, T v) { r.value = v; }, model::AccessClass::kCasual, "gather a")
      .template write_global<T>(
          b, gid, [](const ThreadCtx&, const Regs& r) { return r.value; },
          model::AccessClass::kCoalesced, "write b");
  return m.launch(LaunchConfig{a.size / block_size, block_size}, k);
}

/// Row-wise permutation kernel (Section VI): one block per row of
/// length `cols`; schedule arrays p̂ and q as 16-bit global arrays.
template <class T>
std::uint64_t row_wise_exec(Machine& m, GlobalArray<T> in, GlobalArray<T> out,
                            GlobalArray<std::uint16_t> phat, GlobalArray<std::uint16_t> q,
                            std::uint64_t rows, std::uint64_t cols) {
  struct Regs {
    T x{};
    std::uint16_t ph = 0;
    std::uint16_t qq = 0;
  };
  Kernel<Regs> k("row-wise");
  auto s = k.template shared_alloc<T>(cols);
  auto d = k.template shared_alloc<T>(cols);
  auto rowmajor = [cols](const ThreadCtx& ctx, const Regs&) {
    return ctx.block * cols + ctx.thread;
  };
  auto lane = [](const ThreadCtx& ctx, const Regs&) { return ctx.thread; };

  // Step 1: s[j] <- a[row][j].
  k.template read_global<T>(in, rowmajor, [](Regs& r, T v) { r.x = v; },
                            model::AccessClass::kCoalesced, "read in")
      .template write_shared<T>(s, lane,
                                [](const ThreadCtx&, const Regs& r) { return r.x; },
                                model::AccessClass::kConflictFree, "write s")
      // Step 2: registers x <- p̂(k), y <- q(k).
      .template read_global<std::uint16_t>(phat, rowmajor,
                                           [](Regs& r, std::uint16_t v) { r.ph = v; },
                                           model::AccessClass::kCoalesced, "read phat")
      .template read_global<std::uint16_t>(q, rowmajor,
                                           [](Regs& r, std::uint16_t v) { r.qq = v; },
                                           model::AccessClass::kCoalesced, "read q")
      // Step 3: d[q(k)] <- s[p̂(k)], both conflict-free by construction.
      .template read_shared<T>(
          s, [](const ThreadCtx&, const Regs& r) { return static_cast<std::uint64_t>(r.ph); },
          [](Regs& r, T v) { r.x = v; }, model::AccessClass::kConflictFree, "read s")
      .template write_shared<T>(
          d, [](const ThreadCtx&, const Regs& r) { return static_cast<std::uint64_t>(r.qq); },
          [](const ThreadCtx&, const Regs& r) { return r.x; },
          model::AccessClass::kConflictFree, "write d")
      // Step 4: b[row][j] <- d[j].
      .template read_shared<T>(d, lane, [](Regs& r, T v) { r.x = v; },
                               model::AccessClass::kConflictFree, "read d")
      .template write_global<T>(out, rowmajor,
                                [](const ThreadCtx&, const Regs& r) { return r.x; },
                                model::AccessClass::kCoalesced, "write out");
  return m.launch(LaunchConfig{rows, cols}, k);
}

/// Tiled transpose kernel (Section V): one block per w x w tile, data
/// staged through the Fig. 4 diagonal arrangement.
template <class T>
std::uint64_t transpose_exec(Machine& m, GlobalArray<T> in, GlobalArray<T> out,
                             std::uint64_t rows, std::uint64_t cols) {
  const std::uint64_t w = m.params().width;
  HMM_CHECK(rows % w == 0 && cols % w == 0);
  const std::uint64_t tiles_c = cols / w;

  struct Regs {
    T v{};
  };
  Kernel<Regs> k("transpose");
  auto tile = k.template shared_alloc<T>(w * w);

  k.template read_global<T>(
       in,
       [w, cols, tiles_c](const ThreadCtx& ctx, const Regs&) {
         const std::uint64_t tr = ctx.block / tiles_c, tc = ctx.block % tiles_c;
         const std::uint64_t i = ctx.thread / w, j = ctx.thread % w;
         return (tr * w + i) * cols + tc * w + j;
       },
       [](Regs& r, T v) { r.v = v; }, model::AccessClass::kCoalesced, "read in")
      .template write_shared<T>(
          tile,
          [w](const ThreadCtx& ctx, const Regs&) {
            const std::uint64_t i = ctx.thread / w, j = ctx.thread % w;
            return i * w + ((i + j) & (w - 1));
          },
          [](const ThreadCtx&, const Regs& r) { return r.v; },
          model::AccessClass::kConflictFree, "write diag")
      .template read_shared<T>(
          tile,
          [w](const ThreadCtx& ctx, const Regs&) {
            const std::uint64_t u = ctx.thread / w, v = ctx.thread % w;
            return v * w + ((v + u) & (w - 1));
          },
          [](Regs& r, T v) { r.v = v; }, model::AccessClass::kConflictFree, "read diag")
      .template write_global<T>(
          out,
          [w, rows, tiles_c](const ThreadCtx& ctx, const Regs&) {
            const std::uint64_t tr = ctx.block / tiles_c, tc = ctx.block % tiles_c;
            const std::uint64_t u = ctx.thread / w, v = ctx.thread % w;
            return (tc * w + u) * rows + tr * w + v;
          },
          [](const ThreadCtx&, const Regs& r) { return r.v; },
          model::AccessClass::kCoalesced, "write out");
  return m.launch(LaunchConfig{(rows / w) * tiles_c, w * w}, k);
}

/// The scheduled permutation as five sequential kernel launches
/// (Section VIII's implementation structure). Uploads the plan's bank
/// schedules (core::bank_schedules), runs row-wise / transpose /
/// row-wise / transpose / row-wise, and leaves the result in `b`.
/// Returns total time units.
template <class T>
std::uint64_t scheduled_exec(Machine& m, GlobalArray<T> a, GlobalArray<T> b,
                             const core::ScheduledPlan& plan) {
  const std::uint64_t n = plan.size();
  const std::uint64_t r = plan.shape().rows;
  const std::uint64_t c = plan.shape().cols;
  HMM_CHECK(a.size == n && b.size == n);

  auto t1 = m.alloc_global<T>(n);
  auto t2 = m.alloc_global<T>(n);
  auto up = [&m](const util::aligned_vector<std::uint16_t>& v) {
    return m.alloc_global<std::uint16_t>(std::span<const std::uint16_t>{v.data(), v.size()});
  };
  const std::array<core::RowScheduleSet, 3> s = core::bank_schedules(plan);
  auto ph1 = up(s[0].phat), q1 = up(s[0].q);
  auto ph2 = up(s[1].phat), q2 = up(s[1].q);
  auto ph3 = up(s[2].phat), q3 = up(s[2].q);

  std::uint64_t t = 0;
  t += row_wise_exec<T>(m, a, t1, ph1, q1, r, c);
  t += transpose_exec<T>(m, t1, t2, r, c);
  t += row_wise_exec<T>(m, t2, t1, ph2, q2, c, r);
  t += transpose_exec<T>(m, t1, t2, c, r);
  t += row_wise_exec<T>(m, t2, b, ph3, q3, r, c);
  return t;
}

}  // namespace hmm::exec
