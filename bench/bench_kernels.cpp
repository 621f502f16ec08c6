/// \file bench_kernels.cpp
/// \brief google-benchmark microbenchmarks of the host kernels that the
///        three algorithms are built from: coalesced-style streaming
///        copy, random scatter/gather (the conventional algorithms'
///        casual round), row-wise pass, and the two transposes.
///
/// The per-element throughput gap between `StreamCopy` and
/// `RandomScatter` is the host-side analogue of the coalesced/casual
/// gap on the HMM — the entire reason the scheduled algorithm wins.

#include <benchmark/benchmark.h>

#include "cpu/kernels.hpp"
#include "core/plan.hpp"
#include "perm/generators.hpp"
#include "util/aligned_vector.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hmm;

util::ThreadPool& pool() {
  static util::ThreadPool p;
  return p;
}

void BM_StreamCopy(benchmark::State& state) {
  const std::uint64_t n = state.range(0);
  util::aligned_vector<float> a(n, 1.f), b(n);
  for (auto _ : state) {
    pool().parallel_for_chunks(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) b[i] = a[i];
    });
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(float) * 2));
}
BENCHMARK(BM_StreamCopy)->Range(1 << 14, 1 << 22);

void BM_RandomScatter(benchmark::State& state) {
  const std::uint64_t n = state.range(0);
  const perm::Permutation p = perm::by_name("random", n, 7);
  util::aligned_vector<float> a(n, 1.f), b(n);
  for (auto _ : state) {
    cpu::scatter<float>(pool(), a, b, p.data());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(float) * 2));
}
BENCHMARK(BM_RandomScatter)->Range(1 << 14, 1 << 22);

void BM_RandomGather(benchmark::State& state) {
  const std::uint64_t n = state.range(0);
  const perm::Permutation p = perm::by_name("random", n, 8);
  util::aligned_vector<float> a(n, 1.f), b(n);
  for (auto _ : state) {
    cpu::gather<float>(pool(), a, b, p.data());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(float) * 2));
}
BENCHMARK(BM_RandomGather)->Range(1 << 14, 1 << 22);

// The two ways a small gather can run: fanned out over the pool (one
// fork-join) or inline on the caller. `cpu::kInlineElements` sits where
// these rows cross: below it the fork-join costs more than the three
// extra cores save.
void gather_rows(benchmark::State& state, bool fork_join) {
  const std::uint64_t n = state.range(0);
  const perm::Permutation p = perm::by_name("random", n, 8);
  util::aligned_vector<float> a(n, 1.f), b(n);
  const cpu::simd::KernelOps* ops = cpu::active_kernel_ops(sizeof(float));
  const auto run = [&](std::uint64_t lo, std::uint64_t hi) {
    if (ops != nullptr && ops->gather != nullptr) {
      ops->gather(a.data(), b.data(), p.data().data(), lo, hi);
      return;
    }
    for (std::uint64_t i = lo; i < hi; ++i) b[i] = a[p(i)];
  };
  for (auto _ : state) {
    if (fork_join) {
      pool().parallel_for_chunks(0, n, run);
    } else {
      run(0, n);
    }
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(float) * 2));
}
void BM_GatherForkJoin(benchmark::State& state) { gather_rows(state, true); }
void BM_GatherInline(benchmark::State& state) { gather_rows(state, false); }
BENCHMARK(BM_GatherForkJoin)->RangeMultiplier(2)->Range(1 << 13, 1 << 20)->UseRealTime();
BENCHMARK(BM_GatherInline)->RangeMultiplier(2)->Range(1 << 13, 1 << 20)->UseRealTime();

void BM_RowWisePass(benchmark::State& state) {
  const std::uint64_t n = state.range(0);
  const model::MachineParams mp = model::MachineParams::gtx680();
  const perm::Permutation p = perm::by_name("random", n, 9);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  util::aligned_vector<float> a(n, 1.f), b(n);
  for (auto _ : state) {
    cpu::row_wise_pass<float>(pool(), a, b, plan.shape().rows, plan.shape().cols,
                              plan.pass1().phat, plan.pass1().q);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(float) * 2));
}
BENCHMARK(BM_RowWisePass)->Range(1 << 14, 1 << 22);

void BM_TransposeBlocked(benchmark::State& state) {
  const std::uint64_t n = state.range(0);
  const std::uint64_t m = 1ull << ((63 - __builtin_clzll(n)) / 2);
  const std::uint64_t r = n / m;
  util::aligned_vector<float> a(n, 1.f), b(n);
  for (auto _ : state) {
    cpu::transpose_blocked<float>(pool(), a, b, r, m, 32);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(float) * 2));
}
BENCHMARK(BM_TransposeBlocked)->Range(1 << 14, 1 << 22);

void BM_TransposeNaive(benchmark::State& state) {
  const std::uint64_t n = state.range(0);
  const std::uint64_t m = 1ull << ((63 - __builtin_clzll(n)) / 2);
  const std::uint64_t r = n / m;
  util::aligned_vector<float> a(n, 1.f), b(n);
  for (auto _ : state) {
    cpu::transpose_naive<float>(pool(), a, b, r, m);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(float) * 2));
}
BENCHMARK(BM_TransposeNaive)->Range(1 << 14, 1 << 22);

}  // namespace

BENCHMARK_MAIN();
