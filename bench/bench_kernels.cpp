/// \file bench_kernels.cpp
/// \brief google-benchmark microbenchmarks of the host kernels that the
///        three algorithms are built from: coalesced-style streaming
///        copy, random scatter/gather (the conventional algorithms'
///        casual round), an empty fork-join, the scheduled plan's three
///        gather sweeps and the bucketed plan's two passes (bytes moved
///        and the fraction of the measured copy bandwidth per row), and
///        the transposes.
///
/// The per-element throughput gap between `StreamCopy` and
/// `RandomScatter` is the host-side analogue of the coalesced/casual
/// gap on the HMM — the entire reason the scheduled algorithm wins.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <map>

#include "cpu/kernels.hpp"
#include "core/bucketed.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
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

// One empty fork-join: what every sweep and pooled gather pays on top
// of its work (the caller runs chunks too; see thread_pool.hpp).
void BM_ForkJoinEmpty(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    pool().parallel_for_chunks(0, n, [](std::uint64_t, std::uint64_t) {});
  }
}
BENCHMARK(BM_ForkJoinEmpty)->Arg(1 << 20)->UseRealTime();

/// Host copy bandwidth (GB/s, read + write) over n floats on the pool:
/// the roof the sweep rows are reported against. Measured once per n.
double memcpy_gbps(std::uint64_t n) {
  static std::map<std::uint64_t, double> measured;
  auto [it, fresh] = measured.try_emplace(n, 0.0);
  if (!fresh) return it->second;
  util::aligned_vector<float> a(n, 1.f), b(n);
  double best = 1e30;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    pool().parallel_for_chunks(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
      std::memcpy(b.data() + lo, a.data() + lo, (hi - lo) * sizeof(float));
    });
    best = std::min(best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                              .count());
  }
  it->second = 2.0 * static_cast<double>(n * sizeof(float)) / best / 1e9;
  return it->second;
}

/// Report `bytes` moved per iteration, as GB/s and as a fraction of the
/// measured copy bandwidth at the same n.
void report_bytes(benchmark::State& state, std::uint64_t n, double bytes) {
  state.SetBytesProcessed(
      static_cast<std::int64_t>(static_cast<double>(state.iterations()) * bytes));
  state.counters["bytes_per_elem"] = bytes / static_cast<double>(n);
  state.counters["of_memcpy"] = benchmark::Counter(
      bytes / 1e9 / memcpy_gbps(n), benchmark::Counter::kIsIterationInvariantRate);
}

// The scheduled plan's three sweeps on float, one row each and the
// driver: every sweep reads and writes the data once and reads one u16
// table entry per element, 10 B/element; a whole request moves 30n B.
enum class Sweep { kBand1, kBand2, kRow3, kAll };

void sweep_rows(benchmark::State& state, Sweep which) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const model::MachineParams mp = model::MachineParams::gtx680();
  const core::ScheduledPlan plan =
      core::ScheduledPlan::build(perm::by_name("random", n, 9), mp);
  const std::uint64_t r = plan.shape().rows;
  const std::uint64_t m = plan.shape().cols;
  util::aligned_vector<float> a(n, 1.f), b(n), scratch(n);
  const float* src = a.data();
  float* dst = b.data();
  const std::span<const float* const> in(&src, 1);
  const std::span<float* const> out(&dst, 1);
  for (auto _ : state) {
    switch (which) {
      case Sweep::kBand1:
        cpu::band_sweep<float>(pool(), in, out, r, m, plan.gather1());
        break;
      case Sweep::kBand2:
        cpu::band_sweep<float>(pool(), in, out, m, r, plan.gather2());
        break;
      case Sweep::kRow3:
        cpu::row_sweep<float>(pool(), in, out, r, m, plan.gather3());
        break;
      case Sweep::kAll:
        core::scheduled_cpu<float>(pool(), plan, a, b, scratch);
        break;
    }
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  report_bytes(state, n, (which == Sweep::kAll ? 30.0 : 10.0) * static_cast<double>(n));
}
void BM_BandSweep1(benchmark::State& state) { sweep_rows(state, Sweep::kBand1); }
void BM_BandSweep2(benchmark::State& state) { sweep_rows(state, Sweep::kBand2); }
void BM_RowSweep3(benchmark::State& state) { sweep_rows(state, Sweep::kRow3); }
void BM_ScheduledThreeSweeps(benchmark::State& state) { sweep_rows(state, Sweep::kAll); }
BENCHMARK(BM_BandSweep1)->RangeMultiplier(4)->Range(1 << 14, 1 << 22)->UseRealTime();
BENCHMARK(BM_BandSweep2)->RangeMultiplier(4)->Range(1 << 14, 1 << 22)->UseRealTime();
BENCHMARK(BM_RowSweep3)->RangeMultiplier(4)->Range(1 << 14, 1 << 22)->UseRealTime();
BENCHMARK(BM_ScheduledThreeSweeps)->RangeMultiplier(4)->Range(1 << 14, 1 << 22)->UseRealTime();

// The bucketed plan's two passes on float, one row each and the whole
// strategy. The pack reads and writes the data and reads a u16 entry
// (10 B/element), the merge a u32 entry (12 B/element); a request moves
// 22n B. Arguments: n, the family (0 random, 1 bit-reversal,
// 2 transpose) and the band (0 = BucketedPlan::band_for at a 2 MiB L2,
// 16K floats).
enum class Pass { kPack, kMerge, kAll };

void bucket_rows(benchmark::State& state, Pass which) {
  static const char* const kFamilies[] = {"random", "bit-reversal", "transpose"};
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const char* family = kFamilies[state.range(1)];
  const std::uint64_t band = state.range(2) > 0
                                 ? static_cast<std::uint64_t>(state.range(2))
                                 : core::BucketedPlan::band_for(n, sizeof(float), 2u << 20);
  const core::BucketedPlan plan = core::BucketedPlan::build(
      perm::by_name(family, n, 9), band, core::BucketedPlan::skew_for(sizeof(float)));
  util::aligned_vector<float> a(n, 1.f), b(n), packed(plan.packed_size());
  const std::span<const float> in(a.data(), n);
  const std::span<float> scratch(packed.data(), packed.size());
  for (auto _ : state) {
    switch (which) {
      case Pass::kPack:
        core::bucketed_pack<float>(pool(), plan, in, scratch);
        break;
      case Pass::kMerge:
        core::bucketed_merge<float>(pool(), plan, scratch, b);
        break;
      case Pass::kAll:
        (void)core::bucketed_cpu<float>(pool(), plan, in, b, scratch);
        break;
    }
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(family) + " B=" + std::to_string(band));
  const double per_elem = which == Pass::kPack ? 10.0 : which == Pass::kMerge ? 12.0 : 22.0;
  report_bytes(state, n, per_elem * static_cast<double>(n));
}
void BM_BucketedPack(benchmark::State& state) { bucket_rows(state, Pass::kPack); }
void BM_BucketedMerge(benchmark::State& state) { bucket_rows(state, Pass::kMerge); }
void BM_Bucketed(benchmark::State& state) { bucket_rows(state, Pass::kAll); }
BENCHMARK(BM_BucketedPack)->ArgsProduct({{1 << 20, 1 << 22, 1 << 24}, {0}, {0}})->UseRealTime();
BENCHMARK(BM_BucketedMerge)->ArgsProduct({{1 << 20, 1 << 22, 1 << 24}, {0}, {0}})->UseRealTime();
// The family spread at the default band, and the band sweep that fixed it.
BENCHMARK(BM_Bucketed)
    ->ArgsProduct({{1 << 20, 1 << 22, 1 << 24}, {0, 1, 2}, {0, 32768, 65536}})
    ->UseRealTime();

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
