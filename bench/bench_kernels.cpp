/// \file bench_kernels.cpp
/// \brief google-benchmark microbenchmarks of the host kernels that the
///        three algorithms are built from: coalesced-style streaming
///        copy, random scatter/gather (the conventional algorithms'
///        casual round), an empty fork-join, the scheduled plan's three
///        gather sweeps and the bucketed plan's two passes (bytes moved
///        and the fraction of the measured copy bandwidth per row), the
///        cold kAuto compile, the transposes, and the HMMP frame checksum.
///
/// The per-element throughput gap between `StreamCopy` and
/// `RandomScatter` is the host-side analogue of the coalesced/casual
/// gap on the HMM — the entire reason the scheduled algorithm wins.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cpu/dispatch.hpp"
#include "cpu/kernels.hpp"
#include "core/bucketed.hpp"
#include "core/permuter.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "net/distributed.hpp"
#include "net/wire.hpp"
#include "perm/generators.hpp"
#include "runtime/fingerprint.hpp"
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

// A cold kAuto compile of `OfflinePermuter<u32>`: P⁻¹, the host pick
// and the picked strategy's tables, labelled with the pick. The host
// probe, which a process pays once, is warmed outside the timing, and
// so are the copy of the permutation and the destructor. Arguments: n
// and the family (0 random, 1 bit-reversal, 2 transpose).
void BM_Compile(benchmark::State& state) {
  static const char* const kFamilies[] = {"random", "bit-reversal", "transpose"};
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const char* family = kFamilies[state.range(1)];
  const perm::Permutation p = perm::by_name(family, n, 9);
  (void)core::host_params(n * sizeof(std::uint32_t));
  core::Strategy picked = core::Strategy::kAuto;
  for (auto _ : state) {
    state.PauseTiming();
    perm::Permutation copy = p;
    state.ResumeTiming();
    {
      const core::OfflinePermuter<std::uint32_t> op(std::move(copy));
      benchmark::DoNotOptimize(&op);
      picked = op.strategy();
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetLabel(std::string(family) + " " + std::string(core::to_string(picked)));
}
BENCHMARK(BM_Compile)
    ->ArgsProduct({{1 << 20, 1 << 22, 1 << 24}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The router's distributed offline phase: `DistributedPermuter::compile`
// of every shard's pack and merge tables into its SHARD_PLAN payload,
// labelled with the payload bytes written. Arguments: n, the family (0
// random, 1 bit-reversal, 2 transpose) and the shard count.
void BM_ShardCompile(benchmark::State& state) {
  static const char* const kFamilies[] = {"random", "bit-reversal", "transpose"};
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const char* family = kFamilies[state.range(1)];
  const auto shards = static_cast<std::uint32_t>(state.range(2));
  const perm::Permutation p = perm::by_name(family, n, 9);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    {
      const auto payloads = net::DistributedPermuter::compile(p, 1, shards);
      benchmark::DoNotOptimize(&payloads);
      state.PauseTiming();
      bytes = 0;
      for (const auto& payload : payloads.value()) bytes += payload.size();
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.SetLabel(std::string(family) + " " + std::to_string(bytes) + " B written");
}
BENCHMARK(BM_ShardCompile)
    ->ArgsProduct({{1 << 20}, {0, 1, 2}, {3, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Naming a plan: the wire plan id of a random mapping (mode 0,
// `fingerprint_mapping`), and SUBMIT_PLAN's one pass over the wire words
// (mode 1, `Permutation::from_le_words`: copy into fresh storage,
// validate and hash). Bytes are the mapping read once.
void BM_PlanId(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const bool fused = state.range(1) == 1;
  const perm::Permutation p = perm::by_name("random", n, 9);
  std::vector<std::uint8_t> wire(n * sizeof(std::uint32_t));
  for (std::uint64_t i = 0; i < n; ++i) {
    for (int b = 0; b < 4; ++b) wire[4 * i + b] = static_cast<std::uint8_t>(p(i) >> (8 * b));
  }
  for (auto _ : state) {
    if (fused) {
      benchmark::DoNotOptimize(perm::Permutation::from_le_words(wire));
    } else {
      benchmark::DoNotOptimize(runtime::fingerprint_mapping(p.data()));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
  state.SetLabel(fused ? "from_le_words" : "fingerprint_mapping");
}
BENCHMARK(BM_PlanId)
    ->ArgsProduct({{1 << 20, 1 << 24}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
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

/// The HMMP frame checksum (CRC32C) over one payload, on the active
/// tier: the three-stream `crc32` path, or the byte table under
/// HMM_KERNEL_VARIANT=scalar. Bytes are the payload read once.
void BM_Crc32c(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> payload(bytes);
  for (std::size_t i = 0; i < bytes; ++i) payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  for (auto _ : state) benchmark::DoNotOptimize(net::checksum_bytes(payload));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.SetLabel(std::string(cpu::to_string(cpu::kernel_variant())));
}
BENCHMARK(BM_Crc32c)->Arg(8 << 10)->Arg(256 << 10)->Arg(1 << 20)->Arg(4 << 20);

}  // namespace

BENCHMARK_MAIN();
