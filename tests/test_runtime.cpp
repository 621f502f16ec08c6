/// Tests for the permutation service runtime (src/runtime/): plan-key
/// fingerprints, LRU plan cache, batched async executor, and metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/permuter.hpp"
#include "perm/generators.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/phase.hpp"
#include "runtime/plan_cache.hpp"
#include "test_helpers.hpp"

namespace hmm {
namespace {

using model::MachineParams;
using runtime::Fingerprint;

// ---------------------------------------------------------------- fingerprint

TEST(Fingerprint, DeterministicAndEqualForEqualInputs) {
  const perm::Permutation p = perm::by_name("random", 1024, 7);
  const perm::Permutation q = perm::by_name("random", 1024, 7);  // same seed -> same mapping
  EXPECT_EQ(runtime::fingerprint_plan_key(p, 4), runtime::fingerprint_plan_key(q, 4));
  EXPECT_EQ(runtime::fingerprint_permutation(p), runtime::fingerprint_permutation(q));
}

TEST(Fingerprint, DiscriminatesEveryKeyComponent) {
  const perm::Permutation p = perm::bit_reversal(1024);
  const Fingerprint base = runtime::fingerprint_plan_key(p, 4);

  // Different permutation (even by a single transposition).
  util::aligned_vector<std::uint32_t> tweaked(p.data().begin(), p.data().end());
  std::swap(tweaked[0], tweaked[1]);
  EXPECT_NE(base, runtime::fingerprint_plan_key(perm::Permutation(std::move(tweaked)), 4));

  // Different n (identity mappings are prefixes of each other).
  EXPECT_NE(runtime::fingerprint_plan_key(perm::identical(256), 4),
            runtime::fingerprint_plan_key(perm::identical(512), 4));

  // Different element width.
  EXPECT_NE(base, runtime::fingerprint_plan_key(p, 8));
}

TEST(Fingerprint, PermutationSizeIsPartOfTheKey) {
  // identical(n) mappings are prefixes of each other; the length field
  // must still separate them.
  EXPECT_NE(runtime::fingerprint_permutation(perm::identical(256)),
            runtime::fingerprint_permutation(perm::identical(512)));
}

TEST(Fingerprint, MappingSpanAgreesWithPermutation) {
  // fingerprint_mapping over raw words IS the wire plan id, so it must
  // agree bit-for-bit with fingerprint_permutation of a Permutation
  // built from the same words — across sizes and mapping families.
  for (const std::uint64_t n : {16ull, 256ull, 4096ull}) {
    for (const char* name : {"identical", "bit-reversal", "random"}) {
      const perm::Permutation p = perm::by_name(name, n, 11);
      const std::span<const std::uint32_t> words(p.data().data(), p.data().size());
      EXPECT_EQ(runtime::fingerprint_mapping(words), runtime::fingerprint_permutation(p))
          << name << " n=" << n;

      // Same words in a freshly copied vector (different address, same
      // content) — the hash is over values, never identity.
      util::aligned_vector<std::uint32_t> copy(words.begin(), words.end());
      EXPECT_EQ(runtime::fingerprint_mapping({copy.data(), copy.size()}),
                runtime::fingerprint_permutation(p))
          << name << " n=" << n;
    }
  }
}

TEST(Fingerprint, CopiedAndMovedPermutationsAgreeWithTheirWords) {
  // The mapping fingerprint is memoised on the Permutation; whatever
  // the memo holds after a copy or a move must still be the hash of the
  // words the object now owns.
  const perm::Permutation p = perm::by_name("random", 4096, 5);
  const Fingerprint expected = runtime::fingerprint_mapping(p.data());
  EXPECT_EQ(runtime::fingerprint_permutation(p), expected);  // fills p's memo

  const perm::Permutation copied(p);
  EXPECT_EQ(runtime::fingerprint_permutation(copied), expected);
  EXPECT_EQ(runtime::fingerprint_mapping(copied.data()), expected);

  perm::Permutation source(p);
  const perm::Permutation moved(std::move(source));
  EXPECT_EQ(runtime::fingerprint_permutation(moved), expected);
  EXPECT_EQ(runtime::fingerprint_mapping(moved.data()), expected);

  perm::Permutation assigned(8);
  EXPECT_NE(runtime::fingerprint_permutation(assigned), expected);  // fills the memo
  assigned = p;
  EXPECT_EQ(runtime::fingerprint_permutation(assigned), expected);
  perm::Permutation move_assigned(8);
  EXPECT_NE(runtime::fingerprint_permutation(move_assigned), expected);
  move_assigned = perm::Permutation(p);
  EXPECT_EQ(runtime::fingerprint_permutation(move_assigned), expected);
}

TEST(Fingerprint, WirePlanIdsArePinned) {
  // fingerprint_mapping is the wire plan id (util::Hash64 over the
  // words' little-endian bytes, salted with the id's schema version).
  // Ids are stable within one build, and pinned here so that a change
  // to them is deliberate.
  EXPECT_EQ(runtime::fingerprint_permutation(perm::Permutation(8)).value,
            0x6ebd2fcb26fec2f8ull);
  EXPECT_EQ(runtime::fingerprint_permutation(perm::Permutation(1024)).value,
            0x77a9828dedb61ba7ull);
}

TEST(Fingerprint, MappingSpanDiscriminatesContentAndLength) {
  const perm::Permutation p = perm::bit_reversal(512);
  const std::span<const std::uint32_t> words(p.data().data(), p.data().size());
  const Fingerprint base = runtime::fingerprint_mapping(words);

  // A single swapped pair changes the hash.
  util::aligned_vector<std::uint32_t> tweaked(words.begin(), words.end());
  std::swap(tweaked[3], tweaked[4]);
  EXPECT_NE(base, runtime::fingerprint_mapping({tweaked.data(), tweaked.size()}));

  // A strict prefix changes the hash (length is mixed in).
  EXPECT_NE(base, runtime::fingerprint_mapping(words.first(words.size() / 2)));
}

// ----------------------------------------------------------------- histogram

TEST(LogHistogram, QuantilesAndCounters) {
  runtime::LogHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::uint64_t v : {100ull, 200ull, 400ull, 100000ull}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100700u);
  EXPECT_EQ(h.max(), 100000u);
  // p50 falls in the bucket of 100/200-ish values; log2 resolution
  // guarantees within a factor of two.
  EXPECT_GE(h.quantile(0.5), 64u);
  EXPECT_LE(h.quantile(0.5), 512u);
  EXPECT_LE(h.quantile(0.95), h.max());
  EXPECT_GE(h.quantile(1.0), h.quantile(0.5));
}

TEST(LogHistogram, EmptyHistogramReportsZeros) {
  const runtime::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(LogHistogram, SingleSampleDominatesEveryQuantile) {
  runtime::LogHistogram h;
  h.record(777);  // bucket [512, 1024), geometric midpoint 768
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 777u);
  EXPECT_EQ(h.max(), 777u);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(h.quantile(q), 768u) << "q=" << q;
  }
}

TEST(LogHistogram, PowerOfTwoBoundariesLandInTheUpperBucket) {
  // 2^k opens bucket k: [2^k, 2^(k+1)); 2^k - 1 closes bucket k-1.
  runtime::LogHistogram below;
  below.record(1023);
  EXPECT_EQ(below.quantile(0.5), 768u);  // midpoint of [512, 1024)

  runtime::LogHistogram at;
  at.record(1024);
  // Midpoint of [1024, 2048) is 1536, but quantiles are capped by the
  // exact max, which is 1024 here.
  EXPECT_EQ(at.quantile(0.5), 1024u);

  runtime::LogHistogram zero_and_one;
  zero_and_one.record(0);  // value 0 shares bucket 0 with value 1
  zero_and_one.record(1);
  EXPECT_EQ(zero_and_one.count(), 2u);
  EXPECT_EQ(zero_and_one.max(), 1u);
  EXPECT_LE(zero_and_one.quantile(1.0), 1u);
}

TEST(LogHistogram, ExtremeQuantileArgumentsAreClamped) {
  runtime::LogHistogram h;
  for (std::uint64_t v = 1; v <= 64; ++v) h.record(v);
  EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST(LogHistogram, ConcurrentRecordAndSnapshot) {
  // Recorders race a reader that keeps taking quantile/count/sum
  // digests; run under TSan in CI. The reader only checks invariants
  // that hold for any interleaving.
  runtime::LogHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::atomic<bool> stop{false};

  std::thread reader([&h, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t count = h.count();
      const std::uint64_t q = h.quantile(0.5);
      EXPECT_LE(q, 2 * h.max() + 1);
      EXPECT_LE(count, kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((i % 1024) + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_GE(h.max(), 1023u);
  EXPECT_LE(h.max(), 1023u + kThreads);
}

// ---------------------------------------------------------------- plan cache

TEST(PlanCache, HitReturnsSameCompiledPermuter) {
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  const perm::Permutation p = perm::bit_reversal(4096);

  auto h1 = cache.acquire<float>(p);
  auto h2 = cache.acquire<float>(p);
  EXPECT_EQ(h1.get(), h2.get());  // same compiled object, no rebuild

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.lookups, 2u);
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.plan_builds, 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), h1->compiled_bytes());
}

TEST(PlanCache, ElementTypeSeparatesEntries) {
  runtime::PlanCache cache;
  const perm::Permutation p = perm::bit_reversal(4096);
  auto hf = cache.acquire<float>(p);
  auto hd = cache.acquire<double>(p);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(static_cast<const void*>(hf.get()), static_cast<const void*>(hd.get()));
}

TEST(PlanCache, SameWidthElementTypesDoNotAlias) {
  // float and int32 have the same sizeof, so the element width alone
  // cannot separate them; the per-type token mixed into the key must.
  // (Previously the aliased slot failed its typed downcast and the
  // process aborted on legitimate API use.)
  runtime::PlanCache cache;
  const perm::Permutation p = perm::bit_reversal(4096);
  auto hf = cache.acquire<float>(p);
  auto hi = cache.acquire<std::int32_t>(p);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(static_cast<const void*>(hf.get()), static_cast<const void*>(hi.get()));
  // And the typed keys themselves differ while widths agree.
  EXPECT_NE(runtime::PlanCache::plan_key<float>(p), runtime::PlanCache::plan_key<std::int32_t>(p));
}

TEST(PlanCache, EvictsLeastRecentlyUsedUnderByteCap) {
  const perm::Permutation pa = perm::bit_reversal(4096);
  const perm::Permutation pb = perm::shuffle(4096);
  const perm::Permutation pc = perm::gray(4096);

  // Size the cap so exactly two compiled entries fit (kAuto compiles
  // all three to the same strategy, hence the same size).
  const std::uint64_t one_entry = core::OfflinePermuter<float>(pa).compiled_bytes();
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{.max_bytes = 2 * one_entry + one_entry / 2},
                           &metrics);

  const auto fpa = runtime::PlanCache::plan_key<float>(pa);
  const auto fpb = runtime::PlanCache::plan_key<float>(pb);
  const auto fpc = runtime::PlanCache::plan_key<float>(pc);

  (void)cache.acquire<float>(pa);
  (void)cache.acquire<float>(pb);
  // Touch A so B becomes the LRU entry...
  (void)cache.acquire<float>(pa);
  // ...then C's insert must evict B, not A.
  (void)cache.acquire<float>(pc);

  EXPECT_TRUE(cache.contains(fpa));
  EXPECT_FALSE(cache.contains(fpb));
  EXPECT_TRUE(cache.contains(fpc));
  EXPECT_LE(cache.bytes(), cache.config().max_bytes);
  EXPECT_EQ(metrics.snapshot().evictions, 1u);
}

TEST(PlanCache, OversizedEntryIsReturnedButNotRetained) {
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{.max_bytes = 0}, &metrics);
  const perm::Permutation p = perm::bit_reversal(4096);

  auto h = cache.acquire<float>(p);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(metrics.snapshot().evictions, 1u);

  // The returned handle still executes correctly after "eviction".
  const std::uint64_t n = p.size();
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n), scratch(h->scratch_elements());
  h->permute(std::span<const float>(a.data(), n), std::span<float>(b.data(), n),
             std::span<float>(scratch.data(), scratch.size()));
  for (std::uint64_t i = 0; i < n; i += 61) EXPECT_EQ(b[p(i)], a[i]);
}

TEST(PlanCache, ClearDuringInFlightBuildDoesNotResurrectEntry) {
  // Regression: clear() drops the pending slot of a still-running
  // build. The builder's commit() must notice its generation is gone —
  // completing a resurrected slot would double-push the key into the
  // LRU list and drift bytes_.
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  const perm::Permutation p = perm::bit_reversal(4096);

  {
    // Stall the builder deterministically inside the build section.
    runtime::ScopedFaultInjection chaos(
        {.seed = 1,
         .rate = 1.0,
         .stall_ms = 250,
         .sites = std::string(runtime::fault_sites::kPlanBuildStall)});
    std::thread builder([&] {
      auto h = cache.acquire<float>(p);
      EXPECT_NE(h, nullptr);  // the stale build still serves its caller
    });
    // Wait for the pending slot, then clear while the build is stalled.
    for (int spin = 0; cache.entries() == 0 && spin < 2000; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(cache.entries(), 1u);
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    builder.join();
  }

  // The stale commit must not have resurrected the key.
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.contains(runtime::PlanCache::plan_key<float>(p)));

  // A fresh acquire rebuilds and is retained exactly once.
  auto h = cache.acquire<float>(p);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), h->compiled_bytes());
  auto h2 = cache.acquire<float>(p);
  EXPECT_EQ(h.get(), h2.get());
  EXPECT_EQ(cache.bytes(), h->compiled_bytes());  // no double-count
}

TEST(PlanCache, TryAcquireReturnsStatusInsteadOfThrowing) {
  runtime::ScopedFaultInjection chaos(
      {.seed = 3, .rate = 1.0, .sites = std::string(runtime::fault_sites::kPlanBuild)});
  runtime::PlanCache cache;
  const perm::Permutation p = perm::bit_reversal(1024);
  auto result = cache.try_acquire<float>(p);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), runtime::StatusCode::kPlanBuildFailed);
  // The failed key was erased: a later acquire (faults off) succeeds.
  runtime::FaultInjector::instance().disarm();
  auto retry = cache.try_acquire<float>(p);
  ASSERT_TRUE(retry.ok());
  EXPECT_NE(retry.value(), nullptr);
}

TEST(PlanCache, ConcurrentAcquiresBuildOnce) {
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  const perm::Permutation p = perm::by_name("random", 8192, 11);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const core::OfflinePermuter<float>>> handles(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { handles[t] = cache.acquire<float>(p); });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[0].get(), handles[t].get());

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.plan_builds, 1u);  // single-flight: one compile for 8 racers
  EXPECT_EQ(snap.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(snap.hits + snap.misses, snap.lookups);
}

// ------------------------------------------------------------------ executor

/// A permuter compiled to `strategy`, built directly: the plan cache
/// compiles kAuto's pick only.
template <class T>
std::shared_ptr<const core::OfflinePermuter<T>> compiled(const perm::Permutation& p,
                                                         core::Strategy strategy) {
  return std::make_shared<const core::OfflinePermuter<T>>(p, MachineParams::gtx680(), strategy);
}

/// Submit one float request, asserting the executor accepted it.
std::future<runtime::Status> submit_accepted(
    runtime::Executor& executor, std::shared_ptr<const core::OfflinePermuter<float>> h,
    const util::aligned_vector<float>& a, util::aligned_vector<float>& b) {
  auto submitted = executor.try_submit<float>(std::move(h),
                                              std::span<const float>(a.data(), a.size()),
                                              std::span<float>(b.data(), b.size()));
  EXPECT_TRUE(submitted.ok()) << submitted.status().to_string();
  if (!submitted.ok()) {
    std::promise<runtime::Status> refused;
    refused.set_value(submitted.status());
    return refused.get_future();
  }
  return std::move(submitted).value();
}

TEST(Executor, ConcurrentSubmitsMatchSerialPermute) {
  const std::uint64_t n = 1 << 13;
  const MachineParams mp = MachineParams::gtx680();
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  runtime::Executor executor(util::ThreadPool::global(), &metrics);

  // Two distinct plans in flight at once (scheduled + whatever kAuto
  // picks for the random permutation), eight submitting threads.
  const perm::Permutation p1 = perm::bit_reversal(n);
  const perm::Permutation p2 = perm::by_name("random", n, 3);
  auto h1 = compiled<float>(p1, core::Strategy::kScheduled);
  auto h2 = cache.acquire<float>(p2);

  // Serial ground truth via the stateful single-thread path.
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> expect1(n), expect2(n);
  core::OfflinePermuter<float>(p1, mp, core::Strategy::kScheduled)
      .permute(std::span<const float>(a.data(), n), std::span<float>(expect1.data(), n));
  core::OfflinePermuter<float>(p2, mp).permute(std::span<const float>(a.data(), n),
                                               std::span<float>(expect2.data(), n));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<util::aligned_vector<float>> outs(kThreads * kPerThread);
  for (auto& o : outs) o.resize(n);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<runtime::Status>> futs;
      for (int r = 0; r < kPerThread; ++r) {
        auto& h = (t + r) % 2 == 0 ? h1 : h2;
        futs.push_back(submit_accepted(executor, h, a, outs[t * kPerThread + r]));
      }
      for (auto& f : futs) EXPECT_TRUE(f.get().is_ok());
    });
  }
  for (auto& th : threads) th.join();
  executor.wait_idle();
  EXPECT_EQ(executor.in_flight(), 0u);

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      const auto& expect = (t + r) % 2 == 0 ? expect1 : expect2;
      const auto& out = outs[t * kPerThread + r];
      ASSERT_EQ(0, std::memcmp(out.data(), expect.data(), n * sizeof(float)))
          << "thread " << t << " request " << r << " diverged from serial permute";
    }
  }

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.execute_count, snap.completed);
  EXPECT_GE(snap.queue_high_water, 1u);
  EXPECT_LE(snap.execute_ns_p50, std::max<std::uint64_t>(snap.execute_ns_p95, 1));
  EXPECT_LE(snap.execute_ns_p95, std::max<std::uint64_t>(snap.execute_ns_max, 1));
}

TEST(Executor, FutureDeliversResultPerRequest) {
  const std::uint64_t n = 1 << 12;
  runtime::PlanCache cache;
  runtime::Executor executor(util::ThreadPool::global());
  const perm::Permutation p = perm::shuffle(n);
  auto h = cache.acquire<float>(p);

  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);
  EXPECT_TRUE(submit_accepted(executor, h, a, b).get().is_ok());
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);
}

TEST(Executor, FailingRequestResolvesTypedAndReleasesItsSlot) {
  // A failed request must resolve its future with the typed failure,
  // decrement in_flight_, and count as failed — not completed — in the
  // metrics: a wedged slot would hang wait_idle() and teardown.
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  runtime::Executor executor(util::ThreadPool::global(), &metrics);
  auto h = cache.acquire<float>(perm::bit_reversal(n));
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::ScopedFaultInjection chaos(
      {.seed = 4, .rate = 1.0, .sites = std::string(runtime::fault_sites::kExecutorAlloc)});
  EXPECT_EQ(submit_accepted(executor, h, a, b).get().code(),
            runtime::StatusCode::kResourceExhausted);
  executor.wait_idle();
  EXPECT_EQ(executor.in_flight(), 0u);

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.submitted, 1u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.failed, 1u);
}

TEST(Executor, RepeatedFailuresDoNotWedgeTheExecutor) {
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  runtime::Executor executor(util::ThreadPool::global(), &metrics);
  auto h = cache.acquire<float>(perm::bit_reversal(n));
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  constexpr int kRequests = 16;
  {
    runtime::ScopedFaultInjection chaos(
        {.seed = 4, .rate = 1.0, .sites = std::string(runtime::fault_sites::kExecutorAlloc)});
    std::vector<std::future<runtime::Status>> futs;
    for (int r = 0; r < kRequests; ++r) futs.push_back(submit_accepted(executor, h, a, b));
    for (auto& f : futs) EXPECT_EQ(f.get().code(), runtime::StatusCode::kResourceExhausted);
    executor.wait_idle();  // must return despite every request failing
  }
  EXPECT_EQ(executor.in_flight(), 0u);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.failed, static_cast<std::uint64_t>(kRequests));

  // The executor still serves healthy requests afterwards.
  EXPECT_TRUE(submit_accepted(executor, h, a, b).get().is_ok());
  const perm::Permutation p = perm::bit_reversal(n);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);
}

TEST(Executor, WaitIdleForReportsStalledDrainThenRecovers) {
  const std::uint64_t n = 1 << 12;
  runtime::PlanCache cache;
  runtime::Executor executor(util::ThreadPool::global());
  auto h = cache.acquire<float>(perm::bit_reversal(n));
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  // Idle executor: any timeout (even zero) reports idle immediately.
  EXPECT_TRUE(executor.wait_idle_for(std::chrono::nanoseconds(0)));

  {
    // Stall the worker long enough that a short wait_idle_for times out.
    runtime::ScopedFaultInjection chaos(
        {.seed = 6,
         .rate = 1.0,
         .stall_ms = 300,
         .sites = std::string(runtime::fault_sites::kExecutorStall)});
    std::future<runtime::Status> fut = submit_accepted(executor, h, a, b);
    EXPECT_FALSE(executor.wait_idle_for(std::chrono::milliseconds(10)));
    EXPECT_GE(executor.in_flight(), 1u);
    EXPECT_TRUE(fut.get().is_ok());  // the stalled request still completes
  }
  EXPECT_TRUE(executor.wait_idle_for(std::chrono::seconds(30)));
  EXPECT_EQ(executor.in_flight(), 0u);
}

// ------------------------------------------------------------------- metrics

TEST(Metrics, CounterConsistencyUnderMixedWorkload) {
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  util::Xoshiro256 rng(5);

  std::vector<perm::Permutation> pop;
  for (int i = 0; i < 4; ++i) pop.push_back(perm::by_name("random", 1024, 100 + i));
  for (int r = 0; r < 64; ++r) {
    (void)cache.acquire<float>(pop[rng.bounded(pop.size())]);
  }

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.lookups, 64u);
  EXPECT_EQ(snap.hits + snap.misses, snap.lookups);
  EXPECT_EQ(snap.misses, 4u);  // one compile per distinct permutation
  EXPECT_EQ(snap.plan_builds, 4u);
  EXPECT_GT(snap.plan_build_ns_total, 0u);
  EXPECT_GE(snap.plan_build_ns_total, snap.plan_build_ns_max);
}

TEST(Metrics, CompiledPlansCountedByResolvedStrategy) {
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  const std::uint64_t n = 1 << 12;
  // kAuto on an L2-resident source resolves to S-designated, and the
  // cache counts the build under it; a hit compiles nothing.
  (void)cache.acquire<float>(perm::bit_reversal(n));
  (void)cache.acquire<float>(perm::bit_reversal(n));
  // The cache never compiles the other three; their rows still render.
  metrics.record_plan_strategy(core::Strategy::kScheduled);
  metrics.record_plan_strategy(core::Strategy::kDDesignated);
  metrics.record_plan_strategy(core::Strategy::kBucketed);

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.plans_scheduled, 1u);
  EXPECT_EQ(snap.plans_s_designated, 1u);
  EXPECT_EQ(snap.plans_d_designated, 1u);
  EXPECT_EQ(snap.plans_bucketed, 1u);
  EXPECT_EQ(snap.plan_builds, 1u);
  EXPECT_GT(snap.host.l2_bytes, 0u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"plans_by_strategy\":{\"scheduled\":1,\"s-designated\":1,"
                      "\"d-designated\":1,\"bucketed\":1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"host\":{\"line_bytes\":"), std::string::npos);
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("hmm_plans_total{strategy=\"scheduled\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("hmm_plans_total{strategy=\"s-designated\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("hmm_plans_total{strategy=\"bucketed\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("hmm_host_miss_ns{level=\"llc\"}"), std::string::npos);
}

TEST(Metrics, JsonAndTableRender) {
  runtime::ServiceMetrics metrics;
  metrics.record_lookup(true);
  metrics.record_lookup(false);
  metrics.record_plan_build(1234567);
  metrics.record_submit(3);
  metrics.record_execute(42000, true);

  const auto snap = metrics.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"lookups\":2"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_high_water\":3"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  std::ostringstream os;
  snap.to_table().print(os);
  EXPECT_NE(os.str().find("cache hit rate"), std::string::npos);
}

// Regression (PR 4): record_execute(ns, ok=false) used to bump
// `completed` as well as `failed`, so error rates computed from the
// snapshot silently undercounted.
TEST(Metrics, CompletedExcludesFailures) {
  runtime::ServiceMetrics metrics;
  metrics.record_execute(1'000, true);
  metrics.record_execute(2'000, false);
  metrics.record_execute(3'000, false);

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.failed, 2u);
  // The latency histogram still sees every outcome.
  EXPECT_EQ(snap.execute_count, 3u);
  EXPECT_EQ(snap.execute_ns_sum, 6'000u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"failed\":2"), std::string::npos);
}

// ---------------------------------------------------------------- phases

TEST(Metrics, PhaseBreakdownFlushesOnlyTouchedPhases) {
  using runtime::Phase;
  runtime::ServiceMetrics metrics;

  runtime::PhaseBreakdown breakdown;
  breakdown.add(Phase::kPlanBuild, 5'000);
  breakdown.add(Phase::kQueueWait, 250);
  breakdown.add(Phase::kQueueWait, 750);  // accumulates within a request
  EXPECT_TRUE(breakdown.touched(Phase::kPlanBuild));
  EXPECT_FALSE(breakdown.touched(Phase::kAdmissionWait));
  EXPECT_EQ(breakdown.total_ns(), 6'000u);
  metrics.record_phases(breakdown);

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.phase(Phase::kPlanBuild).count, 1u);
  EXPECT_EQ(snap.phase(Phase::kPlanBuild).ns_sum, 5'000u);
  EXPECT_EQ(snap.phase(Phase::kQueueWait).count, 1u);
  EXPECT_EQ(snap.phase(Phase::kQueueWait).ns_sum, 1'000u);
  // Untouched phases must not be polluted with zero-valued samples.
  EXPECT_EQ(snap.phase(Phase::kAdmissionWait).count, 0u);
  EXPECT_EQ(snap.phase(Phase::kKernelRowPass1).count, 0u);
}

TEST(Metrics, PhasesRenderInJsonTableAndPrometheus) {
  using runtime::Phase;
  runtime::ServiceMetrics metrics;
  metrics.record_phase(Phase::kSerialize, 12'345);
  metrics.record_phase(Phase::kQueueWait, 1'000'000);

  const auto snap = metrics.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"serialize\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\":{\"count\":1"), std::string::npos);

  // The scraper used by permd_client/permd_loadgen reads back what
  // to_json wrote.
  // to_json writes every phase (zero-count ones included) so scrapers
  // see a stable schema; the two recorded phases carry real samples.
  const std::vector<runtime::PhaseScrape> scraped = runtime::scrape_phases_json(json);
  ASSERT_EQ(scraped.size(), static_cast<std::size_t>(runtime::kPhaseCount));
  bool saw_serialize = false;
  for (const runtime::PhaseScrape& row : scraped) {
    if (row.label == "serialize") {
      saw_serialize = true;
      EXPECT_EQ(row.count, 1u);
      EXPECT_EQ(row.ns_sum, 12'345u);
      EXPECT_EQ(row.max, 12'345u);
    } else if (row.label != "queue_wait") {
      EXPECT_EQ(row.count, 0u) << row.label;
    }
  }
  EXPECT_TRUE(saw_serialize);

  std::ostringstream os;
  snap.to_table().print(os);
  EXPECT_NE(os.str().find("serialize"), std::string::npos);
  EXPECT_NE(os.str().find("queue_wait"), std::string::npos);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("hmm_requests_submitted_total"), std::string::npos);
  EXPECT_NE(prom.find("hmm_phase_duration_seconds_count{phase=\"serialize\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("hmm_phase_duration_seconds{phase=\"queue_wait\",quantile=\"0.5\"}"),
            std::string::npos);
}

TEST(Executor, ScheduledRequestRecordsEveryKernelPhase) {
  // One request through the scheduled permuter must leave exactly one
  // sample in every executor-side phase and in each of the three
  // sweeps — and none in the retired transpose phases (fused into the
  // sweeps), the conventional-kernel or the serialize phase.
  using runtime::Phase;
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics);

  auto phases = std::make_shared<runtime::PhaseBreakdown>();
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kScheduled);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::Executor::SubmitOptions opts;
  opts.phases = phases;
  auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n), opts);
  ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
  const auto status = std::move(submitted).value().get();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  executor.wait_idle();

  const auto snap = metrics.snapshot();
  for (Phase phase : {Phase::kAdmissionWait, Phase::kQueueWait, Phase::kKernelRowPass1,
                      Phase::kKernelRowPass2, Phase::kKernelRowPass3}) {
    EXPECT_EQ(snap.phase(phase).count, 1u) << runtime::to_string(phase);
  }
  EXPECT_EQ(snap.phase(Phase::kKernelTranspose1).count, 0u);
  EXPECT_EQ(snap.phase(Phase::kKernelTranspose2).count, 0u);
  EXPECT_EQ(snap.phase(Phase::kKernelConventional).count, 0u);
  EXPECT_EQ(snap.phase(Phase::kSerialize).count, 0u);
}

TEST(Executor, BucketedRequestRecordsItsTwoPasses) {
  // The bucketed plan's pack reports as row_pass_1 and its merge as
  // conventional_kernel: one sample in each, none in the other sweeps.
  using runtime::Phase;
  const std::uint64_t n = 1 << 16;
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics);

  auto phases = std::make_shared<runtime::PhaseBreakdown>();
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kBucketed);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::Executor::SubmitOptions opts;
  opts.phases = phases;
  auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n), opts);
  ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
  const auto status = std::move(submitted).value().get();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  executor.wait_idle();
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[h->permutation()(i)], a[i]) << i;

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.phase(Phase::kKernelRowPass1).count, 1u);
  EXPECT_EQ(snap.phase(Phase::kKernelConventional).count, 1u);
  for (Phase phase : {Phase::kKernelTranspose1, Phase::kKernelRowPass2,
                      Phase::kKernelTranspose2, Phase::kKernelRowPass3}) {
    EXPECT_EQ(snap.phase(phase).count, 0u) << runtime::to_string(phase);
  }
}

TEST(Executor, ConventionalRequestRecordsTheConventionalPhase) {
  // The served path end to end at the executor level: kAuto compiles an
  // L2-resident source to S-designated through the cache, whose lookup
  // and build land in the request's breakdown beside the kernel.
  using runtime::Phase;
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
  runtime::Executor executor(util::ThreadPool::global(), &metrics);

  auto phases = std::make_shared<runtime::PhaseBreakdown>();
  auto h = cache.acquire<float>(perm::bit_reversal(n), phases.get());
  ASSERT_EQ(h->strategy(), core::Strategy::kSDesignated);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::Executor::SubmitOptions opts;
  opts.phases = phases;
  auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n), opts);
  ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
  ASSERT_TRUE(std::move(submitted).value().get().is_ok());
  executor.wait_idle();

  const auto snap = metrics.snapshot();
  for (Phase phase : {Phase::kAdmissionWait, Phase::kQueueWait, Phase::kPlanLookup,
                      Phase::kPlanBuild, Phase::kKernelConventional}) {
    EXPECT_EQ(snap.phase(phase).count, 1u) << runtime::to_string(phase);
  }
  EXPECT_EQ(snap.phase(Phase::kKernelRowPass1).count, 0u);
}

// ------------------------------------------------------- same-plan batching

/// Batched config: gather up to `batch` same-plan requests, with a
/// window long enough that full batches always flush at-full (keeps
/// the tests deterministic) but short enough that a logic bug degrades
/// to a slow pass instead of a hang.
runtime::Executor::Config batched_config(std::uint64_t batch,
                                         std::chrono::microseconds delay =
                                             std::chrono::milliseconds(500)) {
  runtime::Executor::Config config;
  config.batch.max_batch = batch;
  config.batch.max_delay = delay;
  return config;
}

/// Submits `count` same-plan requests to a batching executor and
/// checks every output is bit-identical to the serial permute of the
/// same input. Returns the metrics delta of batches executed.
template <class T>
void expect_batched_matches_serial(std::uint64_t n) {
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics, batched_config(8));

  const perm::Permutation p = perm::bit_reversal(n);
  auto h = compiled<T>(p, core::Strategy::kScheduled);

  constexpr std::uint64_t kRequests = 8;
  std::vector<util::aligned_vector<T>> as(kRequests), bs(kRequests), expects(kRequests);
  core::OfflinePermuter<T> serial(p, MachineParams::gtx680(), core::Strategy::kScheduled);
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    as[r].resize(n);
    bs[r].resize(n);
    expects[r].resize(n);
    for (std::uint64_t i = 0; i < n; ++i) as[r][i] = static_cast<T>(i * 3 + r);
    serial.permute(std::span<const T>(as[r].data(), n), std::span<T>(expects[r].data(), n));
  }

  std::vector<std::future<runtime::Status>> futs;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    auto submitted = executor.try_submit<T>(h, std::span<const T>(as[r].data(), n),
                                            std::span<T>(bs[r].data(), n));
    ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
    futs.push_back(std::move(submitted).value());
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().is_ok());
  executor.wait_idle();

  for (std::uint64_t r = 0; r < kRequests; ++r) {
    ASSERT_EQ(0, std::memcmp(bs[r].data(), expects[r].data(), n * sizeof(T)))
        << "request " << r << " diverged from the serial permute";
  }
  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.batches_executed, 1u);
  EXPECT_EQ(snap.batched_requests, kRequests);
  EXPECT_EQ(snap.completed, kRequests);
  EXPECT_EQ(snap.failed, 0u);
}

TEST(ExecutorBatching, BatchedOutputBitIdenticalUint32) {
  expect_batched_matches_serial<std::uint32_t>(1 << 12);
}

TEST(ExecutorBatching, BatchedOutputBitIdenticalFloat) {
  expect_batched_matches_serial<float>(1 << 12);
}

TEST(ExecutorBatching, BatchedOutputBitIdenticalDouble) {
  expect_batched_matches_serial<double>(1 << 12);
}

TEST(ExecutorBatching, PartialBatchFlushesOnGatherWindow) {
  // Fewer requests than max_batch: nothing ever fills the group, so
  // completion proves the flusher's max_delay timer fires.
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics,
                             batched_config(32, std::chrono::milliseconds(2)));
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kScheduled);

  constexpr std::uint64_t kRequests = 5;
  std::vector<util::aligned_vector<float>> as(kRequests), bs(kRequests);
  std::vector<std::future<runtime::Status>> futs;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    as[r] = test::iota_data<float>(n);
    bs[r].resize(n);
    auto submitted = executor.try_submit<float>(h, std::span<const float>(as[r].data(), n),
                                                std::span<float>(bs[r].data(), n));
    ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
    futs.push_back(std::move(submitted).value());
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().is_ok());
  executor.wait_idle();
  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.batches_executed, 1u);
  EXPECT_EQ(snap.batched_requests, kRequests);
}

TEST(ExecutorBatching, CancelledItemResolvesWithoutDisturbingItsBatch) {
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  // Window long enough that the batch only flushes when it fills.
  runtime::Executor executor(util::ThreadPool::global(), &metrics,
                             batched_config(8, std::chrono::seconds(2)));
  const perm::Permutation p = perm::bit_reversal(n);
  auto h = compiled<float>(p, core::Strategy::kScheduled);

  constexpr std::uint64_t kRequests = 8;
  constexpr std::uint64_t kVictim = 3;
  runtime::CancelSource cancel;
  std::vector<util::aligned_vector<float>> as(kRequests), bs(kRequests);
  std::vector<std::future<runtime::Status>> futs;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    as[r] = test::iota_data<float>(n);
    bs[r].resize(n);
    runtime::Executor::SubmitOptions opts;
    if (r == kVictim) opts.cancel = cancel.token();
    if (r == kRequests - 2) {
      // Cancel the victim while it sits gathered in the group: the
      // token is only consulted again at batch dequeue.
      cancel.request_cancel();
    }
    auto submitted = executor.try_submit<float>(h, std::span<const float>(as[r].data(), n),
                                                std::span<float>(bs[r].data(), n), opts);
    ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
    futs.push_back(std::move(submitted).value());
  }
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    const runtime::Status st = futs[r].get();
    if (r == kVictim) {
      EXPECT_EQ(st.code(), runtime::StatusCode::kCancelled) << st.to_string();
    } else {
      EXPECT_TRUE(st.is_ok()) << "request " << r << ": " << st.to_string();
      for (std::uint64_t i = 0; i < n; i += 997) ASSERT_EQ(bs[r][p(i)], as[r][i]);
    }
  }
  executor.wait_idle();
  EXPECT_GE(metrics.snapshot().cancelled, 1u);
}

TEST(ExecutorBatching, DeadlineExpiredWhileGatheredResolvesPerRequest) {
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics,
                             batched_config(8, std::chrono::seconds(2)));
  const perm::Permutation p = perm::bit_reversal(n);
  auto h = compiled<float>(p, core::Strategy::kScheduled);

  constexpr std::uint64_t kRequests = 8;
  constexpr std::uint64_t kVictim = 0;
  std::vector<util::aligned_vector<float>> as(kRequests), bs(kRequests);
  std::vector<std::future<runtime::Status>> futs;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    as[r] = test::iota_data<float>(n);
    bs[r].resize(n);
    runtime::Executor::SubmitOptions opts;
    if (r == kVictim) {
      opts.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    }
    auto submitted = executor.try_submit<float>(h, std::span<const float>(as[r].data(), n),
                                                std::span<float>(bs[r].data(), n), opts);
    ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
    futs.push_back(std::move(submitted).value());
    if (r == kVictim) {
      // Let the victim's deadline lapse inside the gather window.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    const runtime::Status st = futs[r].get();
    if (r == kVictim) {
      EXPECT_EQ(st.code(), runtime::StatusCode::kDeadlineExceeded) << st.to_string();
    } else {
      EXPECT_TRUE(st.is_ok()) << "request " << r << ": " << st.to_string();
    }
  }
  executor.wait_idle();
  EXPECT_GE(metrics.snapshot().deadline_exceeded, 1u);
}

TEST(ExecutorBatching, ConventionalStrategyBypassesGathering) {
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics, batched_config(8));
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kSDesignated);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);
  for (int r = 0; r < 4; ++r) {
    auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                                std::span<float>(b.data(), n));
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(std::move(submitted).value().get().is_ok());
  }
  executor.wait_idle();
  EXPECT_EQ(metrics.snapshot().batches_executed, 0u);
}

TEST(ExecutorBatching, CacheBudgetSkipsGatheringForOversizeRequests) {
  // Lane working set (a + b + scratch) above cache_budget_bytes /
  // kMinFusedLanes: the request must take the unbatched path — fused
  // sweeps that overflow the cache run slower than sequential ones.
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::Executor::Config config = batched_config(8);
  config.batch.cache_budget_bytes = 3 * n * sizeof(float);  // exactly one lane
  runtime::Executor executor(util::ThreadPool::global(), &metrics, config);
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kScheduled);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);
  auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(std::move(submitted).value().get().is_ok());
  executor.wait_idle();
  EXPECT_EQ(metrics.snapshot().batches_executed, 0u);
}

// --------------------------------------------------- pooled executor scratch

TEST(ExecutorPool, SteadyStateScratchIsZeroAllocation) {
  // The zero-allocation acceptance check: after warmup, 100 requests
  // must not miss the buffer pool once — every scratch acquire is a
  // free-list hit, i.e. the request path performs no heap allocation.
  const std::uint64_t n = 1 << 12;
  util::BufferPool pool;
  runtime::Executor::Config config;
  config.pool = &pool;
  runtime::Executor executor(util::ThreadPool::global(), nullptr, config);
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kScheduled);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);
  const auto one = [&] {
    auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                                std::span<float>(b.data(), n));
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(std::move(submitted).value().get().is_ok());
  };
  for (int r = 0; r < 4; ++r) one();  // warmup: populates the size class
  const std::uint64_t misses_before = pool.stats().misses;
  for (int r = 0; r < 100; ++r) one();
  EXPECT_EQ(pool.stats().misses, misses_before);
  EXPECT_GE(pool.stats().hits, 100u);
}

TEST(ExecutorPool, PoolCapResolvesResourceExhausted) {
  const std::uint64_t n = 1 << 12;
  util::BufferPool::Config pool_config;
  pool_config.max_outstanding_bytes = 64;  // below any scratch class
  util::BufferPool pool(pool_config);
  runtime::ServiceMetrics metrics;
  runtime::Executor::Config config;
  config.pool = &pool;
  runtime::Executor executor(util::ThreadPool::global(), &metrics, config);
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kScheduled);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);
  auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n));
  ASSERT_TRUE(submitted.ok());
  const runtime::Status st = std::move(submitted).value().get();
  EXPECT_EQ(st.code(), runtime::StatusCode::kResourceExhausted) << st.to_string();
  EXPECT_GE(pool.stats().acquire_failures, 1u);
  executor.wait_idle();
}

TEST(ExecutorPool, PoolExhaustedFaultSiteInjects) {
  const std::uint64_t n = 1 << 12;
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics);
  auto h = compiled<float>(perm::bit_reversal(n), core::Strategy::kScheduled);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);
  runtime::ScopedFaultInjection chaos(
      {.seed = 9, .rate = 1.0, .sites = std::string(runtime::fault_sites::kPoolExhausted)});
  auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n));
  ASSERT_TRUE(submitted.ok());
  const runtime::Status st = std::move(submitted).value().get();
  EXPECT_EQ(st.code(), runtime::StatusCode::kResourceExhausted) << st.to_string();
  executor.wait_idle();
}

}  // namespace
}  // namespace hmm
