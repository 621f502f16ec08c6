#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <new>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/aligned_vector.hpp"
#include "util/bits.hpp"
#include "util/buffer_pool.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/numa.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hmm::util {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Bits, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(Bits, CeilHelpers) {
  EXPECT_EQ(ceil_pow2(0), 1u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1024), 1024u);
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
}

TEST(Bits, BitReverse) {
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  // Involution: reverse twice is the identity.
  for (std::uint64_t x = 0; x < 256; ++x) {
    EXPECT_EQ(bit_reverse(bit_reverse(x, 8), 8), x);
  }
}

TEST(Bits, Rotations) {
  EXPECT_EQ(rotate_left_bits(0b100, 3), 0b001u);
  EXPECT_EQ(rotate_left_bits(0b011, 3), 0b110u);
  EXPECT_EQ(rotate_right_bits(0b001, 3), 0b100u);
  // rotate_left then rotate_right is the identity.
  for (std::uint64_t x = 0; x < 1024; ++x) {
    EXPECT_EQ(rotate_right_bits(rotate_left_bits(x, 10), 10), x);
  }
}

TEST(Bits, GrayCodeAdjacentDifferByOneBit) {
  for (std::uint64_t i = 0; i + 1 < 512; ++i) {
    const std::uint64_t diff = gray_code(i) ^ gray_code(i + 1);
    EXPECT_TRUE(is_pow2(diff)) << i;
  }
}

TEST(Bits, IsqrtExact) {
  EXPECT_EQ(isqrt_exact(1), 1u);
  EXPECT_EQ(isqrt_exact(4), 2u);
  EXPECT_EQ(isqrt_exact(1 << 20), 1u << 10);
  EXPECT_EQ(isqrt_exact(9), 3u);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedInRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedRoughlyUniform) {
  Xoshiro256 rng(3);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, Uniform01Range) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, LongJumpDiverges) {
  Xoshiro256 a(9), b(9);
  b.long_jump();
  EXPECT_NE(a.next(), b.next());
}

// ---------------------------------------------------------------- hash

/// Pinned so that a change to the hash is deliberate: it moves every
/// plan id. Byte i of the input is 7i + 1.
TEST(Hash64, KnownAnswers) {
  std::vector<unsigned char> in(71);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<unsigned char>(7 * i + 1);
  const std::uint64_t short_inputs[16] = {
      0xa2b42b3a46976355ull, 0x0f56f67d02741b9aull, 0x65c33dfc7628d3bdull, 0xa8a62195173b7cbdull,
      0xe23dcc53334be91bull, 0xc74fe4aea153409dull, 0xff144622121f2ae4ull, 0xa1c0268afc839e1cull,
      0xab3d91277cc84c43ull, 0x6137358f3ad3d921ull, 0xfdcc34cec0173b88ull, 0x907816ea2d5f984cull,
      0x9125f40e4c3f1543ull, 0x33b4d51f09cb5c97ull, 0x6031d7f7f84e328aull, 0x6593349cc5ce130eull};
  for (std::size_t len = 0; len < 16; ++len) {
    EXPECT_EQ(hash64(in.data(), len), short_inputs[len]) << len << " bytes";
  }
  EXPECT_EQ(hash64(in.data(), 64), 0x729b8ed177b60c7eull);      // one block
  EXPECT_EQ(hash64(in.data(), 71), 0x41526263881aed01ull);      // a block and 7 bytes
  EXPECT_EQ(hash64(in.data(), 71, 42), 0x3866204ba1427568ull);  // seeded
}

// The hash is of the little-endian byte stream, however it is fed: in
// place, from an unaligned copy, in ragged pieces, or a word at a time
// through update_u32 (a big-endian host's path).
TEST(Hash64, EveryFeedOfTheSameBytesAgrees) {
  Xoshiro256 rng(3);
  std::vector<std::uint32_t> words(1003);  // not a whole number of blocks
  for (std::uint32_t& w : words) w = static_cast<std::uint32_t>(rng.next());
  std::vector<unsigned char> le(words.size() * 4 + 1);
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (int b = 0; b < 4; ++b) {
      le[1 + 4 * i + b] = static_cast<unsigned char>(words[i] >> (8 * b));
    }
  }
  const unsigned char* unaligned = le.data() + 1;
  const std::size_t len = words.size() * 4;
  const std::uint64_t expected = hash64(unaligned, len);

  Hash64 by_word;
  for (const std::uint32_t w : words) by_word.update_u32(w);
  EXPECT_EQ(by_word.digest(), expected);
  Hash64 ragged;
  for (std::size_t at = 0, step = 1; at < len; at += step, step = step % 97 + 13) {
    ragged.update(unaligned + at, std::min(step, len - at));
    (void)ragged.digest();  // a digest mid-stream leaves the stream as it was
  }
  EXPECT_EQ(ragged.digest(), expected);
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_EQ(hash64(words.data(), len), expected);
  }
  EXPECT_NE(hash64(unaligned, len - 1), expected);
}

/// The ids of `count` distinct random transpositions of a random
/// n-element mapping, plus the mapping's own. Each is hashed from the
/// saved state before its first changed block, as the bytes before it
/// are the mapping's.
std::vector<std::uint64_t> transposition_ids(std::uint64_t n, std::size_t count) {
  Xoshiro256 rng(n);
  std::vector<std::uint32_t> map(n);
  std::iota(map.begin(), map.end(), 0u);
  for (std::uint64_t i = n - 1; i > 0; --i) std::swap(map[i], map[rng.bounded(i + 1)]);
  const auto* bytes = reinterpret_cast<const unsigned char*>(map.data());
  const std::size_t len = n * sizeof(std::uint32_t);
  const std::size_t words = Hash64::kBlock / sizeof(std::uint32_t);
  std::vector<Hash64> before;  // before[b]: the state after b blocks
  Hash64 h;
  for (std::size_t at = 0; at < len; at += Hash64::kBlock) {
    before.push_back(h);
    h.update(bytes + at, std::min(Hash64::kBlock, len - at));
  }
  std::vector<std::uint64_t> ids = {h.digest()};
  std::set<std::pair<std::uint64_t, std::uint64_t>> drawn;
  while (drawn.size() < count) {
    const std::uint64_t i = rng.bounded(n), j = rng.bounded(n);
    if (i >= j || !drawn.emplace(i, j).second) continue;
    std::swap(map[i], map[j]);
    Hash64 resumed = before[i / words];
    const std::size_t from = i / words * Hash64::kBlock;
    ids.push_back(resumed.update(bytes + from, len - from).digest());
    std::swap(map[i], map[j]);
  }
  return ids;
}

// 64K transpositions give 64K + 1 distinct ids: at 64K elements, and a
// sample at 1M (a full 64K there would rehash ~170 GB).
TEST(Hash64, TranspositionsOfAMappingAllDiffer) {
  for (const auto& [n, count] : {std::pair<std::uint64_t, std::size_t>{1 << 16, 1 << 16},
                                {1 << 20, 1 << 10}}) {
    std::vector<std::uint64_t> ids = transposition_ids(n, count);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()) - ids.begin(),
              static_cast<std::ptrdiff_t>(count + 1))
        << n;
  }
}

TEST(AlignedVector, Alignment) {
  aligned_vector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 128, 0u);
  aligned_vector<double> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 128, 0u);
}

TEST(Table, RendersAllRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"beta", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, Csv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, JsonRowsStrictNumbersAndEscaping) {
  // Cells strtod happens to parse ("inf", "nan", hex) are not valid
  // bare JSON tokens and must be quoted; control characters inside
  // strings must be \u-escaped.
  Table t({"num", "weird", "text"});
  t.add_row({"-1.5e3", "inf", "a\tb\"c"});
  t.add_row({"42", "0x1A", "nan"});
  std::ostringstream os;
  t.print_json_rows(os);
  EXPECT_EQ(os.str(),
            "{\"num\":-1.5e3,\"weird\":\"inf\",\"text\":\"a\\u0009b\\\"c\"}\n"
            "{\"num\":42,\"weird\":\"0x1A\",\"text\":\"nan\"}\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(format_double(1.234, 2), "1.23");
  EXPECT_EQ(format_count(42), "42");
  EXPECT_EQ(format_bytes(48 * 1024), "48.0KiB");
  EXPECT_EQ(format_bytes(100), "100B");
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksDisjointCover) {
  ThreadPool pool(3);
  std::vector<int> hits(512, 0);
  std::mutex m;
  pool.parallel_for_chunks(0, hits.size(), [&](std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard g(m);
    for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleWorkerSerialFallback) {
  ThreadPool pool(1);
  std::uint64_t sum = 0;
  pool.parallel_for(0, 100, [&](std::uint64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  // A throwing kernel must surface on the calling thread (previously it
  // escaped a worker and terminated the process), and every chunk must
  // still be accounted for — no hang, pool usable afterwards.
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::uint64_t i) {
                          if (i == 333) throw std::runtime_error("kernel failure");
                        }),
      std::runtime_error);

  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 100, [&](std::uint64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, ParallelForPropagatesExceptionFromSerialFallback) {
  ThreadPool pool(1);  // degraded inline path must behave identically
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::uint64_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitTaskReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit_task([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitTaskDeliversExceptionThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit_task([]() -> int { throw std::runtime_error("task failure"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFromSubmittedTasksDoesNotDeadlock) {
  // Regression for the runtime executor's pattern: tasks running *on*
  // the pool fan out with parallel_for on the same pool. With blocking
  // waits this deadlocks once tasks occupy every worker; the caller
  // running chunks itself must keep making progress.
  ThreadPool pool(2);
  std::vector<std::future<std::uint64_t>> futs;
  for (int t = 0; t < 8; ++t) {
    futs.push_back(pool.submit_task([&pool] {
      std::atomic<std::uint64_t> sum{0};
      pool.parallel_for(0, 10000, [&](std::uint64_t i) { sum.fetch_add(i); });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 49995000u);
}

// A nested fork-join on a worker must not pop and run an unrelated
// queued task inline: that task's whole run would land on the nested
// caller's latency.
TEST(ThreadPool, NestedForkJoinDoesNotRunAnUnrelatedQueuedTask) {
  using namespace std::chrono_literals;
  ThreadPool pool(2);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<void> blocker_started, outer_started, slow_queued;
  const std::shared_future<void> slow_is_queued = slow_queued.get_future().share();
  // Worker 1 parks; worker 2 runs `outer`, so the slow task stays queued.
  auto blocker = pool.submit_task([&] {
    blocker_started.set_value();
    released.wait();
  });
  blocker_started.get_future().wait();
  std::atomic<bool> slow_started{false};
  struct Outcome {
    std::uint64_t sum;
    bool slow_ran_first;
    std::chrono::steady_clock::duration took;
  };
  auto outer = pool.submit_task([&] {
    outer_started.set_value();
    slow_is_queued.wait();
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 64, [&](std::uint64_t i) { sum.fetch_add(i); });
    return Outcome{sum.load(), slow_started.load(), std::chrono::steady_clock::now() - t0};
  });
  outer_started.get_future().wait();
  auto slow = pool.submit_task([&] {
    slow_started = true;
    std::this_thread::sleep_for(200ms);
  });
  slow_queued.set_value();
  const Outcome got = outer.get();
  EXPECT_EQ(got.sum, 2016u);
  EXPECT_FALSE(got.slow_ran_first);
  EXPECT_LT(got.took, 150ms);
  release.set_value();
  blocker.get();
  slow.get();
}

// With every worker busy, a fork-join still completes: a nested one on
// the last free worker and one from an outside thread alike run every
// chunk on their caller.
TEST(ThreadPool, ForkJoinCompletesWithEveryWorkerBusy) {
  ThreadPool pool(3);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> parked{0};
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(pool.submit_task([&] {
      parked.fetch_add(1);
      released.wait();
    }));
  }
  while (parked.load() < 2) std::this_thread::yield();
  const auto sum_loop = [&pool] {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 10000, [&](std::uint64_t i) { sum.fetch_add(i); });
    return sum.load();
  };
  std::promise<void> third_parked;
  auto nested = pool.submit_task([&] {
    const std::uint64_t sum = sum_loop();
    third_parked.set_value();
    released.wait();
    return sum;
  });
  third_parked.get_future().wait();  // now every worker is busy
  EXPECT_EQ(sum_loop(), 49995000u);
  release.set_value();
  EXPECT_EQ(nested.get(), 49995000u);
  for (auto& b : blockers) b.get();
}

// An exception from a chunk the caller runs and one from a chunk a
// helper runs both surface on the caller, once, and the pool stays
// usable. Caller and helper chunks each wait (bounded) for the other
// side to have started one, so both kinds of chunk really run.
TEST(ThreadPool, ExceptionFromCallerOrHelperChunkIsRethrownOnce) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (const bool throw_on_caller : {true, false}) {
    std::atomic<bool> caller_ran{false}, helper_ran{false};
    int caught = 0;
    try {
      pool.parallel_for_chunks(0, 64, [&](std::uint64_t, std::uint64_t) {
        const bool on_caller = std::this_thread::get_id() == caller;
        (on_caller ? caller_ran : helper_ran) = true;
        const std::atomic<bool>& other = on_caller ? helper_ran : caller_ran;
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!other.load() && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        if (on_caller == throw_on_caller) throw std::runtime_error("chunk failure");
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1) << (throw_on_caller ? "caller" : "helper");
    EXPECT_TRUE(caller_ran.load());
    EXPECT_TRUE(helper_ran.load());
    std::atomic<std::uint64_t> sum{0};
    EXPECT_NO_THROW(pool.parallel_for(0, 100, [&](std::uint64_t i) { sum.fetch_add(i); }));
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// Back-to-back fork-joins from two outside threads: every chunk runs
// exactly once, none is skipped, across 10k joins (a helper that starts
// after its loop is done must find nothing to claim).
TEST(ThreadPool, BackToBackForkJoinsRunEveryChunkOnce) {
  ThreadPool pool(3);
  constexpr int kJoinsPerThread = 5000;
  constexpr std::uint64_t kRange = 97;
  std::atomic<int> bad{0};
  const auto run = [&] {
    for (int j = 0; j < kJoinsPerThread; ++j) {
      std::vector<std::atomic<std::uint8_t>> hits(kRange);
      pool.parallel_for_chunks(0, kRange, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
      for (const auto& h : hits) {
        if (h.load() != 1) bad.fetch_add(1);
      }
    }
  };
  std::thread a(run), b(run);
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Cli, FlagsAndPositional) {
  // NOTE: `--flag value` consumes the next token, so positionals come
  // first or bare boolean flags go last / use `--flag=true`.
  const char* argv[] = {"prog", "pos1", "--n", "1024", "--type=float", "--verbose"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 1024);
  EXPECT_EQ(cli.get("type"), "float");
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.get_bool("quiet"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, SizeSuffixes) {
  const char* argv[] = {"prog", "--n", "4M", "--m=2K"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 4 << 20);
  EXPECT_EQ(cli.get_int("m", 0), 2048);
}

TEST(Cli, ExpectFlagsAcceptsKnownSubset) {
  const char* argv[] = {"prog", "--n", "1024", "--verbose"};
  Cli cli(4, const_cast<char**>(argv));
  std::ostringstream err;
  // Known list may be a superset of what was actually passed.
  EXPECT_TRUE(cli.expect_flags({"n", "verbose", "seed", "csv"}, err));
  EXPECT_TRUE(err.str().empty());
}

TEST(Cli, ExpectFlagsRejectsUnknownWithUsageDump) {
  const char* argv[] = {"prog", "--n", "1024", "--fautl-rate", "0.3"};
  Cli cli(5, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_FALSE(cli.expect_flags({"n", "fault-rate"}, err));
  const std::string msg = err.str();
  EXPECT_NE(msg.find("unknown flag --fautl-rate"), std::string::npos);
  EXPECT_NE(msg.find("usage:"), std::string::npos);
  EXPECT_NE(msg.find("--fault-rate"), std::string::npos);
}

TEST(Cli, ExpectFlagsReportsEveryOffender) {
  const char* argv[] = {"prog", "--bogus=1", "--also-bogus=2"};
  Cli cli(3, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_FALSE(cli.expect_flags({"n"}, err));
  EXPECT_NE(err.str().find("--bogus"), std::string::npos);
  EXPECT_NE(err.str().find("--also-bogus"), std::string::npos);
}

TEST(Cli, ExpectFlagsIgnoresPositionals) {
  const char* argv[] = {"prog", "ping", "--port", "9"};
  Cli cli(4, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_TRUE(cli.expect_flags({"port"}, err));
}

TEST(BufferPool, ClassRoundingIsPowerOfTwoFlooredAtMin) {
  EXPECT_EQ(BufferPool::class_bytes(1, 4096), 4096u);
  EXPECT_EQ(BufferPool::class_bytes(4096, 4096), 4096u);
  EXPECT_EQ(BufferPool::class_bytes(4097, 4096), 8192u);
  EXPECT_EQ(BufferPool::class_bytes(12000, 4096), 16384u);
  EXPECT_EQ(BufferPool::class_bytes(1 << 20, 4096), 1u << 20);
  EXPECT_EQ(BufferPool::class_bytes(100, 256), 256u);
}

TEST(BufferPool, ReleasedBlockIsReusedBySameClass) {
  BufferPool pool;
  std::uint8_t* first = nullptr;
  {
    PooledBuffer b = pool.try_acquire(10000);
    ASSERT_TRUE(b.valid());
    first = b.data();
  }
  PooledBuffer again = pool.try_acquire(9000);  // same 16K class
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(again.data(), first);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(BufferPool, BuffersAre128ByteAligned) {
  BufferPool pool;
  for (std::size_t bytes : {1u, 5000u, 70000u}) {
    PooledBuffer b = pool.try_acquire(bytes);
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kBufferAlignment, 0u);
    EXPECT_GE(b.capacity(), bytes);
  }
}

TEST(BufferPool, ZeroByteAcquireIsValidAndFree) {
  BufferPool pool;
  PooledBuffer b = pool.try_acquire(0);
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.capacity(), 0u);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
}

TEST(BufferPool, AsSpanViewsTheBlock) {
  BufferPool pool;
  PooledBuffer b = pool.try_acquire(256 * sizeof(std::uint32_t));
  std::span<std::uint32_t> view = b.as_span<std::uint32_t>(256);
  ASSERT_EQ(view.size(), 256u);
  for (std::uint32_t i = 0; i < 256; ++i) view[i] = i;
  EXPECT_EQ(view[255], 255u);
}

TEST(BufferPool, OutstandingCapRefusesAndCounts) {
  BufferPool::Config config;
  config.min_class_bytes = 4096;
  config.max_outstanding_bytes = 8192;
  BufferPool pool(config);
  PooledBuffer a = pool.try_acquire(4096);
  PooledBuffer b = pool.try_acquire(4096);
  ASSERT_TRUE(a.valid() && b.valid());
  PooledBuffer c = pool.try_acquire(4096);  // would exceed the cap
  EXPECT_FALSE(c.valid());
  EXPECT_THROW((void)pool.acquire(4096), std::bad_alloc);
  EXPECT_EQ(pool.stats().acquire_failures, 2u);
  a.reset();  // frees headroom: the next acquire succeeds again
  PooledBuffer d = pool.try_acquire(4096);
  EXPECT_TRUE(d.valid());
}

TEST(BufferPool, PooledCapTrimsInsteadOfCaching) {
  BufferPool::Config config;
  config.min_class_bytes = 4096;
  config.max_pooled_bytes = 4096;
  BufferPool pool(config);
  { PooledBuffer a = pool.try_acquire(4096); }  // pooled (fills the cap)
  { PooledBuffer b = pool.try_acquire(8192); }  // released over the cap: freed
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.trims, 1u);
  EXPECT_LE(s.pooled_bytes, 4096u);
  EXPECT_EQ(s.releases, 2u);
}

TEST(BufferPool, TrimFreesEveryCachedBlock) {
  BufferPool pool;
  { PooledBuffer a = pool.try_acquire(4096); }
  { PooledBuffer b = pool.try_acquire(65536); }
  EXPECT_GT(pool.stats().pooled_bytes, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().pooled_bytes, 0u);
  EXPECT_EQ(pool.stats().outstanding_bytes, 0u);
}

TEST(BufferPool, SteadyStateHasNoMissesAfterWarmup) {
  BufferPool pool;
  for (int i = 0; i < 3; ++i) {  // warm one buffer per class used below
    PooledBuffer warm = pool.try_acquire(4096);
  }
  const std::uint64_t misses_before = pool.stats().misses;
  for (int i = 0; i < 100; ++i) {
    PooledBuffer b = pool.try_acquire(4096);
    ASSERT_TRUE(b.valid());
  }
  EXPECT_EQ(pool.stats().misses, misses_before);
}

// Exercised under TSan in CI: concurrent acquire/release across size
// classes must not race on the free lists or the stats counters.
TEST(BufferPool, ConcurrentAcquireReleaseIsRaceFree) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t bytes = 1024u << (static_cast<unsigned>(t + i) % 4);
        PooledBuffer b = pool.try_acquire(bytes);
        ASSERT_TRUE(b.valid());
        b.data()[0] = static_cast<std::uint8_t>(i);
        b.data()[b.capacity() - 1] = static_cast<std::uint8_t>(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_EQ(s.releases, s.hits + s.misses);
}

// --- NUMA topology + node-aware pool/worker placement ------------------

TEST(Numa, TopologyHasAtLeastOneNodeAndCoversCpus) {
  const numa::Topology& topo = numa::topology();
  ASSERT_GE(topo.nodes(), 1);
  EXPECT_EQ(numa::node_count(), topo.nodes());
  // Every CPU listed under a node must map back to that node.
  for (int node = 0; node < topo.nodes(); ++node) {
    for (int cpu : topo.node_cpus[static_cast<std::size_t>(node)]) {
      EXPECT_EQ(numa::node_of_cpu(cpu), node);
    }
  }
  // Unknown CPUs clamp to node 0, never out of range.
  EXPECT_EQ(numa::node_of_cpu(-1), 0);
  EXPECT_EQ(numa::node_of_cpu(1 << 20), 0);
}

TEST(Numa, CurrentNodeIsInRange) {
  const int node = numa::current_node();
  EXPECT_GE(node, 0);
  EXPECT_LT(node, numa::node_count());
}

TEST(Numa, AwareRequiresMultipleNodes) {
  // aware() may also be vetoed by HMM_NUMA=0; the invariant that must
  // hold everywhere is: single-node machines are never "aware".
  if (numa::node_count() <= 1) {
    EXPECT_FALSE(numa::aware());
  }
}

TEST(BufferPool, AcquireOnNodeTagsAndRoundTrips) {
  BufferPool pool;
  PooledBuffer buf = pool.try_acquire_on_node(4096, 0);
  ASSERT_TRUE(buf.valid());
  EXPECT_EQ(buf.node(), 0);
  buf.reset();  // releases back to node 0's free list
  PooledBuffer again = pool.try_acquire_on_node(4096, 0);
  ASSERT_TRUE(again.valid());
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);  // second acquire reuses the released block
  EXPECT_EQ(s.misses, 1u);
}

TEST(BufferPool, OutOfRangeNodeClampsToZero) {
  BufferPool pool;
  PooledBuffer buf = pool.try_acquire_on_node(1024, 99);
  ASSERT_TRUE(buf.valid());
  EXPECT_EQ(buf.node(), 0);
  buf.reset();
  // The clamped release lands on node 0, where plain try_acquire (on a
  // single-node box) finds it again.
  PooledBuffer again = pool.try_acquire_on_node(1024, 0);
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(ThreadPool, PinnedConstructionStillRunsWork) {
  // On a single-node machine pinning degenerates to the unpinned pool;
  // on a multi-node machine this exercises per-node queues + stealing.
  ThreadPool pool(2, /*pin_workers=*/true);
  if (numa::node_count() <= 1) {
    EXPECT_FALSE(pool.workers_pinned());
  }
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for_chunks(0, 1000, [&sum](std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t local = 0;
    for (std::uint64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2u);
  for (unsigned i = 0; i < pool.size(); ++i) {
    const int node = pool.worker_node(i);
    EXPECT_GE(node, 0);
    EXPECT_LT(node, numa::node_count());
  }
}

}  // namespace
}  // namespace hmm::util
