#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <thread>
#include <tuple>
#include <vector>

#include "core/permuter.hpp"
#include "perm/generators.hpp"
#include "test_helpers.hpp"

namespace hmm::core {
namespace {

using model::MachineParams;

template <class T>
void check(OfflinePermuter<T>& op, std::uint64_t n) {
  const auto a = test::iota_data<T>(n);
  util::aligned_vector<T> b(n, T(-1));
  op.permute(a, b);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(b[op.permutation()(i)], a[i]) << i;
  }
}

// The paper's rule (Lemma 4 against Theorem 9) on the GPU machine,
// kept as the pure function gpu_pick; kAuto itself resolves on the host
// model (HostModel.* below).
TEST(Permuter, AutoPicksScheduledForHighDistribution) {
  // Needs a wide machine: scheduled wins iff 14/w + 16/(dw) < 1 (its
  // 16 coalesced rounds vs the conventional ~n casual stages), so the
  // GTX-680 shape (w=32, d=8) is the natural habitat.
  const std::uint64_t n = 1 << 16;
  const perm::Permutation p = perm::bit_reversal(n);
  ASSERT_EQ(gpu_pick(p, MachineParams::gtx680()), Strategy::kScheduled);
  OfflinePermuter<float> op(p, MachineParams::gtx680(), gpu_pick(p, MachineParams::gtx680()));
  ASSERT_NE(op.plan(), nullptr);
  check(op, n);
}

TEST(Permuter, AutoPicksConventionalForIdentity) {
  const std::uint64_t n = 1 << 16;
  EXPECT_EQ(gpu_pick(perm::identical(n), MachineParams::gtx680()), Strategy::kSDesignated);
  OfflinePermuter<float> op(perm::identical(n), MachineParams::gtx680());
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  EXPECT_EQ(op.plan(), nullptr);
  check(op, n);
}

TEST(Permuter, AutoPicksConventionalOnNarrowMachine) {
  // With w=4 the scheduled constant 16/w exceeds the conventional's
  // worst case, so the rule must refuse it regardless of distribution.
  const std::uint64_t n = 1 << 12;
  EXPECT_EQ(gpu_pick(perm::bit_reversal(n), MachineParams::tiny(4, 100, 2)),
            Strategy::kSDesignated);
  OfflinePermuter<float> op(perm::bit_reversal(n), MachineParams::tiny(4, 100, 2));
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  check(op, n);
}

TEST(Permuter, AutoFallsBackWhenTooSmall) {
  // n < width^2: the plan is unsupported, conventional takes over.
  const perm::Permutation p = perm::by_name("random", 64, 1);
  EXPECT_EQ(gpu_pick(p, MachineParams::gtx680()), Strategy::kSDesignated);
  OfflinePermuter<float> op(p, MachineParams::gtx680());
  EXPECT_EQ(op.strategy(), Strategy::kSDesignated);
  check(op, 64);
}

TEST(Permuter, ForcedStrategiesAllCorrect) {
  const std::uint64_t n = 1 << 12;
  const MachineParams mp = MachineParams::tiny(4, 50, 2);
  const perm::Permutation p = perm::by_name("random", n, 9);
  for (Strategy s : {Strategy::kScheduled, Strategy::kSDesignated, Strategy::kDDesignated,
                     Strategy::kBucketed}) {
    OfflinePermuter<double> op(p, mp, s);
    EXPECT_EQ(op.strategy(), s);
    check(op, n);
  }
}

TEST(Permuter, ForcingScheduledOnTinyArrayAborts) {
  EXPECT_DEATH(OfflinePermuter<float>(perm::identical(64), MachineParams::gtx680(),
                                      Strategy::kScheduled),
               "scheduled strategy requires");
}

// The GPU's shared-memory limit is a property of the simulated
// machine, not of the host: a plan whose rows would not fit the
// machine's shared memory still runs on the host's gather sweeps.
TEST(Permuter, ScheduledRunsPastTheMachinesSharedMemory) {
  MachineParams mp = MachineParams::tiny(4, 5, 2);
  mp.shared_bytes = 256;  // smaller than one 32-double row
  const std::uint64_t n = 4096;
  OfflinePermuter<double> op(perm::by_name("random", n, 5), mp, Strategy::kScheduled);
  ASSERT_NE(op.plan(), nullptr);
  EXPECT_FALSE(op.plan()->fits_shared(sizeof(double)));
  check(op, n);
}

// 2^23 doubles, a 64 MiB source. kAuto may pick either of its
// strategies here; whichever it picks must construct and run.
TEST(Permuter, AutoOnLargeDoublePlanRuns) {
  const std::uint64_t n = 1ull << 23;
  OfflinePermuter<double> op(perm::by_name("random", n, 23));
  EXPECT_TRUE(op.strategy() == Strategy::kBucketed ||
              op.strategy() == Strategy::kSDesignated)
      << to_string(op.strategy());
  check(op, n);
}

// The bucketed strategy has no power-of-two condition, and its scratch
// is the padded packed array. The compile allocates none of it: the
// stateful permute makes its own on first use, and compiled_bytes
// counts only the tables and the mapping, before and after.
TEST(Permuter, BucketedRunsAtAnySize) {
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{1000}, std::uint64_t{1000003}}) {
    OfflinePermuter<float> op(perm::by_name("random", n, 3), MachineParams::gtx680(),
                              Strategy::kBucketed);
    ASSERT_NE(op.buckets(), nullptr);
    EXPECT_EQ(op.plan(), nullptr);
    EXPECT_EQ(op.scratch_elements(), op.buckets()->packed_size());
    EXPECT_GE(op.scratch_elements(), n);
    EXPECT_EQ(op.compiled_bytes(), n * 4 + op.buckets()->table_bytes());
    check(op, n);
    EXPECT_EQ(op.compiled_bytes(), n * 4 + op.buckets()->table_bytes());
  }
}

// group_tables given P⁻¹ builds what it builds computing P⁻¹ itself:
// on uniform bands (a division), and on uneven splits (a search),
// including one whose last band is longer than the first.
TEST(Bucketed, GroupTablesFromAGivenInverseMatch) {
  const std::uint64_t n = 100003;
  const perm::Permutation p = perm::by_name("random", n, 5);
  const perm::Permutation pinv = p.inverse();
  std::vector<std::uint64_t> uniform;
  for (std::uint64_t s = 0; s < n; s += 4096) uniform.push_back(s);
  uniform.push_back(n);
  const std::vector<std::uint64_t> shards = {0, 33335, 66669, n};
  const std::vector<std::uint64_t> long_tail = {0, 40000, n};
  const std::vector<std::uint64_t> chunks = {0, 12500, 50001, 75000, n};
  // Band s's region at pack[bands[s]], chunk c's entries at merge[dest[c]].
  const auto tables = [&p](const std::vector<std::uint64_t>& bands,
                           const std::vector<std::uint64_t>& dest, MergeInto into,
                           std::vector<std::uint32_t>& pack, std::vector<std::uint32_t>& merge,
                           const perm::Permutation* inverse) {
    std::vector<std::uint32_t*> packs, merges;
    for (std::size_t s = 0; s + 1 < bands.size(); ++s) packs.push_back(pack.data() + bands[s]);
    for (std::size_t c = 0; c + 1 < dest.size(); ++c) merges.push_back(merge.data() + dest[c]);
    return group_tables<std::uint32_t>(p, bands, dest, 16, into,
                                       std::span<std::uint32_t* const>(packs),
                                       std::span<std::uint32_t* const>(merges), inverse);
  };
  for (const auto& [bands, dest, into] :
       {std::tuple{uniform, chunks, MergeInto::kPacked},
        std::tuple{shards, shards, MergeInto::kReceived},
        std::tuple{long_tail, chunks, MergeInto::kPacked}}) {
    std::vector<std::uint32_t> pack(n), merge(n), given_pack(n), given_merge(n);
    const GroupCounts counts = tables(bands, dest, into, pack, merge, nullptr);
    const GroupCounts given = tables(bands, dest, into, given_pack, given_merge, &pinv);
    EXPECT_EQ(given, counts) << bands.size() - 1 << " bands";
    EXPECT_EQ(given_pack, pack) << bands.size() - 1 << " bands";
    EXPECT_EQ(given_merge, merge) << bands.size() - 1 << " bands";
  }
  const BucketedPlan plan = BucketedPlan::build(p, 4096, 16);
  const BucketedPlan given = BucketedPlan::build(p, 4096, 16, &pinv);
  EXPECT_TRUE(std::ranges::equal(given.pack(), plan.pack()));
  EXPECT_TRUE(std::ranges::equal(given.merge(), plan.merge()));
}

// The paper's model of the bucketed kernel: Lemma 4 on each of its two
// gathers, which is what the simulator clocks for two S-designated runs.
TEST(Permuter, BucketedPredictedTimeIsTwoSDesignatedRuns) {
  const std::uint64_t n = 1 << 14;
  for (const MachineParams& mp : test::machines()) {
    for (const char* family : {"random", "bit-reversal", "identical"}) {
      const OfflinePermuter<float> op(perm::by_name(family, n, 2), mp, Strategy::kBucketed);
      std::uint64_t clock = 0;
      for (const perm::Permutation& gather : op.buckets()->gathers()) {
        sim::HmmSim sim(mp);
        clock += s_designated_sim_rounds(sim, gather);
      }
      EXPECT_EQ(op.predicted_time_units(), clock) << family << " w=" << mp.width;
      EXPECT_EQ(op.predicted_time_units(), bucketed_time(*op.buckets(), mp));
    }
  }
}

TEST(Permuter, ReusableAcrossManyArrays) {
  const std::uint64_t n = 1 << 12;
  OfflinePermuter<float> op(perm::shuffle(n), MachineParams::tiny(8, 100, 2),
                            Strategy::kScheduled);
  util::aligned_vector<float> a(n), b(n);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i * (round + 1));
    op.permute(a, b);
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(b[op.permutation()(i)], a[i]);
    }
  }
}

TEST(Permuter, PredictedTimeMatchesModel) {
  const std::uint64_t n = 1 << 12;
  const MachineParams mp = MachineParams::tiny(4, 100, 2);
  const perm::Permutation p = perm::bit_reversal(n);
  OfflinePermuter<float> sched(p, mp, Strategy::kScheduled);
  EXPECT_EQ(sched.predicted_time_units(), model::scheduled_time(n, mp));
  OfflinePermuter<float> conv(p, mp, Strategy::kDDesignated);
  EXPECT_EQ(conv.predicted_time_units(),
            model::d_designated_time(n, perm::distribution(p, mp.width), mp));
  // The GPU rule must have picked the cheaper one.
  OfflinePermuter<float> autop(p, mp, gpu_pick(p, mp));
  EXPECT_LE(autop.predicted_time_units(),
            std::min(sched.predicted_time_units(), conv.predicted_time_units()));
}

TEST(Permuter, PlanSupportedRule) {
  const MachineParams mp = MachineParams::gtx680();  // w=32
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(512, mp));    // rows 16 < 32
  EXPECT_TRUE(OfflinePermuter<float>::plan_supported(1024, mp));    // 32x32
  EXPECT_TRUE(OfflinePermuter<float>::plan_supported(2048, mp));    // 32x64
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(1000, mp));   // not pow2
  // Row-graph edge ids are 32-bit: at n = 2^32 the edge count wraps.
  EXPECT_TRUE(OfflinePermuter<float>::plan_supported(1ull << 31, mp));
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(1ull << 32, mp));
  EXPECT_FALSE(OfflinePermuter<float>::plan_supported(1ull << 33, mp));
}

// ------------------------------------------------------------ host model

/// A 4-worker host with a 2 MiB 16-way L2 and a 26 MiB LLC share, at
/// costs of the order the probe measures on an AVX-512 server core.
model::HostParams literal_host() {
  model::HostParams host;
  host.line_bytes = 64;
  host.page_bytes = 4096;
  host.l2_bytes = 2ull << 20;
  host.l2_ways = 16;
  host.llc_bytes = 26ull << 20;
  host.workers = 4;
  host.bucket_ns = 0.9;
  host.miss_ns_llc = 2.5;
  host.miss_ns_dram = 5.0;
  host.alias_ns = 2.0;
  host.forkjoin_ns = 56e3;
  return host;
}

Strategy pick_for(const std::string& family, std::uint64_t n, std::size_t elem_bytes,
                  const model::HostParams& host) {
  return host_pick(perm::by_name(family, n, 42).inverse(), elem_bytes, host).strategy;
}

TEST(HostModel, L2ResidentSourceGoesToSDesignatedForEveryFamily) {
  const model::HostParams host = literal_host();
  for (const char* family : {"identical", "shuffle", "random", "bit-reversal", "transpose"}) {
    const HostPick pick = host_pick(perm::by_name(family, 256 << 10, 42).inverse(),
                                    sizeof(std::uint32_t), host);
    EXPECT_EQ(pick.strategy, Strategy::kSDesignated) << family;
    EXPECT_EQ(pick.misses.lines, 0u) << family << ": an L2-resident source is not simulated";
  }
}

TEST(HostModel, OneMegaElementMissRatesSeparateRandomFromPowerOfTwoStrides) {
  // d_w(P^-1) is n for all three at w = 16; only the L2 misses differ,
  // on the 1 MiB the 4 MiB source keeps of the L2 (random re-touches
  // about a quarter of its lines there). Each is dearer gathered than
  // through the bucketed kernel's two passes, random least so.
  const model::HostParams host = literal_host();
  const std::uint64_t n = 1 << 20;
  EXPECT_EQ(pick_for("random", n, 4, host), Strategy::kBucketed);
  EXPECT_EQ(pick_for("bit-reversal", n, 4, host), Strategy::kBucketed);
  EXPECT_EQ(pick_for("transpose", n, 4, host), Strategy::kBucketed);
  const HostPick random = host_pick(perm::by_name("random", n, 42).inverse(), 4, host);
  EXPECT_NEAR(static_cast<double>(random.misses.lines) / n, 0.77, 0.02);
  EXPECT_LT(random.misses.aliased, n / 500);  // chance page-offset matches only
  const HostPick transpose = host_pick(perm::by_name("transpose", n, 42).inverse(), 4, host);
  EXPECT_GT(static_cast<double>(transpose.misses.lines) / n, 0.99);
  EXPECT_GT(static_cast<double>(transpose.misses.aliased) / n, 0.99);
  EXPECT_LT(random.conventional_ms, transpose.conventional_ms);
  EXPECT_EQ(random.bucketed_ms, transpose.bucketed_ms);  // permutation-independent
}

TEST(HostModel, SourceAsLargeAsTheL2IsSimulated) {
  // 512K u32 fill the 2 MiB L2, past the half that skips the simulation
  // and twice the share the source keeps. The power-of-two strides
  // thrash that share: every access misses, page-aliased, and the
  // bucketed kernel wins. (An LRU model of the whole L2 sees only cold
  // misses for transpose here, where the gather runs twice as long.)
  const model::HostParams host = literal_host();
  const std::uint64_t n = 512 << 10;
  EXPECT_GT(host_pick(perm::by_name("random", n, 42).inverse(), 4, host).misses.lines, 0u);
  for (const char* family : {"bit-reversal", "transpose"}) {
    const HostPick pick = host_pick(perm::by_name(family, n, 42).inverse(), 4, host);
    EXPECT_GT(static_cast<double>(pick.misses.lines) / n, 0.99) << family;
    EXPECT_GT(static_cast<double>(pick.misses.aliased) / n, 0.99) << family;
    EXPECT_EQ(pick.strategy, Strategy::kBucketed) << family;
  }
}

TEST(HostModel, IdentityAndShuffleStayConventionalAtEverySize) {
  const model::HostParams host = literal_host();
  for (std::uint64_t n = 1 << 10; n <= (4u << 20); n <<= 2) {
    EXPECT_EQ(pick_for("identical", n, 4, host), Strategy::kSDesignated) << n;
    EXPECT_EQ(pick_for("shuffle", n, 4, host), Strategy::kSDesignated) << n;
    EXPECT_EQ(pick_for("shuffle", n, 8, host), Strategy::kSDesignated) << n;
  }
}

TEST(HostModel, DramLevelWithEveryAccessMissingGoesBucketed) {
  // A 256 KiB L2 makes a 1M random gather miss on ~all accesses, and a
  // 1 MiB LLC share puts its 4 MiB source at the DRAM level.
  model::HostParams host = literal_host();
  host.l2_bytes = 256 << 10;
  host.llc_bytes = 1 << 20;
  const std::uint64_t n = 1 << 20;
  const HostPick pick = host_pick(perm::by_name("random", n, 42).inverse(), 4, host);
  EXPECT_GT(static_cast<double>(pick.misses.lines) / n, 0.9);
  EXPECT_EQ(pick.strategy, Strategy::kBucketed);
  // The same misses at a cheap enough LLC level would not pay for two passes.
  host.llc_bytes = 64 << 20;
  host.miss_ns_llc = 0.5;
  EXPECT_EQ(host_pick(perm::by_name("random", n, 42).inverse(), 4, host).strategy,
            Strategy::kSDesignated);
}

// kAuto's pick and its simulated misses per family at 512K, 1M and 4M,
// where inverse() takes the split path on a host with up to 4 MiB of
// L2, pinned to what the serial inverse gave.
TEST(HostModel, PicksAndMissesArePinnedAcrossFamiliesAndSizes) {
  const model::HostParams host = literal_host();
  struct Pinned {
    const char* family;
    std::uint64_t n, lines, aliased;
    Strategy strategy;
  };
  for (const Pinned& pin : std::initializer_list<Pinned>{
           {"identical", 512 << 10, 32768, 0, Strategy::kSDesignated},
           {"identical", 1 << 20, 65536, 0, Strategy::kSDesignated},
           {"identical", 4 << 20, 262144, 0, Strategy::kSDesignated},
           {"shuffle", 512 << 10, 32768, 16384, Strategy::kSDesignated},
           {"shuffle", 1 << 20, 65536, 32768, Strategy::kSDesignated},
           {"shuffle", 4 << 20, 262144, 131072, Strategy::kSDesignated},
           {"random", 512 << 10, 294920, 302, Strategy::kBucketed},
           {"random", 1 << 20, 809872, 740, Strategy::kBucketed},
           {"random", 4 << 20, 3949622, 3925, Strategy::kBucketed},
           {"bit-reversal", 512 << 10, 524288, 523264, Strategy::kBucketed},
           {"bit-reversal", 1 << 20, 1048576, 1047552, Strategy::kBucketed},
           {"bit-reversal", 4 << 20, 4194304, 4193280, Strategy::kBucketed},
           {"transpose", 512 << 10, 524288, 523264, Strategy::kBucketed},
           {"transpose", 1 << 20, 1048576, 1047552, Strategy::kBucketed},
           {"transpose", 4 << 20, 4194304, 4192256, Strategy::kBucketed}}) {
    const HostPick pick = host_pick(perm::by_name(pin.family, pin.n, 42).inverse(), 4, host);
    EXPECT_EQ(pick.misses, (model::GatherMisses{pin.lines, pin.aliased}))
        << pin.family << " " << pin.n;
    EXPECT_EQ(pick.strategy, pin.strategy) << pin.family << " " << pin.n;
  }
}

/// Brute-force reference: one std::list LRU per set, per worker chunk.
model::GatherMisses reference_misses(std::span<const std::uint32_t> pinv, std::size_t elem,
                                     const model::HostParams& host) {
  const std::uint64_t n = pinv.size();
  const std::uint64_t sets = host.l2_bytes / (host.line_bytes * host.l2_ways);
  model::GatherMisses total;
  for (std::uint64_t c = 0; c < host.workers; ++c) {
    std::vector<std::list<std::uint64_t>> lru(sets);
    std::uint64_t prev = ~std::uint64_t{0};
    for (std::uint64_t i = c * n / host.workers; i < (c + 1) * n / host.workers; ++i) {
      const std::uint64_t addr = std::uint64_t{pinv[i]} * elem;
      const std::uint64_t line = addr / host.line_bytes;
      std::list<std::uint64_t>& set = lru[line % sets];
      const auto it = std::find(set.begin(), set.end(), line);
      if (it == set.end()) {
        ++total.lines;
        if (addr != prev && (addr % host.page_bytes) == (prev % host.page_bytes)) ++total.aliased;
        if (set.size() == host.l2_ways) set.pop_back();
      } else {
        set.erase(it);
      }
      set.push_front(line);
      prev = addr;
    }
  }
  return total;
}

TEST(HostModel, MissCounterMatchesBruteForceLru) {
  // 4 KiB, 4-way, 16 sets, 3 workers (uneven chunks), 1 KiB "pages".
  model::HostParams host;
  host.line_bytes = 64;
  host.page_bytes = 1024;
  host.l2_bytes = 4096;
  host.l2_ways = 4;
  host.workers = 3;
  util::ThreadPool one(1);
  for (const char* family : {"random", "bit-reversal", "transpose"}) {
    const perm::Permutation pinv = perm::by_name(family, 1 << 12, 7).inverse();
    for (std::size_t elem : {std::size_t{4}, std::size_t{8}}) {
      const model::GatherMisses expect = reference_misses(pinv.data(), elem, host);
      EXPECT_GT(expect.lines, 0u);
      EXPECT_EQ(model::gather_l2_misses(pinv.data(), elem, host, util::ThreadPool::global()),
                expect)
          << family << " elem " << elem;
      EXPECT_EQ(model::gather_l2_misses(pinv.data(), elem, host, one), expect)
          << family << " elem " << elem << " on a one-thread pool";
    }
  }
}

TEST(HostModel, GeometryIsSaneAndTheProbeRunsOnce) {
  const model::HostParams geometry = model::host_geometry(4);
  EXPECT_TRUE(util::is_pow2(geometry.line_bytes));
  EXPECT_TRUE(util::is_pow2(geometry.page_bytes));
  EXPECT_GT(geometry.l2_bytes, 0u);
  EXPECT_GE(geometry.llc_bytes, geometry.l2_bytes);
  EXPECT_EQ(geometry.workers, 4u);

  // A source that fits L2 needs no costs, so nothing is probed for it.
  const model::HostParams small = host_params(1024);
  EXPECT_EQ(small.bucket_ns, 0.0);
  // First use from several threads at once, with a STATS-style reader
  // polling beside them: one probe, one answer.
  const std::uint64_t big = 2 * small.l2_bytes;
  std::vector<model::HostParams> seen(4);
  std::vector<std::thread> callers;
  for (model::HostParams& out : seen) {
    callers.emplace_back([&out, big] { out = host_params(big); });
  }
  for (int i = 0; i < 100; ++i) (void)host_params_so_far();
  for (std::thread& t : callers) t.join();
  EXPECT_GT(seen[0].bucket_ns, 0.0);
  EXPECT_GT(seen[0].miss_ns_llc, 0.0);
  EXPECT_GT(seen[0].forkjoin_ns, 0.0);
  for (const model::HostParams& other : seen) {
    EXPECT_EQ(other.bucket_ns, seen[0].bucket_ns);
    EXPECT_EQ(other.miss_ns_llc, seen[0].miss_ns_llc);
    EXPECT_EQ(other.alias_ns, seen[0].alias_ns);
  }
  EXPECT_EQ(host_params_so_far().bucket_ns, seen[0].bucket_ns);
}

}  // namespace
}  // namespace hmm::core
