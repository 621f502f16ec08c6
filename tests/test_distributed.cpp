/// Tests for the distributed permutation subsystem: band geometry
/// (`runtime::BandPlan`), schedule slicing (`runtime::BandPlanner`),
/// the extract/scatter block transposes, the SHARD_EXEC / SHARD_XCHG
/// wire codecs, and the full networked path — `net::DistributedPermuter`
/// fanning row bands out to real in-process `net::Server` shards that
/// exchange column blocks peer-to-peer, and the router's
/// `--distributed-max-bytes` path on top of it.
///
/// Ground truth everywhere is `perm::Permutation::apply` (the serial
/// oracle): a distributed result must be bit-identical to single-node,
/// for uint32 data and for float/double carried as 32-bit words.
/// Failure discipline is tested too: a shard that is dead at fan-out
/// fails the whole request typed (kUnavailable) and every surviving
/// shard releases its pooled staging (verified via pool-stats deltas);
/// a shard that refuses its session fails the request typed within
/// milliseconds, not after the exchange timeout. The router compiles
/// each distributed plan once and primes every shard with only its
/// band's rows (SHARD_PLAN), once per backend link; it re-primes only a
/// restarted shard or a dropped band.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "core/permuter.hpp"
#include "cpu/kernels.hpp"
#include "net/client.hpp"
#include "net/distributed.hpp"
#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/distributed.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using model::MachineParams;
using runtime::BandPlan;
using runtime::BandPlanner;
using runtime::Status;
using runtime::StatusCode;

// ------------------------------------------------------------- geometry

TEST(BandPlan, EvenSplitCoversEverythingOnce) {
  auto plan = BandPlan::build(64, 128, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const BandPlan& bp = plan.value();
  EXPECT_EQ(bp.rows(), 64u);
  EXPECT_EQ(bp.cols(), 128u);
  EXPECT_EQ(bp.shards(), 4u);

  // Row bands tile [0, rows) contiguously; col bands tile [0, cols).
  std::uint64_t next_row = 0, next_col = 0, total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(bp.row_band(s).begin, next_row);
    EXPECT_EQ(bp.col_band(s).begin, next_col);
    EXPECT_GE(bp.row_band(s).rows(), 1u);
    EXPECT_GE(bp.col_band(s).rows(), 1u);
    next_row = bp.row_band(s).end;
    next_col = bp.col_band(s).end;
    EXPECT_EQ(bp.band_offset(s), total);
    total += bp.band_elements(s);
  }
  EXPECT_EQ(next_row, 64u);
  EXPECT_EQ(next_col, 128u);
  EXPECT_EQ(total, 64u * 128u);
}

TEST(BandPlan, UnevenSplitBalancesWithinOneRow) {
  auto plan = BandPlan::build(64, 64, 5);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const BandPlan& bp = plan.value();
  std::uint64_t min_rows = ~0ull, max_rows = 0;
  std::uint64_t covered = 0;
  for (std::uint32_t s = 0; s < 5; ++s) {
    const std::uint64_t r = bp.row_band(s).rows();
    min_rows = std::min(min_rows, r);
    max_rows = std::max(max_rows, r);
    covered += r;
  }
  EXPECT_EQ(covered, 64u);
  EXPECT_LE(max_rows - min_rows, 1u);
}

TEST(BandPlan, ExchangeScheduleMovesEveryBlockExactlyOnce) {
  auto plan = BandPlan::build(32, 64, 3);
  ASSERT_TRUE(plan.ok());
  const BandPlan& bp = plan.value();
  for (std::uint32_t round : {1u, 2u}) {
    const auto sched = bp.exchange(round);
    ASSERT_EQ(sched.size(), 9u) << "round " << round;
    std::uint64_t moved = 0;
    std::vector<bool> seen(9, false);
    for (const runtime::BlockTransfer& t : sched) {
      const std::size_t key = t.src * 3 + t.dst;
      EXPECT_FALSE(seen[key]) << "duplicate (src,dst) in round " << round;
      seen[key] = true;
      moved += t.elements();
      EXPECT_EQ(&bp.block(round, t.src, t.dst), &t);
    }
    // Every element of the matrix crosses the exchange exactly once.
    EXPECT_EQ(moved, 32u * 64u) << "round " << round;
  }
}

TEST(BandPlan, RejectsInfeasibleSplits) {
  EXPECT_FALSE(BandPlan::build(64, 64, 0).ok());
  EXPECT_FALSE(BandPlan::build(64, 64, 65).ok());  // > kMaxShards
  EXPECT_FALSE(BandPlan::build(4, 64, 8).ok());    // shards > rows
  EXPECT_TRUE(BandPlan::build(4, 64, 4).ok());
}

// ------------------------------------------------- extract/scatter blocks

/// Running a full round's extract+scatter over all (src, dst) pairs
/// must realize exactly a matrix transpose across band boundaries.
TEST(BandBlocks, Round1RealizesTheTranspose) {
  const std::uint64_t rows = 32, cols = 64;
  auto plan = BandPlan::build(rows, cols, 3);
  ASSERT_TRUE(plan.ok());
  const BandPlan& bp = plan.value();

  std::vector<std::uint32_t> y(rows * cols);
  for (std::uint64_t i = 0; i < y.size(); ++i) y[i] = static_cast<std::uint32_t>(i * 2654435761u);
  std::vector<std::uint32_t> z(rows * cols, 0);

  std::vector<std::uint32_t> block;
  for (std::uint32_t src = 0; src < 3; ++src) {
    const std::span<const std::uint32_t> y_band(y.data() + bp.band_offset(src),
                                                bp.band_elements(src));
    for (std::uint32_t dst = 0; dst < 3; ++dst) {
      block.assign(bp.block(1, src, dst).elements(), 0);
      runtime::extract_block_round1(bp, src, dst, y_band, block);
      const std::span<std::uint32_t> z_band(z.data() + bp.col_band(dst).begin * rows,
                                            bp.transposed_elements(dst));
      runtime::scatter_block_round1(bp, src, dst, block, z_band);
    }
  }
  // z, read as the cols x rows matrix, is y transposed.
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t c = 0; c < cols; ++c) {
      ASSERT_EQ(z[c * rows + r], y[r * cols + c]) << "(" << r << "," << c << ")";
    }
  }
}

TEST(BandBlocks, Round2RealizesTheInverseTranspose) {
  const std::uint64_t rows = 32, cols = 64;
  auto plan = BandPlan::build(rows, cols, 4);
  ASSERT_TRUE(plan.ok());
  const BandPlan& bp = plan.value();

  // w is the cols x rows view (pass-2 output); round 2 must put
  // w[c][r] at x[r][c].
  std::vector<std::uint32_t> w(rows * cols);
  for (std::uint64_t i = 0; i < w.size(); ++i) w[i] = static_cast<std::uint32_t>(i ^ 0x5bd1e995u);
  std::vector<std::uint32_t> x(rows * cols, 0);

  std::vector<std::uint32_t> block;
  for (std::uint32_t src = 0; src < 4; ++src) {
    const std::span<const std::uint32_t> w_band(w.data() + bp.col_band(src).begin * rows,
                                                bp.transposed_elements(src));
    for (std::uint32_t dst = 0; dst < 4; ++dst) {
      block.assign(bp.block(2, src, dst).elements(), 0);
      runtime::extract_block_round2(bp, src, dst, w_band, block);
      const std::span<std::uint32_t> x_band(x.data() + bp.band_offset(dst),
                                            bp.band_elements(dst));
      runtime::scatter_block_round2(bp, src, dst, block, x_band);
    }
  }
  for (std::uint64_t c = 0; c < cols; ++c) {
    for (std::uint64_t r = 0; r < rows; ++r) {
      ASSERT_EQ(x[r * cols + c], w[c * rows + r]) << "(" << c << "," << r << ")";
    }
  }
}

// -------------------------------------------------- planner band slices

TEST(BandPlanner, SlicesAreTheShardRowsOfTheGatherTables) {
  const std::uint64_t n = 1 << 12;
  runtime::PlanCache cache{runtime::PlanCache::Config{}, nullptr};
  auto h = cache.acquire<std::uint32_t>(perm::by_name("random", n, 5), MachineParams::gtx680(),
                                        core::Strategy::kScheduled);
  const core::ScheduledPlan* plan = h->plan();
  ASSERT_NE(plan, nullptr);

  EXPECT_FALSE(BandPlanner::build(*plan, 3, 3).ok());

  // Each slice holds, row-major, exactly the table rows a single node
  // runs for the band.
  const auto same = [](std::span<const std::uint16_t> got,
                       const util::aligned_vector<std::uint16_t>& want) {
    return std::ranges::equal(got, want);
  };
  for (std::uint32_t s = 0; s < 3; ++s) {
    auto built = BandPlanner::build(*plan, 3, s);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    const BandPlanner& planner = built.value();
    const runtime::BandPassView p1 = planner.pass1();
    const runtime::BandRange& rb = planner.bands().row_band(s);
    EXPECT_EQ(p1.rows, rb.rows());
    EXPECT_EQ(p1.cols, plan->shape().cols);
    EXPECT_TRUE(same(p1.gather, plan->gather_rows(1, rb.begin, rb.end)));

    const runtime::BandPassView p2 = planner.pass2();
    const runtime::BandRange& cb = planner.bands().col_band(s);
    EXPECT_EQ(p2.rows, cb.rows());
    EXPECT_EQ(p2.cols, plan->shape().rows);
    EXPECT_TRUE(same(p2.gather, plan->gather_rows(2, cb.begin, cb.end)));

    const runtime::BandPassView p3 = planner.pass3();
    EXPECT_EQ(p3.rows, rb.rows());
    EXPECT_TRUE(same(p3.gather, plan->gather_rows(3, rb.begin, rb.end)));
  }
}

/// The whole distributed dataflow — band-local pass 1, block exchange,
/// band-local pass 2 on the transposed view, block exchange back,
/// band-local pass 3 — run in-process, must equal the serial oracle.
/// This pins the index math independently of any networking.
TEST(BandPlanner, LocalSimulationMatchesOracle) {
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("random", n, 17);
  runtime::PlanCache cache{runtime::PlanCache::Config{}, nullptr};
  auto h = cache.acquire<std::uint32_t>(p, MachineParams::gtx680(), core::Strategy::kScheduled);
  const core::ScheduledPlan* plan = h->plan();
  ASSERT_NE(plan, nullptr);
  const std::uint64_t rows = plan->shape().rows, cols = plan->shape().cols;
  util::ThreadPool& pool = util::ThreadPool::global();

  for (std::uint32_t shards : {2u, 3u, 4u, 7u}) {
    std::vector<BandPlanner> planners;
    for (std::uint32_t s = 0; s < shards; ++s) {
      auto built = BandPlanner::build(*plan, shards, s);
      ASSERT_TRUE(built.ok()) << built.status().to_string();
      planners.push_back(std::move(built).value());
    }
    const BandPlan& bp = planners.front().bands();

    std::vector<std::uint32_t> in(n), y(n), z(n), w(n), x(n), out(n);
    for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x9e3779b9u);

    std::vector<std::uint32_t> block;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const runtime::BandPassView p1 = planners[s].pass1();
      cpu::row_sweep<std::uint32_t>(pool, {in.data() + bp.band_offset(s), bp.band_elements(s)},
                                    {y.data() + bp.band_offset(s), bp.band_elements(s)},
                                    p1.rows, p1.cols, p1.gather);
    }
    for (std::uint32_t src = 0; src < shards; ++src) {
      for (std::uint32_t dst = 0; dst < shards; ++dst) {
        block.assign(bp.block(1, src, dst).elements(), 0);
        runtime::extract_block_round1(bp, src, dst,
                                      {y.data() + bp.band_offset(src), bp.band_elements(src)},
                                      block);
        runtime::scatter_block_round1(
            bp, src, dst, block,
            {z.data() + bp.col_band(dst).begin * rows, bp.transposed_elements(dst)});
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      const runtime::BandPassView p2 = planners[s].pass2();
      cpu::row_sweep<std::uint32_t>(
          pool, {z.data() + bp.col_band(s).begin * rows, bp.transposed_elements(s)},
          {w.data() + bp.col_band(s).begin * rows, bp.transposed_elements(s)}, p2.rows, p2.cols,
          p2.gather);
    }
    for (std::uint32_t src = 0; src < shards; ++src) {
      for (std::uint32_t dst = 0; dst < shards; ++dst) {
        block.assign(bp.block(2, src, dst).elements(), 0);
        runtime::extract_block_round2(
            bp, src, dst, {w.data() + bp.col_band(src).begin * rows, bp.transposed_elements(src)},
            block);
        runtime::scatter_block_round2(bp, src, dst, block,
                                      {x.data() + bp.band_offset(dst), bp.band_elements(dst)});
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      const runtime::BandPassView p3 = planners[s].pass3();
      cpu::row_sweep<std::uint32_t>(pool, {x.data() + bp.band_offset(s), bp.band_elements(s)},
                                    {out.data() + bp.band_offset(s), bp.band_elements(s)},
                                    p3.rows, p3.cols, p3.gather);
    }

    std::vector<std::uint32_t> expect(n);
    p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});
    EXPECT_EQ(out, expect) << "shards=" << shards << " rows=" << rows << " cols=" << cols;
  }
}

// --------------------------------------------------------------- codecs

net::ShardExecRequest sample_exec() {
  net::ShardExecRequest req;
  req.session_id = 0x1122334455667788ull;
  req.plan_id = 0xdeadbeefcafef00dull;
  req.deadline_ms = 1500;
  req.shard_index = 1;
  req.rows = 64;
  req.cols = 128;
  req.peers = {{"127.0.0.1", 7001}, {"10.0.0.2", 7002}, {"shard-3.local", 7003}};
  req.band.resize(256);
  for (std::size_t i = 0; i < req.band.size(); ++i) {
    req.band[i] = static_cast<std::uint32_t>(i * 977u);
  }
  return req;
}

TEST(ShardCodec, ExecRoundTripsOwningAndView) {
  const net::ShardExecRequest req = sample_exec();
  const std::vector<std::uint8_t> bytes = req.encode();

  auto owned = net::ShardExecRequest::decode(bytes, 1 << 20);
  ASSERT_TRUE(owned.ok()) << owned.status().to_string();
  EXPECT_EQ(owned.value().session_id, req.session_id);
  EXPECT_EQ(owned.value().plan_id, req.plan_id);
  EXPECT_EQ(owned.value().deadline_ms, req.deadline_ms);
  EXPECT_EQ(owned.value().shard_index, req.shard_index);
  EXPECT_EQ(owned.value().rows, req.rows);
  EXPECT_EQ(owned.value().cols, req.cols);
  ASSERT_EQ(owned.value().peers.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(owned.value().peers[i].host, req.peers[i].host);
    EXPECT_EQ(owned.value().peers[i].port, req.peers[i].port);
  }
  EXPECT_EQ(owned.value().band, req.band);

  auto view = net::ShardExecRequestView::decode(bytes, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().shard_count(), 3u);
  ASSERT_EQ(view.value().band.count, req.band.size());
  // The band lands on an 8-byte payload offset by construction, so the
  // borrowing decode can read it in place on little-endian hosts.
  std::vector<std::uint32_t> copied(view.value().band.count);
  view.value().band.copy_to(copied);
  EXPECT_EQ(copied, req.band);
}

TEST(ShardCodec, ExecRejectsHostileInputs) {
  const net::ShardExecRequest req = sample_exec();
  const std::vector<std::uint8_t> good = req.encode();
  ASSERT_TRUE(net::ShardExecRequest::decode(good, 1 << 20).ok());

  const auto expect_reject = [&](std::vector<std::uint8_t> bytes, const char* what) {
    auto r = net::ShardExecRequest::decode(bytes, 1 << 20);
    EXPECT_FALSE(r.ok()) << what;
    if (!r.ok()) EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
    auto v = net::ShardExecRequestView::decode(bytes, 1 << 20);
    EXPECT_FALSE(v.ok()) << what << " (view)";
  };

  // Truncations at every structural boundary.
  expect_reject({}, "empty");
  expect_reject({good.begin(), good.begin() + 20}, "truncated header");
  expect_reject({good.begin(), good.begin() + 60}, "truncated peer table");
  expect_reject({good.begin(), good.end() - 4}, "truncated band");

  // Field tampering (offsets fixed by the v1 layout).
  auto tamper = [&](std::size_t offset, std::uint8_t value, const char* what) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    expect_reject(std::move(bad), what);
  };
  tamper(0, 99, "wrong version");
  tamper(4, 2, "wrong element width");
  tamper(32, 0, "zero shard count");
  tamper(32, 65, "shard count over wire cap");
  tamper(28, 7, "shard index >= count");
  tamper(36, 1, "nonzero reserved");
  tamper(40, 0, "zero rows");

  // Element-count cap: the same frame must be refused when the reader's
  // budget is below the band size.
  auto capped = net::ShardExecRequest::decode(good, req.band.size() - 1);
  EXPECT_FALSE(capped.ok());

  // Band bytes must match the declared count exactly — no trailing junk.
  std::vector<std::uint8_t> oversized = good;
  oversized.insert(oversized.end(), {0, 0, 0, 0});
  EXPECT_FALSE(net::ShardExecRequest::decode(oversized, 1 << 20).ok());
}

TEST(ShardCodec, XchgRoundTripsAndRejectsHostileInputs) {
  net::ShardXchgRequest req;
  req.session_id = 0xfeedface12345678ull;
  req.round = 2;
  req.src_shard = 5;
  req.block = {1u, 2u, 3u, 0xffffffffu};
  const std::vector<std::uint8_t> good = req.encode();

  auto owned = net::ShardXchgRequest::decode(good, 1 << 20);
  ASSERT_TRUE(owned.ok()) << owned.status().to_string();
  EXPECT_EQ(owned.value().session_id, req.session_id);
  EXPECT_EQ(owned.value().round, 2u);
  EXPECT_EQ(owned.value().src_shard, 5u);
  EXPECT_EQ(owned.value().block, req.block);

  auto view = net::ShardXchgRequestView::decode(good, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  ASSERT_EQ(view.value().block.count, 4u);
  std::vector<std::uint32_t> copied(4);
  view.value().block.copy_to(copied);
  EXPECT_EQ(copied, req.block);

  EXPECT_FALSE(net::ShardXchgRequest::decode({good.begin(), good.begin() + 10}, 1 << 20).ok());
  EXPECT_FALSE(net::ShardXchgRequest::decode({good.begin(), good.end() - 2}, 1 << 20).ok());
  std::vector<std::uint8_t> bad_round = good;
  bad_round[8] = 3;  // round must be 1 or 2
  EXPECT_FALSE(net::ShardXchgRequest::decode(bad_round, 1 << 20).ok());
  EXPECT_FALSE(net::ShardXchgRequest::decode(good, 3).ok()) << "block over element cap";
}

/// SHARD_PLAN payload of band 1 of 3 of a real 2^12 plan (64 x 64).
std::vector<std::uint8_t> sample_shard_plan(const perm::Permutation& p, std::uint32_t shard) {
  runtime::PlanCache cache{runtime::PlanCache::Config{}, nullptr};
  auto h = cache.acquire<std::uint32_t>(p, MachineParams::gtx680(), core::Strategy::kScheduled);
  auto planner = BandPlanner::build(*h->plan(), 3, shard);
  EXPECT_TRUE(planner.ok()) << planner.status().to_string();
  return net::ShardPlanRequest{0xabcdef0123456789ull, std::move(planner).value()}.encode();
}

TEST(ShardCodec, PlanRoundTrips) {
  const perm::Permutation p = perm::by_name("random", 1 << 12, 13);
  runtime::PlanCache cache{runtime::PlanCache::Config{}, nullptr};
  auto h = cache.acquire<std::uint32_t>(p, MachineParams::gtx680(), core::Strategy::kScheduled);
  for (std::uint32_t s = 0; s < 3; ++s) {
    auto built = BandPlanner::build(*h->plan(), 3, s);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    const BandPlanner& want = built.value();
    const std::vector<std::uint8_t> bytes =
        net::ShardPlanRequest{0xabcdef0123456789ull, want}.encode();
    // 32-byte header + 6 bytes per band element (square shape).
    EXPECT_EQ(bytes.size(), 32 + 6 * want.bands().band_elements(s));

    auto got = net::ShardPlanRequest::decode(bytes);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value().plan_id, 0xabcdef0123456789ull);
    const BandPlanner& planner = got.value().planner;
    EXPECT_EQ(planner.shard(), s);
    EXPECT_EQ(planner.bands().shards(), 3u);
    EXPECT_EQ(planner.bands().rows(), h->plan()->shape().rows);
    EXPECT_EQ(planner.bands().cols(), h->plan()->shape().cols);
    EXPECT_EQ(planner.table_bytes(), want.table_bytes());
    EXPECT_TRUE(std::ranges::equal(planner.pass1().gather, want.pass1().gather));
    EXPECT_TRUE(std::ranges::equal(planner.pass2().gather, want.pass2().gather));
    EXPECT_TRUE(std::ranges::equal(planner.pass3().gather, want.pass3().gather));
  }
}

TEST(ShardCodec, PlanRejectsHostileInputs) {
  const perm::Permutation p = perm::by_name("random", 1 << 12, 13);
  const std::vector<std::uint8_t> good = sample_shard_plan(p, 1);
  ASSERT_TRUE(net::ShardPlanRequest::decode(good).ok());

  // Each hostile input fails typed, with its own reason.
  std::vector<std::string> reasons;
  const auto expect_reject = [&](const std::vector<std::uint8_t>& bytes, const char* what) {
    auto r = net::ShardPlanRequest::decode(bytes);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
    reasons.push_back(r.status().message());
  };
  const auto with_u32 = [&](std::size_t offset, std::uint32_t v) {
    std::vector<std::uint8_t> bad = good;
    for (int i = 0; i < 4; ++i) bad[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    return bad;
  };
  const auto with_u64 = [&](std::size_t offset, std::uint64_t v) {
    std::vector<std::uint8_t> bad = good;
    for (int i = 0; i < 8; ++i) bad[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    return bad;
  };

  expect_reject({good.begin(), good.begin() + 20}, "truncated frame");
  expect_reject(with_u32(12, 0), "zero shards");
  expect_reject(with_u32(8, 3), "shard_index >= shard_count");
  {
    std::vector<std::uint8_t> bad = with_u64(16, 1ull << 33);
    for (int i = 0; i < 8; ++i) bad[24 + i] = bad[16 + i];  // cols = rows = 2^33
    expect_reject(bad, "rows * cols overflow");
  }
  expect_reject(with_u64(24, (1ull << 16) + 1), "cols > 65536");
  expect_reject({good.begin(), good.end() - 2}, "table length off by one");
  {
    // The last row of pass 3 repeats its first entry.
    std::vector<std::uint8_t> bad = good;
    const std::size_t row = bad.size() - 2 * 64;
    bad[bad.size() - 2] = bad[row];
    bad[bad.size() - 1] = bad[row + 1];
    expect_reject(bad, "one row with a duplicated index");
  }
  std::vector<std::string> distinct = reasons;
  std::ranges::sort(distinct);
  EXPECT_EQ(std::ranges::unique(distinct).begin(), distinct.end())
      << "every check names its own reason";
}

// --------------------------------------------------- networked fixtures

/// One in-process permd shard (real Server over a real service).
/// Restartable: a `fixed_port` rebinds with a fresh, plan-less service.
struct Shard {
  std::unique_ptr<runtime::RobustPermuteService> service;
  std::unique_ptr<net::Server> server;
  std::uint16_t port = 0;

  void start(std::chrono::milliseconds exchange_timeout = 5'000ms,
             std::uint32_t max_payload = net::kDefaultMaxPayload,
             std::uint16_t fixed_port = 0, std::uint32_t max_plans = 4096) {
    service = std::make_unique<runtime::RobustPermuteService>(
        util::ThreadPool::global(), runtime::RobustPermuteService::Config{});
    net::Server::Config config;
    config.port = fixed_port;
    config.max_plans = max_plans;
    config.poll_interval = 10ms;
    config.shard_exchange_timeout = exchange_timeout;
    config.max_payload_bytes = max_payload;
    server = std::make_unique<net::Server>(*service, config);
    const Status started = server->start();
    ASSERT_TRUE(started.is_ok()) << started.to_string();
    port = server->port();
  }

  void stop() {
    if (server) server->stop();
  }

  /// Register `p` directly with this shard; returns the wire plan id.
  std::uint64_t submit(const perm::Permutation& p) {
    net::Client::Config c;
    c.host = "127.0.0.1";
    c.port = port;
    net::Client client(c);
    auto id = client.submit_plan(p);
    EXPECT_TRUE(id.ok()) << id.status().to_string();
    return id.ok() ? id.value() : 0;
  }
};

/// Push one SHARD_PLAN payload at `port` and return the shard's answer.
Status prime_shard(std::uint16_t port, std::span<const std::uint8_t> payload) {
  auto conn = net::tcp_connect("127.0.0.1", port, 1'000ms);
  if (!conn.ok()) return conn.status();
  net::TcpStream stream = std::move(conn).value();
  (void)stream.set_io_timeout(30'000ms, 30'000ms);
  const net::ConstBuffer parts[] = {{payload.data(), payload.size()}};
  if (Status sent = net::write_frame_parts(
          stream, static_cast<std::uint16_t>(net::MsgKind::kShardPlan), 7, parts);
      !sent.is_ok()) {
    return sent;
  }
  util::PooledBuffer storage;
  auto response = net::read_frame_view(stream, util::BufferPool::global(), storage, 4096);
  if (!response.ok()) return response.status();
  EXPECT_EQ(response.value().request_id, 7u);
  return net::shard_plan_outcome(response.value().kind, response.value().payload);
}

bool eventually(const std::function<bool()>& pred, std::chrono::milliseconds budget = 5'000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

/// Run one distributed execution through DistributedPermuter against
/// `shards.size()` live servers and return the concatenated output. The
/// plan is compiled once here and each live shard primed with its band,
/// the way the router does it.
runtime::StatusOr<std::vector<std::uint32_t>> run_distributed(
    std::vector<Shard*> shards, const perm::Permutation& p,
    std::span<const std::uint32_t> data, std::vector<std::size_t>* transport_failures = nullptr,
    std::uint32_t max_payload = net::kDefaultMaxPayload,
    std::chrono::milliseconds io_timeout = 60'000ms) {
  const core::MatrixShape shape = core::shape_for(p.size(), 32);
  const std::uint64_t plan_id = runtime::fingerprint_permutation(p).value;

  std::vector<net::ShardTarget> targets;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    targets.push_back(net::ShardTarget{"127.0.0.1", shards[i]->port, i});
  }

  auto bands = net::DistributedPermuter::compile(p, plan_id, 32,
                                                 static_cast<std::uint32_t>(shards.size()));
  if (!bands.ok()) return bands.status();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i]->server) continue;
    const Status primed = prime_shard(shards[i]->port, bands.value()[i]);
    if (!primed.is_ok()) return primed;
  }

  net::DistributedPermuter::Config config;
  config.max_payload_bytes = max_payload;
  config.connect_timeout = 1'000ms;
  config.io_timeout = io_timeout;
  auto result = net::DistributedPermuter::execute(
      config, /*session_id=*/0x5e55'1011u + p.size(), plan_id, /*deadline_ms=*/0, shape.rows,
      shape.cols,
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(data.data()),
                                    data.size_bytes()),
      targets, [&](std::size_t idx) {
        if (transport_failures) transport_failures->push_back(idx);
      });
  if (!result.ok()) return result.status();

  std::vector<std::uint32_t> out;
  out.reserve(data.size());
  for (const net::DistributedPermuter::Band& band : result.value().bands) {
    const std::size_t begin = out.size();
    out.resize(begin + band.elements);
    std::memcpy(out.data() + begin, band.bytes.data(), band.bytes.size());
  }
  return out;
}

// ------------------------------------------------------- end-to-end wire

TEST(DistributedWire, TwoAndFourShardsMatchOracleUint32) {
  const std::uint64_t n = 1 << 14;
  const perm::Permutation p = perm::by_name("random", n, 23);
  std::vector<std::uint32_t> in(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x85ebca6bu);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});

  for (std::size_t count : {2u, 4u}) {
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard*> ptrs;
    for (std::size_t i = 0; i < count; ++i) {
      shards.push_back(std::make_unique<Shard>());
      shards.back()->start();
      ptrs.push_back(shards.back().get());
    }
    auto out = run_distributed(ptrs, p, {in.data(), n});
    ASSERT_TRUE(out.ok()) << count << " shards: " << out.status().to_string();
    EXPECT_EQ(out.value(), expect) << count << " shards";
    for (auto& s : shards) {
      EXPECT_EQ(s->server->counters().shard_execs, 1u);
      EXPECT_EQ(s->server->counters().shard_aborts, 0u);
      // Every shard accepted one wire block per *other* peer per round
      // (its own block short-circuits locally, never hitting the wire).
      EXPECT_EQ(s->server->counters().shard_blocks, 2 * (count - 1));
      s->stop();
    }
  }
}

TEST(DistributedWire, FloatAndDoubleRideAsWordsBitIdentical) {
  // float: one word per element — the word permutation IS the element
  // permutation, so the wire path is exercised with float payload bits.
  {
    const std::uint64_t n = 1 << 12;
    const perm::Permutation p = perm::by_name("shuffle", n, 7);
    std::vector<float> a(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = 0.5f + static_cast<float>(i) * 1.25f;
    std::vector<float> expect(n);
    p.apply<float>({a.data(), n}, {expect.data(), n});

    std::vector<std::uint32_t> words(n);
    std::memcpy(words.data(), a.data(), n * sizeof(float));

    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard*> ptrs;
    for (int i = 0; i < 3; ++i) {
      shards.push_back(std::make_unique<Shard>());
      shards.back()->start();
      ptrs.push_back(shards.back().get());
    }
    auto out = run_distributed(ptrs, p, {words.data(), n});
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_EQ(std::memcmp(out.value().data(), expect.data(), n * sizeof(float)), 0);
    for (auto& s : shards) s->stop();
  }
  // double: two words per element. The word-level permutation
  // P_w(2i + j) = 2 P(i) + j over 2n words moves each double's word
  // pair together, so permuting the word view equals permuting doubles.
  {
    const std::uint64_t n = 1 << 12;
    const perm::Permutation p = perm::by_name("random", n, 9);
    util::aligned_vector<std::uint32_t> word_map(2 * n);
    for (std::uint64_t i = 0; i < n; ++i) {
      word_map[2 * i] = 2 * p(i);
      word_map[2 * i + 1] = 2 * p(i) + 1;
    }
    const perm::Permutation pw(std::move(word_map));

    std::vector<double> a(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = 1.0 / (1.0 + static_cast<double>(i));
    std::vector<double> expect(n);
    p.apply<double>({a.data(), n}, {expect.data(), n});

    std::vector<std::uint32_t> words(2 * n);
    std::memcpy(words.data(), a.data(), n * sizeof(double));

    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Shard*> ptrs;
    for (int i = 0; i < 4; ++i) {
      shards.push_back(std::make_unique<Shard>());
      shards.back()->start();
      ptrs.push_back(shards.back().get());
    }
    auto out = run_distributed(ptrs, pw, {words.data(), 2 * n});
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_EQ(std::memcmp(out.value().data(), expect.data(), n * sizeof(double)), 0);
    for (auto& s : shards) s->stop();
  }
}

TEST(DistributedWire, DeadShardFailsTypedAndLeaksNothing) {
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  std::vector<std::uint32_t> in(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i);

  // Two live shards with a short exchange deadline, plus one target
  // that is already dead (started to claim a port, then stopped): the
  // live shards receive SHARD_EXEC naming the dead peer and must abort
  // their sessions, typed, releasing all pooled staging.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> ptrs;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<Shard>());
    shards.back()->start(/*exchange_timeout=*/500ms);
    ptrs.push_back(shards.back().get());
  }
  shards.push_back(std::make_unique<Shard>());
  shards.back()->start();
  shards.back()->stop();
  shards.back()->server.reset();  // port stays claimed by nobody — connects fail
  ptrs.push_back(shards.back().get());

  const std::uint64_t baseline = util::BufferPool::global().stats().outstanding_bytes;

  std::vector<std::size_t> transport_failures;
  auto out = run_distributed(ptrs, p, {in.data(), n}, &transport_failures);
  ASSERT_FALSE(out.ok()) << "a dead shard must fail the whole request";
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable) << out.status().to_string();
  // The dead target's failure was transport-level and attributed.
  EXPECT_NE(std::find(transport_failures.begin(), transport_failures.end(), 2u),
            transport_failures.end());

  // Every pooled staging byte on the survivors is released once their
  // sessions abort (bounded by the exchange timeout).
  EXPECT_TRUE(eventually([&] {
    return util::BufferPool::global().stats().outstanding_bytes <= baseline;
  })) << "pooled staging leaked after a mid-exchange abort";
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(shards[i]->server->counters().shard_aborts, 1u);
    EXPECT_EQ(shards[i]->server->counters().shard_execs, 0u);
  }
  for (auto& s : shards) s->stop();
}

TEST(DistributedWire, RefusedSessionFailsFastAndLeaksNothing) {
  // One of three shards does not hold the plan and refuses its
  // SHARD_EXEC. Its peers' SHARD_XCHG blocks to it must be answered at
  // once (the refused session id is tombstoned), not after the 10 s
  // exchange timeout, so the whole attempt fails typed and promptly.
  const std::uint64_t n = 1 << 14;
  const perm::Permutation p = perm::by_name("random", n, 41);
  std::vector<std::uint32_t> in(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x27d4eb2du);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<net::ShardTarget> targets;
  for (std::size_t i = 0; i < 3; ++i) {
    shards.push_back(std::make_unique<Shard>());
    shards.back()->start(/*exchange_timeout=*/10'000ms);
    targets.push_back(net::ShardTarget{"127.0.0.1", shards.back()->port, i});
  }
  const std::uint64_t plan_id = shards[0]->submit(p);
  ASSERT_EQ(shards[1]->submit(p), plan_id);

  const core::MatrixShape shape = core::shape_for(n, 32);
  const auto execute = [&](std::uint64_t session_id, std::span<const net::ShardTarget> on) {
    net::DistributedPermuter::Config config;
    config.max_payload_bytes = net::kDefaultMaxPayload;
    config.connect_timeout = 1'000ms;
    config.io_timeout = 30'000ms;
    return net::DistributedPermuter::execute(
        config, session_id, plan_id, /*deadline_ms=*/0, shape.rows, shape.cols,
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(in.data()),
                                      n * sizeof(std::uint32_t)),
        on, [](std::size_t) {});
  };
  // Warm the plan-holding shards' compile caches, so the timed attempt
  // measures the exchange, not a compile (slow under sanitizers).
  auto warm = execute(0x7e1f'0000u, std::span(targets).first(2));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();

  const std::uint64_t baseline = util::BufferPool::global().stats().outstanding_bytes;
  const auto started = std::chrono::steady_clock::now();
  auto refused = execute(0x7e1f'0001u, targets);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(refused.ok()) << "a shard without the plan must fail the attempt";
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().to_string();
  EXPECT_LT(elapsed, 1s) << "peers waited out the exchange timeout on a refused session";
  EXPECT_TRUE(eventually([&] {
    return util::BufferPool::global().stats().outstanding_bytes <= baseline;
  })) << "pooled staging leaked after a refused session";
  for (auto& s : shards) EXPECT_GE(s->server->counters().shard_aborts, 1u);

  // Re-prime the refused shard; a fresh session then succeeds.
  ASSERT_EQ(shards[2]->submit(p), plan_id);
  auto healed = execute(0x7e1f'0002u, targets);
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  std::vector<std::uint32_t> out;
  for (const net::DistributedPermuter::Band& band : healed.value().bands) {
    const std::size_t begin = out.size();
    out.resize(begin + band.elements);
    std::memcpy(out.data() + begin, band.bytes.data(), band.bytes.size());
  }
  EXPECT_EQ(out, expect);
  for (auto& s : shards) s->stop();
}

// ------------------------------------------------------- routed serving

TEST(DistributedRouter, LargePermuteShardsTransparently) {
  const std::uint64_t n = 1 << 14;  // 64 KiB of element data
  std::vector<std::unique_ptr<Shard>> backends;
  net::Router::Config config;
  for (int i = 0; i < 4; ++i) {
    backends.push_back(std::make_unique<Shard>());
    backends.back()->start();
    config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
  }
  // Shard any PERMUTE over 16 KiB: n * 4 bytes / 16 KiB = 4 bands.
  config.distributed_max_bytes = 16 << 10;
  config.connect_timeout = 1'000ms;
  config.io_timeout = 30'000ms;
  config.poll_interval = 10ms;
  net::Router router(std::move(config));
  ASSERT_TRUE(router.start().is_ok());

  net::Client::Config cc;
  cc.host = "127.0.0.1";
  cc.port = router.port();
  cc.io_timeout = 30'000ms;
  net::Client client(cc);

  const perm::Permutation p = perm::by_name("random", n, 31);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i ^ 0xc2b2ae35u);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);

  const net::Router::Snapshot snap = router.snapshot();
  EXPECT_EQ(snap.dist_requests, 1u);
  EXPECT_EQ(snap.dist_failures, 0u);
  EXPECT_EQ(snap.dist_bytes, n * 4);
  // The data really was sharded: multiple backends ran a band.
  std::size_t executed = 0;
  for (auto& be : backends) {
    executed += be->server->counters().shard_execs > 0 ? 1 : 0;
  }
  EXPECT_GE(executed, 2u);

  // A small request on the same plan takes the single-node path.
  const std::uint64_t small_n = 1 << 10;
  const perm::Permutation ps = perm::by_name("bit-reversal", small_n, 1);
  auto small_plan = client.submit_plan(ps);
  ASSERT_TRUE(small_plan.ok());
  std::vector<std::uint32_t> sa(small_n, 1), sb(small_n, 0);
  ASSERT_TRUE(client.permute(small_plan.value(), {sa.data(), small_n}, {sb.data(), small_n})
                  .is_ok());
  EXPECT_EQ(router.snapshot().dist_requests, 1u) << "small request must not shard";

  router.stop();
  for (auto& be : backends) be->stop();
}

/// Three shards behind a router that splits every PERMUTE above 16 KiB
/// into three bands (n = 2^14 asks for four; the fleet caps it). Health
/// probes are effectively off, so only the request path sees restarts.
struct DistFleet {
  std::vector<std::unique_ptr<Shard>> backends;
  std::unique_ptr<net::Router> router;

  DistFleet() {
    net::Router::Config config;
    for (int i = 0; i < 3; ++i) {
      backends.push_back(std::make_unique<Shard>());
      backends.back()->start();
      config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
    }
    config.distributed_max_bytes = 16 << 10;
    config.probe_interval = 60'000ms;
    config.eject_after = 1'000'000;
    config.connect_timeout = 1'000ms;
    config.io_timeout = 30'000ms;
    config.poll_interval = 10ms;
    router = std::make_unique<net::Router>(std::move(config));
    const Status started = router->start();
    EXPECT_TRUE(started.is_ok()) << started.to_string();
  }

  ~DistFleet() {
    router->stop();
    for (auto& b : backends) b->stop();
  }

  [[nodiscard]] net::Client::Config client_config() const {
    net::Client::Config c;
    c.host = "127.0.0.1";
    c.port = router->port();
    c.io_timeout = 30'000ms;
    return c;
  }
};

/// One PERMUTE through `client`, checked against the serial oracle.
void expect_bit_exact(net::Client& client, std::uint64_t plan_id, const perm::Permutation& p,
                      std::uint32_t salt) {
  const std::uint64_t n = p.size();
  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 0x9e3779b1u) ^ salt;
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});
  const Status s = client.permute(plan_id, {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);
}

TEST(DistributedRouter, PrimesEachShardOncePerLink) {
  DistFleet fleet;
  const perm::Permutation p = perm::by_name("random", 1 << 14, 53);
  net::Client first(fleet.client_config());
  auto plan = first.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  for (std::uint32_t r = 0; r < 20; ++r) expect_bit_exact(first, plan.value(), p, r);
  net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 20u);
  EXPECT_EQ(snap.dist_plan_pushes, 3u) << "each shard link is primed once, not per request";

  // A second client connection owns its own backend links.
  net::Client second(fleet.client_config());
  for (std::uint32_t r = 0; r < 5; ++r) expect_bit_exact(second, plan.value(), p, 100 + r);
  snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 25u);
  EXPECT_EQ(snap.dist_plan_pushes, 6u);
  EXPECT_EQ(snap.dist_failures, 0u);
  for (const net::Router::BackendStats& b : snap.backends) {
    EXPECT_EQ(b.plans_synced, 0u) << b.backend << ": priming must not count as resync";
  }
}

TEST(DistributedRouter, RestartedShardIsReprimedExactlyOnce) {
  DistFleet fleet;
  const perm::Permutation p = perm::by_name("random", 1 << 14, 59);
  net::Client client(fleet.client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  expect_bit_exact(client, plan.value(), p, 0);
  ASSERT_EQ(fleet.router->snapshot().dist_plan_pushes, 3u);

  // Stopping the shard closes the router's link to it; the fresh server
  // on the same port holds no plans.
  Shard& victim = *fleet.backends[1];
  const std::uint16_t port = victim.port;
  victim.stop();
  victim.start(5'000ms, net::kDefaultMaxPayload, port);
  ASSERT_EQ(victim.port, port);

  expect_bit_exact(client, plan.value(), p, 1);
  expect_bit_exact(client, plan.value(), p, 2);
  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 3u);
  EXPECT_EQ(snap.dist_failures, 0u);
  EXPECT_EQ(snap.dist_plan_pushes, 4u) << "only the restarted shard is re-primed, once";
  EXPECT_EQ(snap.plan_resyncs, 0u) << "the closed link was noticed before SHARD_EXEC";
  // Priming hands the restarted shard its band, not the permutation.
  EXPECT_EQ(victim.server->shard_plans(), 1u);
  EXPECT_EQ(victim.server->plans(), 0u);
  EXPECT_EQ(victim.server->counters().shard_compiles, 0u);
}

TEST(DistributedRouter, PrimedShardsHoldOnlyTheirBands) {
  DistFleet fleet;
  const std::uint64_t n = 1 << 14;  // 128 x 128: every band table is 6 B per band element
  const perm::Permutation p = perm::by_name("random", n, 61);
  net::Client first(fleet.client_config());
  auto plan = first.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  // Two client connections ask for the plan at once: one compiles, the
  // other waits for that compile.
  net::Client second(fleet.client_config());
  std::thread racer([&] { expect_bit_exact(second, plan.value(), p, 1); });
  expect_bit_exact(first, plan.value(), p, 0);
  racer.join();

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 2u);
  EXPECT_EQ(snap.dist_plan_pushes, 6u) << "each connection's links are primed once";
  EXPECT_EQ(snap.dist_plan_compiles, 1u) << "two connections share one compile";
  EXPECT_NE(snap.to_prometheus().find("hmm_router_distributed_plan_compiles_total 1\n"),
            std::string::npos);
  EXPECT_NE(snap.to_json().find("\"distributed_plan_compiles\":1,"), std::string::npos);

  // With every backend usable, band s sits on the plan's s-th preference.
  const core::MatrixShape shape = core::shape_for(n, 32);
  auto bands = BandPlan::build(shape.rows, shape.cols, 3);
  ASSERT_TRUE(bands.ok());
  const std::vector<std::size_t> order = fleet.router->preference(plan.value());
  for (std::uint32_t s = 0; s < 3; ++s) {
    const Shard& shard = *fleet.backends[order[s]];
    EXPECT_EQ(shard.server->shard_plans(), 1u);
    EXPECT_EQ(shard.server->shard_plan_bytes(), 6 * bands.value().band_elements(s));
    EXPECT_EQ(shard.server->counters().shard_compiles, 0u);
    EXPECT_EQ(shard.server->counters().shard_execs, 2u);
    EXPECT_EQ(shard.service->cache().entries(), 0u) << "a primed shard compiles nothing";
    const std::string prom = shard.server->to_prometheus();
    EXPECT_NE(prom.find("hmm_server_shard_plans 1\n"), std::string::npos) << prom;
    EXPECT_NE(prom.find("hmm_server_shard_compiles_total 0\n"), std::string::npos) << prom;
    net::Client::Config cc;
    cc.host = "127.0.0.1";
    cc.port = shard.port;
    net::Client direct(cc);
    auto stats = direct.stats_json();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_NE(stats.value().find("\"shard_plans\":1,"), std::string::npos) << stats.value();
    EXPECT_NE(stats.value().find("\"shard_compiles\":0,"), std::string::npos) << stats.value();
  }
}

TEST(DistributedRouter, ShrunkFleetPrimesTheTwoShardBands) {
  DistFleet fleet;
  const perm::Permutation p = perm::by_name("random", 1 << 14, 67);
  net::Client client(fleet.client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  expect_bit_exact(client, plan.value(), p, 0);
  ASSERT_EQ(fleet.router->snapshot().dist_plan_pushes, 3u);

  // One shard goes away for good (probes are off, so only the request
  // path notices): its band cannot be pushed, and with no spare backend
  // the split shrinks to two shards, whose bands all change.
  const std::size_t gone = fleet.router->preference(plan.value())[1];
  fleet.backends[gone]->stop();
  expect_bit_exact(client, plan.value(), p, 1);
  expect_bit_exact(client, plan.value(), p, 2);

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 3u);
  EXPECT_EQ(snap.dist_failures, 0u);
  EXPECT_EQ(snap.dist_plan_compiles, 2u) << "one compile per shard count";
  EXPECT_EQ(snap.dist_plan_pushes, 5u) << "each survivor is primed once with its 2-shard band";
  for (std::size_t i = 0; i < 3; ++i) {
    if (i == gone) continue;
    EXPECT_EQ(fleet.backends[i]->server->shard_plans(), 2u);
    EXPECT_EQ(fleet.backends[i]->server->counters().shard_compiles, 0u);
  }
}

TEST(DistributedRouter, DroppedBandIsReprimedOnceThroughTheRetry) {
  // Shards that hold one band at most: priming another plan's bands
  // drops this plan's, behind the router's back.
  std::vector<std::unique_ptr<Shard>> backends;
  net::Router::Config config;
  for (int i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<Shard>());
    backends.back()->start(5'000ms, net::kDefaultMaxPayload, 0, /*max_plans=*/1);
    config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
  }
  config.distributed_max_bytes = 16 << 10;
  config.probe_interval = 60'000ms;
  config.eject_after = 1'000'000;
  config.io_timeout = 30'000ms;
  config.poll_interval = 10ms;
  net::Router router(std::move(config));
  ASSERT_TRUE(router.start().is_ok());
  net::Client::Config cc;
  cc.host = "127.0.0.1";
  cc.port = router.port();
  cc.io_timeout = 30'000ms;
  net::Client client(cc);

  const perm::Permutation p = perm::by_name("random", 1 << 14, 71);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  expect_bit_exact(client, plan.value(), p, 0);
  ASSERT_EQ(router.snapshot().dist_plan_pushes, 3u);

  const perm::Permutation other = perm::by_name("bit-reversal", 1 << 14, 1);
  auto other_bands = net::DistributedPermuter::compile(
      other, runtime::fingerprint_permutation(other).value, 32, 3);
  ASSERT_TRUE(other_bands.ok());
  for (std::uint32_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(prime_shard(backends[s]->port, other_bands.value()[s]).is_ok());
    ASSERT_EQ(backends[s]->server->shard_plans(), 1u);
  }

  expect_bit_exact(client, plan.value(), p, 1);
  expect_bit_exact(client, plan.value(), p, 2);
  const net::Router::Snapshot snap = router.snapshot();
  EXPECT_EQ(snap.dist_requests, 3u);
  EXPECT_EQ(snap.dist_failures, 0u);
  EXPECT_EQ(snap.plan_resyncs, 1u) << "one retry re-primed the dropped bands";
  EXPECT_EQ(snap.dist_plan_pushes, 3u);
  EXPECT_EQ(snap.dist_plan_compiles, 1u) << "the re-prime reuses the router's compile";
  std::uint64_t reprimed = 0;
  for (const net::Router::BackendStats& b : snap.backends) reprimed += b.plans_synced;
  EXPECT_EQ(reprimed, 3u);
  router.stop();
  for (auto& b : backends) b->stop();
}

TEST(DistributedWire, UnprimedShardsCompileRegisteredPlansLocally) {
  // A direct DistributedPermuter caller that registered the plan with
  // SUBMIT_PLAN but never primed bands: each shard compiles its band
  // once, keeps it, and the result is the oracle's.
  const std::uint64_t n = 1 << 14;
  const perm::Permutation p = perm::by_name("random", n, 73);
  std::vector<std::uint32_t> in(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x2545f491u);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<net::ShardTarget> targets;
  std::uint64_t plan_id = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    shards.push_back(std::make_unique<Shard>());
    shards.back()->start();
    plan_id = shards.back()->submit(p);
    targets.push_back(net::ShardTarget{"127.0.0.1", shards.back()->port, i});
  }
  const core::MatrixShape shape = core::shape_for(n, 32);
  net::DistributedPermuter::Config config;
  config.max_payload_bytes = net::kDefaultMaxPayload;
  for (std::uint64_t session : {0x10ca'1000u, 0x10ca'1001u}) {
    auto result = net::DistributedPermuter::execute(
        config, session, plan_id, /*deadline_ms=*/0, shape.rows, shape.cols,
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(in.data()),
                                      n * sizeof(std::uint32_t)),
        targets, [](std::size_t) {});
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    std::vector<std::uint32_t> out;
    for (const net::DistributedPermuter::Band& band : result.value().bands) {
      const std::size_t begin = out.size();
      out.resize(begin + band.elements);
      std::memcpy(out.data() + begin, band.bytes.data(), band.bytes.size());
    }
    EXPECT_EQ(out, expect);
  }
  for (auto& s : shards) {
    EXPECT_EQ(s->server->counters().shard_compiles, 1u) << "compiled once, then reused";
    EXPECT_EQ(s->server->shard_plans(), 1u);
    s->stop();
  }
}

TEST(DistributedWire, MalformedShardPlanLeavesNoBand) {
  Shard shard;
  shard.start();
  const perm::Permutation p = perm::by_name("random", 1 << 12, 13);
  std::vector<std::uint8_t> payload = sample_shard_plan(p, 2);
  // The last row of pass 3 repeats its first entry.
  const std::size_t row = payload.size() - 2 * 64;
  payload[payload.size() - 2] = payload[row];
  payload[payload.size() - 1] = payload[row + 1];

  const Status primed = prime_shard(shard.port, payload);
  ASSERT_FALSE(primed.is_ok());
  EXPECT_EQ(primed.code(), StatusCode::kInvalidArgument) << primed.to_string();
  EXPECT_NE(primed.message().find("not a permutation"), std::string::npos)
      << primed.to_string();
  EXPECT_EQ(shard.server->shard_plans(), 0u);
  EXPECT_EQ(shard.server->shard_plan_bytes(), 0u);

  // The well-formed payload is accepted on the same server.
  ASSERT_TRUE(prime_shard(shard.port, sample_shard_plan(p, 2)).is_ok());
  EXPECT_EQ(shard.server->shard_plans(), 1u);
  shard.stop();
}

// Gated big-n run (64 MiB of element data — above the default 64 MiB
// frame cap, so every layer's payload ceiling must be raised): set
// HMM_DISTRIBUTED_BIG=1 to run, e.g. in the Release CI job.
TEST(DistributedRouter, BigPermuteAboveSingleFrameCap) {
  if (std::getenv("HMM_DISTRIBUTED_BIG") == nullptr) {
    GTEST_SKIP() << "set HMM_DISTRIBUTED_BIG=1 to run the 2^24 distributed check";
  }
  const std::uint64_t n = 1ull << 24;
  const std::uint32_t big_payload = 80u << 20;

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> ptrs;
  for (int i = 0; i < 4; ++i) {
    shards.push_back(std::make_unique<Shard>());
    // Generous budgets: the one 2^24 compile (run_distributed's, the
    // router's offline phase) dwarfs the exchange itself.
    shards.back()->start(/*exchange_timeout=*/600'000ms, big_payload);
    ptrs.push_back(shards.back().get());
  }

  const perm::Permutation p = perm::by_name("random", n, 3);
  std::vector<std::uint32_t> in(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 0x9e3779b9u);
  p.apply<std::uint32_t>({in.data(), n}, {expect.data(), n});

  auto out = run_distributed(ptrs, p, {in.data(), n}, nullptr, big_payload, 600'000ms);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value() == expect, true) << "2^24 distributed result diverged from oracle";
  for (auto& s : shards) s->stop();
}

}  // namespace
}  // namespace hmm
