/// Tests for the distributed permutation subsystem: band geometry
/// (`runtime::BandPlan`), the O(n) pack/merge compile
/// (`runtime::BandExchange`), the shard session's receive side, the
/// SHARD_EXEC / SHARD_XCHG / SHARD_PLAN wire codecs, and the full
/// networked path — `net::DistributedPermuter` fanning row bands out to
/// real in-process `net::Server` shards that exchange one block per
/// peer, and the router's `--distributed-max-bytes` path on top of it.
///
/// Ground truth everywhere is `perm::Permutation::apply` (the serial
/// oracle): a distributed result must be bit-identical to single-node,
/// for uint32 data and for float/double carried as 32-bit words, at
/// every shard count from 1 to 8, simulated in process and over
/// loopback. Failure discipline is tested too: a shard that is dead at
/// fan-out fails the whole request typed (kUnavailable) and every
/// surviving shard releases its pooled buffers (verified via pool-stats
/// deltas); a shard that refuses its session fails the request typed
/// within milliseconds, not after the exchange timeout. The router
/// compiles each distributed plan once and primes every shard with only
/// its band's tables (SHARD_PLAN), once per backend link; it re-primes
/// only a restarted shard or a dropped band.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/layout.hpp"
#include "cpu/kernels.hpp"
#include "net/client.hpp"
#include "net/distributed.hpp"
#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/distributed.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using runtime::BandExchange;
using runtime::BandPlan;
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

  // Row bands tile [0, rows) contiguously, and so do their elements.
  std::uint64_t next_row = 0, total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(bp.row_band(s).begin, next_row);
    EXPECT_GE(bp.row_band(s).rows(), 1u);
    next_row = bp.row_band(s).end;
    EXPECT_EQ(bp.band_offset(s), total);
    total += bp.band_elements(s);
  }
  EXPECT_EQ(next_row, 64u);
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

TEST(BandPlan, RejectsInfeasibleSplits) {
  EXPECT_FALSE(BandPlan::build(64, 64, 0).ok());
  EXPECT_FALSE(BandPlan::build(64, 64, 65).ok());  // > kMaxShards
  EXPECT_FALSE(BandPlan::build(4, 64, 8).ok());    // shards > rows
  EXPECT_TRUE(BandPlan::build(4, 64, 4).ok());
}

// ------------------------------------------------------- shard session

TEST(ShardSession, RejectsHostileBlocks) {
  // Shard 1 of 3 over a random plan expects one block from shard 0 and
  // one from shard 2, each exactly as long as its recv entry.
  const perm::Permutation p = perm::by_name("random", 1 << 12, 5);
  auto bands = BandPlan::build(64, 64, 3);
  ASSERT_TRUE(bands.ok());
  auto compiled = BandExchange::compile(p, bands.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const auto band = std::make_shared<const BandExchange>(std::move(compiled.value()[1]));
  ASSERT_GT(band->recv()[0], 1u);
  ASSERT_GT(band->recv()[2], 0u);
  net::ShardSession session(
      band, util::BufferPool::global().try_acquire(band->elements() * sizeof(std::uint32_t)));

  const auto expect_reject = [](const Status& st, const char* reason) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
    EXPECT_NE(st.message().find(reason), std::string::npos) << st.to_string();
  };
  const std::vector<std::uint32_t> from0(band->recv()[0], 0xa0u);
  const std::vector<std::uint32_t> from2(band->recv()[2], 0xa2u);
  expect_reject(session.accept_block(3, from0), "source shard out of range");
  expect_reject(session.accept_block(1, from0), "own block never crosses the wire");
  expect_reject(session.accept_block(0, std::span(from0).first(from0.size() - 1)),
                "block length is not the plan's length");
  ASSERT_TRUE(session.accept_block(0, from0).is_ok());
  expect_reject(session.accept_block(0, from0), "duplicate block from this source");

  // Shard 2's block is still missing: the wait times out transient.
  EXPECT_EQ(session.wait_blocks(std::chrono::steady_clock::now() + 10ms).code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(session.accept_block(2, from2).is_ok());
  ASSERT_TRUE(session.wait_blocks(std::chrono::steady_clock::now() + 10ms).is_ok());
  // Each block landed in its source's slot of the receive buffer.
  const std::span<std::uint32_t> recv = session.recv_span();
  EXPECT_EQ(recv[band->recv_offset(0)], 0xa0u);
  EXPECT_EQ(recv[band->recv_offset(0) + from0.size() - 1], 0xa0u);
  EXPECT_EQ(recv[band->recv_offset(2)], 0xa2u);
  EXPECT_EQ(recv[band->recv_offset(2) + from2.size() - 1], 0xa2u);
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
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
    }
    auto v = net::ShardExecRequestView::decode(bytes, 1 << 20);
    EXPECT_FALSE(v.ok()) << what << " (view)";
  };

  // Truncations at every structural boundary.
  expect_reject({}, "empty");
  expect_reject({good.begin(), good.begin() + 20}, "truncated header");
  expect_reject({good.begin(), good.begin() + 60}, "truncated peer table");
  expect_reject({good.begin(), good.end() - 4}, "truncated band");

  // Field tampering (offsets fixed by the layout).
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
  req.src_shard = 5;
  req.block = {1u, 2u, 3u, 0xffffffffu};
  const std::vector<std::uint8_t> good = req.encode();
  ASSERT_EQ(good.size(), 24u + 16u) << "the block starts on an 8-byte offset";

  auto owned = net::ShardXchgRequest::decode(good, 1 << 20);
  ASSERT_TRUE(owned.ok()) << owned.status().to_string();
  EXPECT_EQ(owned.value().session_id, req.session_id);
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
  std::vector<std::uint8_t> out_of_range = good;
  out_of_range[12] = 64;  // src_shard >= the wire's shard bound
  EXPECT_FALSE(net::ShardXchgRequest::decode(out_of_range, 1 << 20).ok());
  EXPECT_FALSE(net::ShardXchgRequest::decode(good, 3).ok()) << "block over element cap";

  // An empty block is legal (every peer gets one), with nothing after
  // its header.
  net::ShardXchgRequest empty = req;
  empty.block.clear();
  std::vector<std::uint8_t> empty_bytes = empty.encode();
  ASSERT_EQ(empty_bytes.size(), 24u);
  auto empty_owned = net::ShardXchgRequest::decode(empty_bytes, 1 << 20);
  ASSERT_TRUE(empty_owned.ok()) << empty_owned.status().to_string();
  EXPECT_TRUE(empty_owned.value().block.empty());
  auto empty_view = net::ShardXchgRequestView::decode(empty_bytes, 1 << 20);
  ASSERT_TRUE(empty_view.ok()) << empty_view.status().to_string();
  EXPECT_EQ(empty_view.value().block.count, 0u);
  empty_bytes.push_back(0);
  EXPECT_FALSE(net::ShardXchgRequestView::decode(empty_bytes, 1 << 20).ok());
}

/// SHARD_PLAN payload of band `shard` of 3 of a 2^12 plan (64 x 64):
/// rows 22 / 21 / 21, so band 1 holds 1344 elements.
std::vector<std::uint8_t> sample_shard_plan(const perm::Permutation& p, std::uint32_t shard) {
  auto payloads = net::DistributedPermuter::compile(
      p, runtime::fingerprint_permutation(p).value, /*width=*/32, /*shards=*/3);
  EXPECT_TRUE(payloads.ok()) << payloads.status().to_string();
  return std::move(payloads.value()[shard]);
}

TEST(ShardCodec, PlanRoundTrips) {
  const perm::Permutation p = perm::by_name("random", 1 << 12, 13);
  auto bands = BandPlan::build(64, 64, 3);
  ASSERT_TRUE(bands.ok());
  auto compiled = BandExchange::compile(p, bands.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  for (std::uint32_t s = 0; s < 3; ++s) {
    const BandExchange& want = compiled.value()[s];
    const std::vector<std::uint8_t> bytes =
        net::ShardPlanRequest{0xabcdef0123456789ull, want}.encode();
    // 32-byte header, two u64 lengths per shard, 8 bytes per element.
    EXPECT_EQ(bytes.size(), 32 + 16 * 3 + 8 * bands.value().band_elements(s));
    // The router's compile encodes the same band (past the plan id).
    const std::vector<std::uint8_t> routed = sample_shard_plan(p, s);
    EXPECT_TRUE(std::ranges::equal(std::span(bytes).subspan(8), std::span(routed).subspan(8)));

    auto got = net::ShardPlanRequest::decode(bytes);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value().plan_id, 0xabcdef0123456789ull);
    const BandExchange& band = got.value().band;
    EXPECT_EQ(band.shard(), s);
    EXPECT_EQ(band.bands().shards(), 3u);
    EXPECT_EQ(band.bands().rows(), 64u);
    EXPECT_EQ(band.bands().cols(), 64u);
    EXPECT_EQ(band.table_bytes(), 8 * bands.value().band_elements(s));
    EXPECT_TRUE(std::ranges::equal(band.send(), want.send()));
    EXPECT_TRUE(std::ranges::equal(band.recv(), want.recv()));
    EXPECT_TRUE(std::ranges::equal(band.pack(), want.pack()));
    EXPECT_TRUE(std::ranges::equal(band.merge(), want.merge()));
  }
}

TEST(ShardCodec, PlanRejectsHostileInputs) {
  const perm::Permutation p = perm::by_name("random", 1 << 12, 13);
  const std::vector<std::uint8_t> good = sample_shard_plan(p, 1);
  ASSERT_TRUE(net::ShardPlanRequest::decode(good).ok());
  // Layout of band 1 of 3: header [0, 32), send [32, 56), recv [56, 80),
  // pack [80, 80 + 4 * 1344), merge after it.
  constexpr std::size_t kSend = 32, kRecv = 56, kPack = 80, kMerge = 80 + 4 * 1344;
  ASSERT_EQ(good.size(), kMerge + 4 * 1344);

  // Each hostile input fails typed, with its own reason.
  std::vector<std::string> reasons;
  const auto expect_reject = [&](const std::vector<std::uint8_t>& bytes, const char* what,
                                 const char* reason) {
    auto r = net::ShardPlanRequest::decode(bytes);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(r.status().message().find(reason), std::string::npos)
        << what << ": " << r.status().to_string();
    reasons.push_back(r.status().message());
  };
  const auto u64_at = [&](std::size_t offset) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{good[offset + i]} << (8 * i);
    return v;
  };
  const auto put_u32 = [](std::vector<std::uint8_t>& bytes, std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  const auto put_u64 = [](std::vector<std::uint8_t>& bytes, std::size_t offset, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  const auto with_u32 = [&](std::size_t offset, std::uint32_t v) {
    std::vector<std::uint8_t> bad = good;
    put_u32(bad, offset, v);
    return bad;
  };
  const auto with_u64 = [&](std::size_t offset, std::uint64_t v) {
    std::vector<std::uint8_t> bad = good;
    put_u64(bad, offset, v);
    return bad;
  };
  // Entry k of the table at `table` repeats entry 0.
  const auto repeat_first = [&](std::size_t table) {
    std::vector<std::uint8_t> bad = good;
    std::copy_n(bad.begin() + table, 4, bad.begin() + table + 4 * 1343);
    return bad;
  };

  expect_reject({good.begin(), good.begin() + 20}, "truncated frame", "truncated header");
  expect_reject(with_u32(12, 0), "zero shards", "shard count out of range");
  expect_reject(with_u32(8, 3), "shard_index >= shard_count", "shard index out of range");
  {
    std::vector<std::uint8_t> bad = with_u64(16, 1ull << 17);
    put_u64(bad, 24, 1ull << 17);
    expect_reject(bad, "rows * cols past 2^32", "32-bit element index");
  }
  expect_reject(with_u64(16, 2), "three shards over two rows", "more shards");
  expect_reject({good.begin(), good.begin() + kRecv + 4}, "truncated counts",
                "truncated block lengths");
  expect_reject({good.begin(), good.end() - 4}, "tables short by one entry",
                "table bytes do not match");
  expect_reject(with_u64(kSend, u64_at(kSend) + 1), "send lengths off by one",
                "send lengths do not sum");
  expect_reject(with_u64(kRecv, u64_at(kRecv) + 1), "recv lengths off by one",
                "receive lengths do not sum");
  {
    // send still sums to the band, but the self block moved to shard 0.
    std::vector<std::uint8_t> bad = with_u64(kSend, u64_at(kSend) + 1);
    put_u64(bad, kSend + 8, u64_at(kSend + 8) - 1);
    expect_reject(bad, "self block differs", "self block");
  }
  expect_reject(repeat_first(kPack), "pack with a repeated entry",
                "pack table is not a permutation");
  expect_reject(repeat_first(kMerge), "merge with a repeated entry",
                "merge table is not a permutation");
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
  static std::atomic<std::uint64_t> next_session{0x5e55'0000};
  auto result = net::DistributedPermuter::execute(
      config, next_session++, plan_id, /*deadline_ms=*/0, shape.rows, shape.cols,
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

/// `shards` live in-process shards.
struct Fleet {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> ptrs;

  explicit Fleet(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      shards.push_back(std::make_unique<Shard>());
      shards.back()->start();
      ptrs.push_back(shards.back().get());
    }
  }
  ~Fleet() {
    for (auto& s : shards) s->stop();
  }
};

// ----------------------------------------------------- the one oracle

/// One oracle case: a permutation of a 32-bit word array, its input,
/// and the serial oracle's output. Wider elements ride as words: the
/// word map P_w(w i + k) = w P(i) + k moves each element's words
/// together, so permuting the words permutes the elements.
struct OracleCase {
  std::string name;
  perm::Permutation p;
  std::vector<std::uint32_t> in;
  std::vector<std::uint32_t> expect;
};

template <class T>
std::vector<std::uint32_t> as_words(const std::vector<T>& v) {
  std::vector<std::uint32_t> words(v.size() * sizeof(T) / sizeof(std::uint32_t));
  std::memcpy(words.data(), v.data(), v.size() * sizeof(T));
  return words;
}

template <class T>
OracleCase make_case(std::string name, const perm::Permutation& p) {
  const std::uint64_t n = p.size();
  std::vector<T> a(n), b(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      a[i] = static_cast<std::uint32_t>(i * 0x9e3779b9u);
    } else {
      a[i] = static_cast<T>(0.5) + static_cast<T>(i) / static_cast<T>(3);
    }
  }
  p.apply<T>(a, b);
  constexpr std::uint64_t w = sizeof(T) / sizeof(std::uint32_t);
  util::aligned_vector<std::uint32_t> words(n * w);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t k = 0; k < w; ++k) {
      words[w * i + k] = static_cast<std::uint32_t>(w * p(i) + k);
    }
  }
  return OracleCase{std::move(name), perm::Permutation(std::move(words)), as_words(a),
                    as_words(b)};
}

/// The row bands a coordinator splits `words` words into.
BandPlan word_bands(std::uint64_t words, std::uint32_t shards) {
  const core::MatrixShape shape = core::shape_for(words, 32);
  auto bands = BandPlan::build(shape.rows, shape.cols, shards);
  EXPECT_TRUE(bands.ok()) << bands.status().to_string();
  return std::move(bands).value();
}

/// Every family at n = 2^12 as uint32, float and double, plus the
/// inputs of the two oracle tests this one replaced.
std::vector<OracleCase> oracle_cases(std::uint32_t shards) {
  const std::uint64_t n = 1 << 12;
  std::vector<OracleCase> cases;
  const auto add_all_types = [&](const std::string& family,
                                 const std::function<perm::Permutation(std::uint64_t)>& of) {
    // `of(w)` is the element permutation whose elements are w words.
    cases.push_back(make_case<std::uint32_t>(family + "/u32", of(1)));
    cases.push_back(make_case<float>(family + "/float", of(1)));
    cases.push_back(make_case<double>(family + "/double", of(2)));
  };
  for (const char* family : {"random", "identical", "bit-reversal", "transpose"}) {
    add_all_types(family, [&](std::uint64_t) { return perm::by_name(family, n, 23); });
  }
  // Band shift: rotate by one band of the word split, so (for an even
  // split) every element of a band crosses the same link.
  add_all_types("band-shift", [&](std::uint64_t w) {
    return perm::rotation(n, word_bands(n * w, shards).band_elements(0) / w);
  });
  cases.push_back(make_case<std::uint32_t>("random-2^12-seed17/u32",
                                           perm::by_name("random", n, 17)));
  cases.push_back(make_case<std::uint32_t>("random-2^14-seed23/u32",
                                           perm::by_name("random", 1 << 14, 23)));
  return cases;
}

/// The exchange without sockets: compile, pack every band, route every
/// block to its destination's slot, merge.
std::vector<std::uint32_t> simulate(const OracleCase& c, std::uint32_t shards) {
  const BandPlan bands = word_bands(c.p.size(), shards);
  auto compiled = BandExchange::compile(c.p, bands);
  EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
  if (!compiled.ok()) return {};
  const std::vector<BandExchange>& ex = compiled.value();
  util::ThreadPool& pool = util::ThreadPool::global();

  std::vector<std::vector<std::uint32_t>> packed(shards), recv(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    packed[s].resize(ex[s].elements());
    recv[s].resize(ex[s].elements());
    cpu::gather<std::uint32_t>(
        pool, std::span(c.in).subspan(bands.band_offset(s), ex[s].elements()), packed[s],
        ex[s].pack());
  }
  for (std::uint32_t src = 0; src < shards; ++src) {
    for (std::uint32_t dst = 0; dst < shards; ++dst) {
      EXPECT_EQ(ex[src].send()[dst], ex[dst].recv()[src]) << c.name;
      std::copy_n(packed[src].begin() + ex[src].send_offset(dst), ex[src].send()[dst],
                  recv[dst].begin() + ex[dst].recv_offset(src));
    }
  }
  std::vector<std::uint32_t> out(c.in.size());
  for (std::uint32_t d = 0; d < shards; ++d) {
    cpu::gather<std::uint32_t>(pool, recv[d],
                               std::span(out).subspan(bands.band_offset(d), ex[d].elements()),
                               ex[d].merge());
  }
  return out;
}

/// Elements of each band that leave it — counted from p alone, not
/// from the compiled tables.
std::vector<std::uint64_t> elements_leaving(const perm::Permutation& p, const BandPlan& bands) {
  const auto band_of = [&](std::uint64_t i) {
    std::uint32_t s = 0;
    while (i >= bands.band_offset(s) + bands.band_elements(s)) ++s;
    return s;
  };
  std::vector<std::uint64_t> leaving(bands.shards(), 0);
  for (std::uint64_t i = 0; i < p.size(); ++i) {
    const std::uint32_t src = band_of(i);
    if (src != band_of(p(i))) ++leaving[src];
  }
  return leaving;
}

class ShardCounts : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardCounts, LocalAndLoopbackMatchTheOracle) {
  const std::uint32_t shards = GetParam();
  Fleet fleet(shards);
  const std::vector<OracleCase> cases = oracle_cases(shards);
  std::vector<std::uint64_t> pushed(shards, 0);
  for (const OracleCase& c : cases) {
    EXPECT_EQ(simulate(c, shards), c.expect) << c.name << " simulated, " << shards << " shards";
    auto out = run_distributed(fleet.ptrs, c.p, c.in);
    ASSERT_TRUE(out.ok()) << c.name << ": " << out.status().to_string();
    EXPECT_EQ(out.value(), c.expect) << c.name << " over loopback, " << shards << " shards";

    const std::vector<std::uint64_t> leaving =
        elements_leaving(c.p, word_bands(c.p.size(), shards));
    for (std::uint32_t s = 0; s < shards; ++s) pushed[s] += leaving[s] * sizeof(std::uint32_t);
  }
  // One wire block from every peer per execution (its own block never
  // travels), and each element that changes band pushed once.
  for (std::uint32_t s = 0; s < shards; ++s) {
    const net::Server::Counters c = fleet.shards[s]->server->counters();
    EXPECT_EQ(c.shard_execs, cases.size());
    EXPECT_EQ(c.shard_aborts, 0u);
    EXPECT_EQ(c.shard_blocks, cases.size() * (shards - 1)) << "shard " << s;
    EXPECT_EQ(c.shard_xchg_bytes, pushed[s]) << "shard " << s;
  }
}

/// Every shard's tables, built the slow way: pack lists the band's
/// elements grouped by destination band and in destination order within
/// a group; merge names, for each destination, the next unread slot of
/// its source's block in the receive buffer (the blocks in source order).
TEST_P(ShardCounts, CompiledTablesMatchTheReferenceLayout) {
  const std::uint32_t shards = GetParam();
  for (const OracleCase& c : oracle_cases(shards)) {
    const BandPlan bands = word_bands(c.p.size(), shards);
    auto compiled = BandExchange::compile(c.p, bands);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    const perm::Permutation pinv = c.p.inverse();
    const auto band_of = [&](std::uint64_t i) {
      std::uint32_t s = 0;
      while (i >= bands.band_offset(s) + bands.band_elements(s)) ++s;
      return s;
    };
    std::vector<std::vector<std::uint32_t>> pack(shards), merge(shards);
    std::vector<std::vector<std::uint64_t>> recv(shards, std::vector<std::uint64_t>(shards, 0));
    for (std::uint64_t j = 0; j < c.p.size(); ++j) ++recv[band_of(j)][band_of(pinv(j))];
    for (std::uint32_t d = 0; d < shards; ++d) {
      std::vector<std::uint64_t> next(shards, 0);
      for (std::uint32_t s = 1; s < shards; ++s) next[s] = next[s - 1] + recv[d][s - 1];
      for (std::uint64_t j = bands.band_offset(d); j < bands.band_offset(d) + bands.band_elements(d);
           ++j) {
        const std::uint32_t s = band_of(pinv(j));
        pack[s].push_back(static_cast<std::uint32_t>(pinv(j) - bands.band_offset(s)));
        merge[d].push_back(static_cast<std::uint32_t>(next[s]++));
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      const BandExchange& x = compiled.value()[s];
      EXPECT_TRUE(std::equal(x.pack().begin(), x.pack().end(), pack[s].begin(), pack[s].end()))
          << c.name << " shard " << s;
      EXPECT_TRUE(std::equal(x.merge().begin(), x.merge().end(), merge[s].begin(),
                             merge[s].end()))
          << c.name << " shard " << s;
      for (std::uint32_t d = 0; d < shards; ++d) {
        EXPECT_EQ(x.recv()[d], recv[s][d]) << c.name;
        EXPECT_EQ(x.send()[d], recv[d][s]) << c.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DistributedOracle, ShardCounts, ::testing::Range(1u, 9u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& shard_count) {
                           return std::string("s").append(std::to_string(shard_count.param));
                         });

// ------------------------------------------------------- end-to-end wire

TEST(DistributedWire, FloatAndDoubleRideAsWordsBitIdentical) {
  for (const OracleCase& c :
       {make_case<float>("shuffle/float", perm::by_name("shuffle", 1 << 12, 7)),
        make_case<double>("random/double", perm::by_name("random", 1 << 12, 9))}) {
    for (const std::size_t shards : {3u, 4u}) {
      Fleet fleet(shards);
      auto out = run_distributed(fleet.ptrs, c.p, c.in);
      ASSERT_TRUE(out.ok()) << c.name << ": " << out.status().to_string();
      EXPECT_EQ(std::memcmp(out.value().data(), c.expect.data(), c.expect.size() * 4), 0)
          << c.name << ", " << shards << " shards";
    }
  }
}

TEST(DistributedWire, PeerTrafficIsOneCrossingPerMovedElement) {
  // Three shards over 128 x 128 (bands of 43 / 43 / 42 rows). Identity
  // keeps every element home; random moves about (s-1)/s of each band,
  // once — the two-round exchange moved 2(s-1)/s.
  const std::uint64_t n = 1 << 14;
  Fleet fleet(3);
  const BandPlan bands = word_bands(n, 3);
  const OracleCase identical = make_case<std::uint32_t>("identical", perm::identical(n));
  auto out = run_distributed(fleet.ptrs, identical.p, identical.in);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value(), identical.expect);
  for (auto& s : fleet.shards) {
    EXPECT_EQ(s->server->counters().shard_xchg_bytes, 0u) << "identity pushes nothing";
    EXPECT_EQ(s->server->counters().shard_blocks, 2u) << "one empty block from each peer";
  }

  const OracleCase random = make_case<std::uint32_t>("random", perm::by_name("random", n, 29));
  out = run_distributed(fleet.ptrs, random.p, random.in);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value(), random.expect);
  const std::vector<std::uint64_t> leaving = elements_leaving(random.p, bands);
  for (std::uint32_t s = 0; s < 3; ++s) {
    const std::uint64_t band_bytes = bands.band_elements(s) * sizeof(std::uint32_t);
    const std::uint64_t bytes = fleet.shards[s]->server->counters().shard_xchg_bytes;
    EXPECT_EQ(bytes, leaving[s] * sizeof(std::uint32_t)) << "shard " << s;
    EXPECT_GT(bytes, band_bytes / 2) << "shard " << s;
    EXPECT_LT(bytes, band_bytes * 3 / 4) << "shard " << s;
    const std::string value = std::to_string(bytes);
    EXPECT_NE(fleet.shards[s]->server->to_prometheus().find(
                  "hmm_server_shard_xchg_bytes_total " + value + "\n"),
              std::string::npos);
    net::Client::Config cc;
    cc.host = "127.0.0.1";
    cc.port = fleet.shards[s]->port;
    net::Client direct(cc);
    auto stats = direct.stats_json();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_NE(stats.value().find("\"shard_xchg_bytes\":" + value + ","), std::string::npos)
        << stats.value();
  }
}

TEST(DistributedWire, RevisionOneShardExecIsRefusedTyped) {
  std::vector<std::uint8_t> v1 = sample_exec().encode();
  v1[0] = 1;
  auto decoded = net::ShardExecRequestView::decode(v1, 1 << 20);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unsupported shard protocol version"),
            std::string::npos)
      << decoded.status().to_string();

  // A shard answers it at once with the typed refusal, so a mixed fleet
  // fails cleanly instead of waiting out an exchange.
  Shard shard;
  shard.start();
  auto conn = net::tcp_connect("127.0.0.1", shard.port, 1'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream stream = std::move(conn).value();
  ASSERT_TRUE(stream.set_io_timeout(5'000ms, 5'000ms).is_ok());
  net::Frame frame;
  frame.kind = static_cast<std::uint16_t>(net::MsgKind::kShardExec);
  frame.request_id = 11;
  frame.payload = v1;
  ASSERT_TRUE(net::write_frame(stream, frame).is_ok());
  auto answer = net::read_frame(stream, net::kDefaultMaxPayload);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  ASSERT_EQ(static_cast<net::MsgKind>(answer.value().kind), net::MsgKind::kError);
  auto err = net::ErrorResponse::decode(answer.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(err.value().to_status().message().find("unsupported shard protocol version"),
            std::string::npos);
  shard.stop();
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
  const std::uint64_t n = 1 << 14;  // 128 x 128: every band's tables are 8 B per element
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
    EXPECT_EQ(shard.server->shard_plan_bytes(), 8 * bands.value().band_elements(s));
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
  // The last merge entry repeats the first (band 2 holds 21 x 64).
  const std::size_t merge = payload.size() - 4 * 21 * 64;
  std::copy_n(payload.begin() + merge, 4, payload.end() - 4);

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
    // Generous budgets for slow hosts and sanitizer builds.
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
