/// Tests for the distributed permutation subsystem: band geometry
/// (`runtime::BandPlan`), the O(n) pack/merge compile
/// (`runtime::BandExchange`), the shard session's receive side, the
/// SHARD_EXEC / SHARD_XCHG / SHARD_PLAN wire codecs, and the full
/// networked path — `net::DistributedPermuter` fanning bands out to
/// real in-process `net::Server` shards that exchange one block per
/// peer, and the router's `--distributed-max-bytes` path on top of it.
///
/// Ground truth everywhere is `perm::Permutation::apply` (the serial
/// oracle): a distributed result must be bit-identical to single-node,
/// for uint32 data and for float/double carried as 32-bit words, at
/// every shard count from 1 to 8, simulated in process and over
/// loopback, at powers of two and at n that is not one. Failure
/// discipline is tested too: a shard that is dead at fan-out fails the
/// whole request typed (kUnavailable) and every surviving shard
/// releases its pooled buffers (verified via pool-stats deltas); a
/// shard that refuses its session fails the request typed within
/// milliseconds, not after the exchange timeout. The router
/// compiles each distributed plan once and primes every shard with only
/// its band's tables (SHARD_PLAN), once per backend link; it re-primes
/// only a restarted shard or a dropped band.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
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
#include "net_payload.hpp"
#include "net_relay.hpp"
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
  auto plan = BandPlan::build(64 * 128, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const BandPlan& bp = plan.value();
  EXPECT_EQ(bp.elements(), 64u * 128u);
  EXPECT_EQ(bp.shards(), 4u);

  // Bands tile [0, n) contiguously, in shard order.
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(bp.band_offset(s), total);
    EXPECT_EQ(bp.band_elements(s), 64u * 128u / 4);
    total += bp.band_elements(s);
  }
  EXPECT_EQ(total, 64u * 128u);
}

TEST(BandPlan, UnevenSplitBalancesWithinOneElement) {
  // 10007 = 5 * 2001 + 2: the first two bands take the extra elements.
  auto plan = BandPlan::build(10007, 5);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const BandPlan& bp = plan.value();
  const std::uint64_t want[] = {2002, 2002, 2001, 2001, 2001};
  std::uint64_t covered = 0;
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_EQ(bp.band_offset(s), covered) << "band " << s;
    EXPECT_EQ(bp.band_elements(s), want[s]) << "band " << s;
    covered += bp.band_elements(s);
  }
  EXPECT_EQ(covered, 10007u);

  // One element per shard is the finest split.
  auto finest = BandPlan::build(8, 8);
  ASSERT_TRUE(finest.ok()) << finest.status().to_string();
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(finest.value().band_offset(s), s);
    EXPECT_EQ(finest.value().band_elements(s), 1u);
  }
}

TEST(BandPlan, RejectsInfeasibleSplits) {
  const auto expect_reject = [](std::uint64_t n, std::uint32_t shards, const char* reason) {
    auto plan = BandPlan::build(n, shards);
    ASSERT_FALSE(plan.ok()) << n << " over " << shards;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find(reason), std::string::npos)
        << plan.status().to_string();
  };
  expect_reject(4096, 0, "shard count must be in");
  expect_reject(4096, 65, "shard count must be in");  // > kMaxShards
  expect_reject(7, 8, "more shards");                 // shards > n
  expect_reject(0, 1, "more shards");
  EXPECT_TRUE(BandPlan::build(8, 8).ok());
}

// ------------------------------------------------------- shard session

TEST(ShardSession, RejectsHostileBlocks) {
  // Shard 1 of 3 over a random plan expects one block from shard 0 and
  // one from shard 2, each exactly as long as its recv entry.
  const perm::Permutation p = perm::by_name("random", 1 << 12, 5);
  auto bands = BandPlan::build(1 << 12, 3);
  ASSERT_TRUE(bands.ok());
  auto compiled = BandExchange::compile(p, bands.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const auto band = std::make_shared<const BandExchange>(std::move(compiled.value()[1]));
  ASSERT_GT(band->recv()[0], 1u);
  ASSERT_GT(band->recv()[2], 0u);
  int ready = 0;
  const net::ShardSession::Hooks hooks{
      [&ready](const std::shared_ptr<net::ShardSession>&) { ++ready; },
      [](net::Reactor::Reply, const Status&) {}};
  const auto session = std::make_shared<net::ShardSession>(
      1, band, util::BufferPool::global().try_acquire(band->elements() * sizeof(std::uint32_t)),
      std::chrono::steady_clock::now() + 10s, hooks);
  const auto words = [](std::span<const std::uint32_t> w) {
    return net::WordsView{w.size(), {reinterpret_cast<const std::uint8_t*>(w.data()),
                                     w.size_bytes()}};
  };

  const auto expect_reject = [](const Status& st, const char* reason) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
    EXPECT_NE(st.message().find(reason), std::string::npos) << st.to_string();
  };
  const std::vector<std::uint32_t> from0(band->recv()[0], 0xa0u);
  const std::vector<std::uint32_t> from2(band->recv()[2], 0xa2u);
  expect_reject(session->accept_block(3, words(from0)), "source shard out of range");
  expect_reject(session->accept_block(1, words(from0)), "own block never crosses the wire");
  expect_reject(session->accept_block(0, words(std::span(from0).first(from0.size() - 1))),
                "block length is not the plan's length");
  ASSERT_TRUE(session->accept_block(0, words(from0)).is_ok());
  expect_reject(session->accept_block(0, words(from0)), "duplicate block from this source");

  // The exec's side is in, shard 2's block is still missing: no merge.
  session->leave(net::Reactor::Reply{});
  EXPECT_EQ(ready, 0);
  ASSERT_TRUE(session->accept_block(2, words(from2)).is_ok());
  EXPECT_EQ(ready, 1) << "the last arrival queues the merge, once";
  session->abort(Status(StatusCode::kUnavailable, "too late"));  // merging: not failed
  // Each block landed in its source's slot of the receive buffer.
  const std::span<std::uint32_t> recv = session->recv_span();
  EXPECT_EQ(recv[band->recv_offset(0)], 0xa0u);
  EXPECT_EQ(recv[band->recv_offset(0) + from0.size() - 1], 0xa0u);
  EXPECT_EQ(recv[band->recv_offset(2)], 0xa2u);
  EXPECT_EQ(recv[band->recv_offset(2) + from2.size() - 1], 0xa2u);
}

// --------------------------------------------------------------- codecs

/// A SHARD_EXEC: its header, its band, and its payload.
struct SampleExec {
  net::ShardExecHeader header;
  std::vector<std::uint32_t> band;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    return test::payload_of(net::encode_shard_exec(header, band.size()), band);
  }
};

SampleExec sample_exec() {
  SampleExec req;
  req.header.session_id = 0x1122334455667788ull;
  req.header.plan_id = 0xdeadbeefcafef00dull;
  req.header.deadline_ms = 1500;
  req.header.shard_index = 1;
  req.header.n = 10007;
  req.header.peers = {{"127.0.0.1", 7001}, {"10.0.0.2", 7002}, {"shard-3.local", 7003}};
  req.band.resize(256);
  for (std::size_t i = 0; i < req.band.size(); ++i) {
    req.band[i] = static_cast<std::uint32_t>(i * 977u);
  }
  return req;
}

TEST(ShardCodec, ExecRoundTrips) {
  const SampleExec req = sample_exec();
  const std::vector<std::uint8_t> bytes = req.encode();

  auto view = net::ShardExecRequestView::decode(bytes, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().session_id, req.header.session_id);
  EXPECT_EQ(view.value().plan_id, req.header.plan_id);
  EXPECT_EQ(view.value().deadline_ms, req.header.deadline_ms);
  EXPECT_EQ(view.value().shard_index, req.header.shard_index);
  EXPECT_EQ(view.value().n, req.header.n);
  EXPECT_EQ(view.value().shard_count(), 3u);
  ASSERT_EQ(view.value().peers.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(view.value().peers[i].host, req.header.peers[i].host);
    EXPECT_EQ(view.value().peers[i].port, req.header.peers[i].port);
  }
  ASSERT_EQ(view.value().band.count, req.band.size());
  // The band lands on an 8-byte payload offset by construction, so the
  // borrowing decode can read it in place on little-endian hosts.
  std::vector<std::uint32_t> copied(view.value().band.count);
  view.value().band.copy_to(copied);
  EXPECT_EQ(copied, req.band);
}

TEST(ShardCodec, ExecRejectsHostileInputs) {
  const SampleExec req = sample_exec();
  const std::vector<std::uint8_t> good = req.encode();
  ASSERT_TRUE(net::ShardExecRequestView::decode(good, 1 << 20).ok());

  const auto expect_reject = [&](std::vector<std::uint8_t> bytes, const char* what,
                                 const char* reason = "") {
    auto r = net::ShardExecRequestView::decode(bytes, 1 << 20);
    EXPECT_FALSE(r.ok()) << what;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
      EXPECT_NE(r.status().message().find(reason), std::string::npos)
          << what << ": " << r.status().to_string();
    }
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

  // The element count n (u64 at offset 40): every band needs an
  // element, and band tables index it in 32 bits.
  const auto with_n = [&](std::uint64_t n) {
    std::vector<std::uint8_t> bad = good;
    for (int i = 0; i < 8; ++i) bad[40 + i] = static_cast<std::uint8_t>(n >> (8 * i));
    return bad;
  };
  ASSERT_TRUE(net::ShardExecRequestView::decode(with_n(3), 1 << 20).ok()) << "one per shard";
  ASSERT_TRUE(net::ShardExecRequestView::decode(with_n(1ull << 32), 1 << 20).ok());
  expect_reject(with_n(0), "zero n", "SHARD_EXEC: zero elements");
  expect_reject(with_n(2), "n below the shard count", "SHARD_EXEC: fewer elements than shards");
  expect_reject(with_n((1ull << 32) + 1), "n past 2^32",
                "SHARD_EXEC: element count exceeds the 32-bit element index");

  // Element-count cap: the same frame must be refused when the reader's
  // budget is below the band size.
  auto capped = net::ShardExecRequestView::decode(good, req.band.size() - 1);
  EXPECT_FALSE(capped.ok());

  // Band bytes must match the declared count exactly — no trailing junk.
  std::vector<std::uint8_t> oversized = good;
  oversized.insert(oversized.end(), {0, 0, 0, 0});
  EXPECT_FALSE(net::ShardExecRequestView::decode(oversized, 1 << 20).ok());
}

TEST(ShardCodec, XchgRoundTripsAndRejectsHostileInputs) {
  const net::ShardXchgHeader header{0xfeedface12345678ull, 5};
  const std::vector<std::uint32_t> block = {1u, 2u, 3u, 0xffffffffu};
  const std::vector<std::uint8_t> good =
      test::payload_of(net::encode_shard_xchg(header, block.size()), block);
  ASSERT_EQ(good.size(), 24u + 16u) << "the block starts on an 8-byte offset";

  auto view = net::ShardXchgRequestView::decode(good, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().session_id, header.session_id);
  EXPECT_EQ(view.value().src_shard, 5u);
  ASSERT_EQ(view.value().block.count, 4u);
  std::vector<std::uint32_t> copied(4);
  view.value().block.copy_to(copied);
  EXPECT_EQ(copied, block);

  EXPECT_FALSE(
      net::ShardXchgRequestView::decode({good.begin(), good.begin() + 10}, 1 << 20).ok());
  EXPECT_FALSE(net::ShardXchgRequestView::decode({good.begin(), good.end() - 2}, 1 << 20).ok());
  std::vector<std::uint8_t> out_of_range = good;
  out_of_range[12] = 64;  // src_shard >= the wire's shard bound
  EXPECT_FALSE(net::ShardXchgRequestView::decode(out_of_range, 1 << 20).ok());
  EXPECT_FALSE(net::ShardXchgRequestView::decode(good, 3).ok()) << "block over element cap";

  // An empty block is legal (every peer gets one), with nothing after
  // its header.
  std::vector<std::uint8_t> empty_bytes = test::payload_of(net::encode_shard_xchg(header, 0));
  ASSERT_EQ(empty_bytes.size(), 24u);
  auto empty_view = net::ShardXchgRequestView::decode(empty_bytes, 1 << 20);
  ASSERT_TRUE(empty_view.ok()) << empty_view.status().to_string();
  EXPECT_EQ(empty_view.value().session_id, header.session_id);
  EXPECT_EQ(empty_view.value().block.count, 0u);
  empty_bytes.push_back(0);
  EXPECT_FALSE(net::ShardXchgRequestView::decode(empty_bytes, 1 << 20).ok());
}

/// SHARD_PLAN payload of band `shard` of 3 of a 2^12 plan: bands of
/// 1366 / 1365 / 1365 elements.
std::vector<std::uint8_t> sample_shard_plan(const perm::Permutation& p, std::uint32_t shard) {
  auto payloads = net::DistributedPermuter::compile(
      p, runtime::fingerprint_permutation(p).value, /*shards=*/3);
  EXPECT_TRUE(payloads.ok()) << payloads.status().to_string();
  const auto& payload = payloads.value()[shard];
  return {payload.begin(), payload.end()};
}

TEST(ShardCodec, PlanRoundTrips) {
  const perm::Permutation p = perm::by_name("random", 1 << 12, 13);
  auto bands = BandPlan::build(1 << 12, 3);
  ASSERT_TRUE(bands.ok());
  auto compiled = BandExchange::compile(p, bands.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  for (std::uint32_t s = 0; s < 3; ++s) {
    const BandExchange& want = compiled.value()[s];
    const std::vector<std::uint8_t> bytes =
        test::shard_plan_payload(0xabcdef0123456789ull, want);
    // 24-byte header, two u64 lengths per shard, 8 bytes per element.
    EXPECT_EQ(bytes.size(), 24 + 16 * 3 + 8 * bands.value().band_elements(s));
    // The router's compile encodes the same band (past the plan id).
    const std::vector<std::uint8_t> routed = sample_shard_plan(p, s);
    EXPECT_TRUE(std::ranges::equal(std::span(bytes).subspan(8), std::span(routed).subspan(8)));

    auto got = net::ShardPlanRequest::decode(bytes);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value().plan_id, 0xabcdef0123456789ull);
    const BandExchange& band = got.value().band;
    EXPECT_EQ(band.shard(), s);
    EXPECT_EQ(band.bands().shards(), 3u);
    EXPECT_EQ(band.bands().elements(), 1u << 12);
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
  // Layout of band 1 of 3: header [0, 24) with n at 16, send [24, 48),
  // recv [48, 72), pack [72, 72 + 4 * 1365), merge after it.
  constexpr std::size_t kBand = 1365;
  constexpr std::size_t kSend = 24, kRecv = 48, kPack = 72, kMerge = 72 + 4 * kBand;
  ASSERT_EQ(good.size(), kMerge + 4 * kBand);

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
    std::copy_n(bad.begin() + table, 4, bad.begin() + table + 4 * (kBand - 1));
    return bad;
  };

  expect_reject({good.begin(), good.begin() + 20}, "truncated frame", "truncated header");
  expect_reject(with_u32(12, 0), "zero shards", "shard count out of range");
  expect_reject(with_u32(8, 3), "shard_index >= shard_count", "shard index out of range");
  expect_reject(with_u64(16, 0), "zero n", "zero elements");
  expect_reject(with_u64(16, 2), "three shards over two elements",
                "fewer elements than shards");
  expect_reject(with_u64(16, (1ull << 32) + 1), "n past 2^32", "32-bit element index");
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
             std::uint16_t fixed_port = 0, std::uint32_t max_plans = 4096,
             std::uint32_t handler_threads = 0) {
    service = std::make_unique<runtime::RobustPermuteService>(
        util::ThreadPool::global(), runtime::RobustPermuteService::Config{});
    net::Server::Config config;
    config.port = fixed_port;
    config.max_plans = max_plans;
    config.poll_interval = 10ms;
    config.shard_exchange_timeout = exchange_timeout;
    config.max_payload_bytes = max_payload;
    config.handler_threads = handler_threads;
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
  const std::uint64_t plan_id = runtime::fingerprint_permutation(p).value;

  std::vector<net::ShardTarget> targets;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    targets.push_back(net::ShardTarget{"127.0.0.1", shards[i]->port, i});
  }

  auto bands =
      net::DistributedPermuter::compile(p, plan_id, static_cast<std::uint32_t>(shards.size()));
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
      config, next_session++, plan_id, /*deadline_ms=*/0, p.size(), 1,
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

/// The bands a coordinator splits `words` words into.
BandPlan word_bands(std::uint64_t words, std::uint32_t shards) {
  auto bands = BandPlan::build(words, shards);
  EXPECT_TRUE(bands.ok()) << bands.status().to_string();
  return std::move(bands).value();
}

/// Every family at n = 2^12 as uint32, float and double, random at two
/// n that are not powers of two, plus the inputs of the two oracle
/// tests this one replaced.
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
  for (const std::uint64_t odd_n : {10007ull, 3ull * (1 << 12) + 7}) {
    const perm::Permutation p = perm::by_name("random", odd_n, 37);
    const std::string name = "random-" + std::to_string(odd_n);
    cases.push_back(make_case<std::uint32_t>(name + "/u32", p));
    cases.push_back(make_case<double>(name + "/double", p));
  }
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
std::vector<BandExchange> reference_exchange(const perm::Permutation& p,
                                             const BandPlan& bands) {
  const std::uint32_t shards = bands.shards();
  const perm::Permutation pinv = p.inverse();
  const auto band_of = [&](std::uint64_t i) {
    std::uint32_t s = 0;
    while (i >= bands.band_offset(s) + bands.band_elements(s)) ++s;
    return s;
  };
  std::vector<BandExchange::Table> pack(shards), merge(shards);
  std::vector<BandExchange::Counts> recv(shards, BandExchange::Counts(shards, 0));
  for (std::uint64_t j = 0; j < p.size(); ++j) ++recv[band_of(j)][band_of(pinv(j))];
  for (std::uint32_t d = 0; d < shards; ++d) {
    std::vector<std::uint64_t> next(shards, 0);
    for (std::uint32_t s = 1; s < shards; ++s) next[s] = next[s - 1] + recv[d][s - 1];
    const std::uint64_t end = bands.band_offset(d) + bands.band_elements(d);
    for (std::uint64_t j = bands.band_offset(d); j < end; ++j) {
      const std::uint32_t s = band_of(pinv(j));
      pack[s].push_back(static_cast<std::uint32_t>(pinv(j) - bands.band_offset(s)));
      merge[d].push_back(static_cast<std::uint32_t>(next[s]++));
    }
  }
  std::vector<BandExchange> reference;
  for (std::uint32_t s = 0; s < shards; ++s) {
    BandExchange::Counts send(shards);
    for (std::uint32_t d = 0; d < shards; ++d) send[d] = recv[d][s];
    auto band = BandExchange::from_tables(bands, s, std::move(send), recv[s],
                                          std::move(pack[s]), std::move(merge[s]));
    EXPECT_TRUE(band.ok()) << band.status().to_string();
    if (band.ok()) reference.push_back(std::move(band).value());
  }
  return reference;
}

TEST_P(ShardCounts, CompiledTablesMatchTheReferenceLayout) {
  const std::uint32_t shards = GetParam();
  std::vector<std::pair<std::string, perm::Permutation>> cases;
  for (OracleCase& c : oracle_cases(shards)) cases.emplace_back(c.name, std::move(c.p));
  // Sizes where each of the compile's sub-chunks spans thousands of
  // elements: 2^20 + 7 splits unevenly (the compare chain), 3 * 2^18
  // evenly (the division).
  if (shards == 2 || shards == 3 || shards == 8) {
    for (const std::uint64_t n : {(std::uint64_t{1} << 20) + 7, std::uint64_t{3} << 18}) {
      cases.emplace_back("random-" + std::to_string(n), perm::by_name("random", n, 41));
    }
  }
  for (const auto& [name, p] : cases) {
    const BandPlan bands = word_bands(p.size(), shards);
    auto compiled = BandExchange::compile(p, bands);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    const std::vector<BandExchange> reference = reference_exchange(p, bands);
    ASSERT_EQ(reference.size(), shards) << name;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const BandExchange& x = compiled.value()[s];
      const BandExchange& want = reference[s];
      EXPECT_TRUE(std::ranges::equal(x.pack(), want.pack())) << name << " shard " << s;
      EXPECT_TRUE(std::ranges::equal(x.merge(), want.merge())) << name << " shard " << s;
      EXPECT_TRUE(std::ranges::equal(x.send(), want.send())) << name << " shard " << s;
      EXPECT_TRUE(std::ranges::equal(x.recv(), want.recv())) << name << " shard " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DistributedOracle, ShardCounts, ::testing::Range(1u, 9u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& shard_count) {
                           return std::string("s").append(std::to_string(shard_count.param));
                         });

// DistributedPermuter::compile writes each band's tables straight into
// its SHARD_PLAN payload: every payload is the encoder's header and the
// reference tables, byte for byte.
TEST(DistributedCompile, PayloadsEncodeTheReferenceTables) {
  for (const std::uint64_t n : {std::uint64_t{1} << 16, std::uint64_t{1} << 20}) {
    for (const std::uint32_t shards : {3u, 8u}) {
      const BandPlan bands = word_bands(n, shards);
      for (const std::string family :
           {"random", "identical", "bit-reversal", "transpose", "band-shift"}) {
        const perm::Permutation p = family == "band-shift"
                                        ? perm::rotation(n, bands.band_elements(0))
                                        : perm::by_name(family, n, 43);
        const std::uint64_t id = runtime::fingerprint_permutation(p).value;
        auto payloads = net::DistributedPermuter::compile(p, id, shards);
        ASSERT_TRUE(payloads.ok()) << payloads.status().to_string();
        const std::vector<BandExchange> reference = reference_exchange(p, bands);
        ASSERT_EQ(payloads.value().size(), shards);
        ASSERT_EQ(reference.size(), shards);
        for (std::uint32_t s = 0; s < shards; ++s) {
          EXPECT_TRUE(std::ranges::equal(payloads.value()[s],
                                         test::shard_plan_payload(id, reference[s])))
              << family << " n=" << n << " shard " << s << " of " << shards;
        }
      }
    }
  }
}

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
  // Three shards over 2^14 elements (bands of 5462 / 5461 / 5461). Identity
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
  // Revisions 1 and 2 (three passes; the rows x cols layout) are both
  // refused, in decode and by a live shard.
  Shard shard;
  shard.start();
  for (const std::uint8_t revision : {1, 2}) {
    std::vector<std::uint8_t> old = sample_exec().encode();
    old[0] = revision;
    auto decoded = net::ShardExecRequestView::decode(old, 1 << 20);
    ASSERT_FALSE(decoded.ok()) << "revision " << int{revision};
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("unsupported shard protocol version"),
              std::string::npos)
        << decoded.status().to_string();

    // A shard answers it at once with the typed refusal, so a mixed
    // fleet fails cleanly instead of waiting out an exchange.
    auto conn = net::tcp_connect("127.0.0.1", shard.port, 1'000ms);
    ASSERT_TRUE(conn.ok()) << conn.status().to_string();
    net::TcpStream stream = std::move(conn).value();
    ASSERT_TRUE(stream.set_io_timeout(5'000ms, 5'000ms).is_ok());
    net::Frame frame;
    frame.kind = static_cast<std::uint16_t>(net::MsgKind::kShardExec);
    frame.request_id = 11;
    frame.payload = old;
    ASSERT_TRUE(test::send_frame(stream, frame).is_ok());
    auto answer = test::recv_frame(stream, net::kDefaultMaxPayload);
    ASSERT_TRUE(answer.ok()) << answer.status().to_string();
    ASSERT_EQ(static_cast<net::MsgKind>(answer.value().kind), net::MsgKind::kError);
    auto err = net::ErrorResponse::decode(answer.value().payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(err.value().to_status().message().find("unsupported shard protocol version"),
              std::string::npos);
  }
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

  const auto execute = [&](std::uint64_t session_id, std::span<const net::ShardTarget> on) {
    net::DistributedPermuter::Config config;
    config.max_payload_bytes = net::kDefaultMaxPayload;
    config.connect_timeout = 1'000ms;
    config.io_timeout = 30'000ms;
    return net::DistributedPermuter::execute(
        config, session_id, plan_id, /*deadline_ms=*/0, n, 1,
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

/// Wait until every shard answered the router's first probe round,
/// which goes out at the reactor's first tick over pooled links. After
/// it, with probes effectively off, no probe can hold a link a request
/// would otherwise reuse, so the link-priming counts are exact.
void await_first_probes(const std::vector<std::unique_ptr<Shard>>& shards) {
  ASSERT_TRUE(eventually([&] {
    return std::all_of(shards.begin(), shards.end(), [](const auto& shard) {
      return shard->server->counters().requests_ok >= 1;
    });
  })) << "the first probe round never reached every shard";
}

/// Three shards behind a router that splits every PERMUTE above 16 KiB
/// into three bands (n = 2^14 asks for four; the fleet caps it). Health
/// probes are effectively off after the first round, which the fixture
/// waits out, so only the request path sees restarts. `gated` puts a
/// test::Relay in front of shard 0; an `ack_delay` puts one in front of
/// every shard, holding each SUBMIT_PLAN and SHARD_PLAN ack that long.
struct DistFleet {
  std::vector<std::unique_ptr<Shard>> backends;
  std::vector<std::unique_ptr<test::Relay>> relays;  ///< in backend order
  std::unique_ptr<net::Router> router;

  explicit DistFleet(bool gated = false, std::chrono::milliseconds ack_delay = 0ms) {
    net::Router::Config config;
    for (int i = 0; i < 3; ++i) {
      backends.push_back(std::make_unique<Shard>());
      backends.back()->start();
      std::uint16_t port = backends.back()->port;
      if ((i == 0 && gated) || ack_delay > 0ms) {
        relays.push_back(std::make_unique<test::Relay>(port, ack_delay));
        port = relays.back()->port();
      }
      config.backends.push_back(net::BackendAddress{"127.0.0.1", port});
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
    await_first_probes(backends);
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

  // A second, sequential client connection reuses the pooled links,
  // which hold their bands already.
  net::Client second(fleet.client_config());
  for (std::uint32_t r = 0; r < 5; ++r) expect_bit_exact(second, plan.value(), p, 100 + r);
  snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 25u);
  EXPECT_EQ(snap.dist_plan_pushes, 3u) << "the pooled links are primed already";
  EXPECT_EQ(snap.dist_failures, 0u);
  for (const net::Router::BackendStats& b : snap.backends) {
    EXPECT_EQ(b.plans_synced, 0u) << b.backend << ": priming must not count as resync";
  }
}

/// Backend connections the router opened, over every backend.
std::uint64_t connects_of(const net::Router::Snapshot& snap) {
  std::uint64_t total = 0;
  for (const net::Router::BackendStats& b : snap.backends) total += b.connects;
  return total;
}

TEST(DistributedRouter, WarmFleetOpensNoConnectionPerRequest) {
  DistFleet fleet;
  const perm::Permutation p = perm::by_name("random", 1 << 14, 97);
  net::Client client(fleet.client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  expect_bit_exact(client, plan.value(), p, 0);
  const net::Router::Snapshot first = fleet.router->snapshot();
  ASSERT_GE(connects_of(first), 3u);

  for (std::uint32_t r = 1; r < 20; ++r) expect_bit_exact(client, plan.value(), p, r);
  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 20u);
  EXPECT_EQ(snap.dist_failures, 0u);
  for (std::size_t i = 0; i < snap.backends.size(); ++i) {
    EXPECT_EQ(snap.backends[i].connects, first.backends[i].connects)
        << snap.backends[i].backend << ": SHARD_EXEC opened a connection of its own";
  }
  const std::string total = "\"backend_connects\":" + std::to_string(connects_of(snap));
  EXPECT_NE(snap.to_json().find(total), std::string::npos) << snap.to_json();
  EXPECT_NE(snap.to_prometheus().find("hmm_router_backend_connects_total{backend=\"" +
                                      snap.backends[0].backend + "\"} " +
                                      std::to_string(snap.backends[0].connects) + "\n"),
            std::string::npos);
}

// The router relays a band's bytes under a checksum combined from the
// one it verified as the band arrived: a band corrupted on the way in is
// caught there, answered typed, and its link is dropped.
TEST(DistributedRouter, CorruptedBandFailsTypedAndItsLinkIsNotPooled) {
  DistFleet fleet(/*gated=*/true);
  const std::uint64_t n = 1 << 14;
  const perm::Permutation p = perm::by_name("random", n, 101);
  net::Client client(fleet.client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  expect_bit_exact(client, plan.value(), p, 0);
  const net::Router::Snapshot before = fleet.router->snapshot();

  fleet.relays[0]->corrupt_next_band();
  std::vector<std::uint32_t> a(n, 5), b(n, 0);
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.to_string();
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.to_string();
  EXPECT_EQ(fleet.router->snapshot().dist_failures, 1u);

  expect_bit_exact(client, plan.value(), p, 2);
  const net::Router::Snapshot after = fleet.router->snapshot();
  EXPECT_EQ(after.dist_requests, 3u);
  EXPECT_EQ(after.dist_failures, 1u);
  EXPECT_EQ(after.backends[0].connects, before.backends[0].connects + 1)
      << "the link that carried the corrupt band went back to the pool";
  for (std::size_t i = 1; i < after.backends.size(); ++i) {
    EXPECT_EQ(after.backends[i].connects, before.backends[i].connects);
  }
  EXPECT_EQ(after.dist_plan_pushes, before.dist_plan_pushes + 1)
      << "only the reopened link is primed again";
}

/// The bytes make_outbound_frame builds for `payload`, in wire order.
std::vector<std::uint8_t> outbound_bytes(net::MsgKind kind, std::uint64_t request_id,
                                         std::vector<std::uint8_t> payload) {
  auto frame = net::make_outbound_frame(static_cast<std::uint16_t>(kind), request_id, {}, {},
                                        std::move(payload));
  EXPECT_TRUE(frame.ok()) << frame.status().to_string();
  std::vector<std::uint8_t> bytes(frame.value().prefix.begin(),
                                  frame.value().prefix.begin() + frame.value().prefix_len);
  bytes.insert(bytes.end(), frame.value().owned.begin(), frame.value().owned.end());
  return bytes;
}

/// One PERMUTE over a bare connection to `port`; the answer's bytes as
/// they arrive.
std::vector<std::uint8_t> raw_permute(std::uint16_t port, std::uint64_t request_id,
                                      std::uint64_t plan_id, std::vector<std::uint32_t> data) {
  auto conn = net::tcp_connect("127.0.0.1", port, 1'000ms);
  EXPECT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream stream = std::move(conn).value();
  (void)stream.set_io_timeout(30'000ms, 30'000ms);
  const net::Frame frame{
      .kind = static_cast<std::uint16_t>(net::MsgKind::kPermute),
      .request_id = request_id,
      .payload = test::payload_of(net::encode_permute({plan_id, 0}, data.size()), data)};
  EXPECT_TRUE(test::send_frame(stream, frame).is_ok());
  std::vector<std::uint8_t> bytes(net::kHeaderBytes);
  if (!stream.recv_all(bytes.data(), bytes.size()).is_ok()) return {};
  const std::size_t len = bytes[16] | (bytes[17] << 8) | (bytes[18] << 16) |
                          (static_cast<std::size_t>(bytes[19]) << 24);
  bytes.resize(net::kHeaderBytes + len);
  if (!stream.recv_all(bytes.data() + net::kHeaderBytes, len).is_ok()) return {};
  return bytes;
}

// Golden bytes: a relayed single-node answer and a gathered distributed
// one leave the router exactly as the frame encoder builds them.
TEST(DistributedRouter, RelayedAnswersAreTheEncodersBytes) {
  DistFleet fleet;
  net::Client client(fleet.client_config());
  for (const std::uint64_t n : {std::uint64_t{1} << 10, std::uint64_t{1} << 14}) {
    const perm::Permutation p = perm::by_name("random", n, 103);
    auto plan = client.submit_plan(p);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    std::vector<std::uint32_t> a(n), expect(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 0x85ebca6bu);
    p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});
    const std::uint64_t id = 0x601d'0000u + n;
    EXPECT_EQ(raw_permute(fleet.router->port(), id, plan.value(), std::move(a)),
              outbound_bytes(net::MsgKind::kPermuteOk, id,
                             test::payload_of(net::encode_words_ok(n), expect)))
        << "n = " << n;
  }
  EXPECT_EQ(fleet.router->snapshot().dist_requests, 1u) << "one answer of each kind";
}

// A shard killed while its session is open: its SHARD_EXEC waits at the
// relay when the relay cuts every connection. The request fails typed,
// with no connection opened for it, and every pooled byte comes back.
TEST(DistributedRouter, ShardKilledMidSessionOverPooledLinksFailsTyped) {
  const std::uint64_t baseline = util::BufferPool::global().stats().outstanding_bytes;
  {
    DistFleet fleet(/*gated=*/true);
    const std::uint64_t n = 1 << 14;
    const perm::Permutation p = perm::by_name("random", n, 107);
    net::Client client(fleet.client_config());
    auto plan = client.submit_plan(p);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    expect_bit_exact(client, plan.value(), p, 0);
    const std::uint64_t connects = connects_of(fleet.router->snapshot());

    fleet.relays[0]->hold();
    Status failed = Status::ok();
    std::thread request([&] {
      std::vector<std::uint32_t> a(n, 1), b(n, 0);
      failed = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
    });
    const bool gated = eventually([&] { return fleet.relays[0]->waiting() == 1; });
    fleet.relays[0]->kill();
    request.join();
    ASSERT_TRUE(gated) << "the SHARD_EXEC never reached the gate";
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable) << failed.to_string();

    const net::Router::Snapshot snap = fleet.router->snapshot();
    EXPECT_EQ(snap.dist_requests, 2u);
    EXPECT_EQ(snap.dist_failures, 1u);
    EXPECT_EQ(connects_of(snap), connects) << "the execution opened a connection";
    for (std::size_t i = 1; i < fleet.backends.size(); ++i) {
      EXPECT_TRUE(
          eventually([&] { return fleet.backends[i]->server->counters().shard_aborts >= 1; }));
    }
  }
  EXPECT_TRUE(eventually([&] {
    return util::BufferPool::global().stats().outstanding_bytes <= baseline;
  })) << "pooled bytes leaked after a shard died mid-session";
}

TEST(DistributedRouter, NonPowerOfTwoPermuteIsDistributed) {
  // 10007 elements (39 KiB) split into bands of 3336 / 3336 / 3335: the
  // split is of n, so no matrix shape gates it.
  DistFleet fleet;
  const std::uint64_t n = 10007;
  const perm::Permutation p = perm::by_name("random", n, 83);
  net::Client client(fleet.client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  expect_bit_exact(client, plan.value(), p, 0);

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 1u) << "a non-power-of-two PERMUTE must shard";
  EXPECT_EQ(snap.dist_failures, 0u);
  EXPECT_EQ(snap.dist_bytes, n * 4);
  for (const auto& backend : fleet.backends) {
    EXPECT_EQ(backend->server->counters().shard_execs, 1u);
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
  DistFleet fleet(/*gated=*/true);
  const std::uint64_t n = 1 << 14;  // every band's tables are 8 B per element
  const perm::Permutation p = perm::by_name("random", n, 61);
  net::Client first(fleet.client_config());
  auto plan = first.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  // Two client connections ask for the plan at once: one compiles, the
  // other waits for that compile or finds it done. The gate holds each
  // request's SHARD_EXEC to shard 0 until both are there, so both
  // requests are primed and in flight at once, each over its own links.
  net::Client second(fleet.client_config());
  fleet.relays[0]->hold();
  std::thread racer([&] { expect_bit_exact(second, plan.value(), p, 1); });
  std::thread opener([&] { expect_bit_exact(first, plan.value(), p, 0); });
  const bool overlapped = eventually([&] { return fleet.relays[0]->waiting() == 2; });
  fleet.relays[0]->release();
  racer.join();
  opener.join();
  ASSERT_TRUE(overlapped) << "the two requests never reached the gate together";

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 2u);
  EXPECT_EQ(snap.dist_plan_pushes, 6u) << "each concurrent request's links are primed once";
  EXPECT_EQ(snap.dist_plan_compiles, 1u) << "two connections share one compile";
  EXPECT_NE(snap.to_prometheus().find("hmm_router_distributed_plan_compiles_total 1\n"),
            std::string::npos);
  EXPECT_NE(snap.to_json().find("\"distributed_plan_compiles\":1,"), std::string::npos);

  // With every backend usable, band s sits on the plan's s-th preference.
  auto bands = BandPlan::build(n, 3);
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

// One priming round writes every SHARD_PLAN before it reads any ack.
// Relays hold each ack for D: three pushes one after another would take
// 3 D, the round takes one D on top of what a primed PERMUTE takes.
TEST(DistributedRouter, FirstPermutePushesEveryBandBeforeReadingAnAck) {
  constexpr auto kAckDelay = 200ms;
  DistFleet fleet(/*gated=*/false, kAckDelay);
  const perm::Permutation p = perm::by_name("random", 1 << 14, 89);
  net::Client client(fleet.client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  auto started = std::chrono::steady_clock::now();
  expect_bit_exact(client, plan.value(), p, 0);
  const auto first = std::chrono::steady_clock::now() - started;
  started = std::chrono::steady_clock::now();
  expect_bit_exact(client, plan.value(), p, 1);
  const auto primed = std::chrono::steady_clock::now() - started;
  EXPECT_GE(first, kAckDelay);
  EXPECT_LT(first, 2 * kAckDelay + primed) << "the SHARD_PLAN acks were awaited one by one";

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.dist_requests, 2u);
  EXPECT_EQ(snap.dist_failures, 0u);
  EXPECT_EQ(snap.dist_plan_pushes, 3u);
  EXPECT_EQ(snap.dist_compile.count, 1u);
  EXPECT_EQ(snap.dist_prime.count, 1u) << "the primed PERMUTE pushes nothing";
  EXPECT_GE(snap.dist_prime.max, std::chrono::nanoseconds(kAckDelay).count());
  EXPECT_NE(snap.to_json().find("\"dist_prime_ms\":{\"count\":1,"), std::string::npos);
  EXPECT_NE(snap.to_json().find("\"dist_compile_ms\":{\"count\":1,"), std::string::npos);
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("hmm_router_distributed_prime_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(prom.find("hmm_router_distributed_compile_seconds_count 1\n"), std::string::npos);
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
  await_first_probes(backends);
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
  const std::uint64_t other_id = runtime::fingerprint_permutation(other).value;
  auto other_bands = net::DistributedPermuter::compile(other, other_id, 3);
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

// Deadlock freedom: more concurrent distributed PERMUTEs than any shard
// has handler threads. No shard thread waits on a peer (an early block
// parks its reply, the exec leaves its reply with the session), so every
// request completes bit-exact and far inside the exchange timeout, with
// nothing aborted and every pooled byte returned.
TEST(DistributedRouter, MoreConcurrentRequestsThanHandlerThreads) {
  constexpr auto kExchangeTimeout = 20'000ms;
  constexpr int kClients = 8;
  constexpr std::uint32_t kRequests = 5;
  const std::uint64_t baseline = util::BufferPool::global().stats().outstanding_bytes;
  {
    std::vector<std::unique_ptr<Shard>> backends;
    net::Router::Config config;
    for (int i = 0; i < 3; ++i) {
      backends.push_back(std::make_unique<Shard>());
      backends.back()->start(kExchangeTimeout, net::kDefaultMaxPayload, 0, 4096,
                             /*handler_threads=*/2);
      config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
    }
    config.distributed_max_bytes = 16 << 10;
    config.probe_interval = 60'000ms;
    config.eject_after = 1'000'000;
    config.connect_timeout = 1'000ms;
    config.io_timeout = 30'000ms;
    config.poll_interval = 10ms;
    net::Router router(std::move(config));
    ASSERT_TRUE(router.start().is_ok());
    net::Client::Config cc;
    cc.host = "127.0.0.1";
    cc.port = router.port();
    cc.io_timeout = 30'000ms;

    const perm::Permutation p = perm::by_name("random", 1 << 14, 79);
    std::uint64_t plan_id = 0;
    {
      net::Client setup(cc);
      auto plan = setup.submit_plan(p);
      ASSERT_TRUE(plan.ok()) << plan.status().to_string();
      plan_id = plan.value();
    }

    const auto started = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        net::Client client(cc);
        for (std::uint32_t r = 0; r < kRequests; ++r) {
          expect_bit_exact(client, plan_id, p, static_cast<std::uint32_t>(c) * 100 + r);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_LT(elapsed, kExchangeTimeout / 4) << "a request waited on a stalled exchange";

    const net::Router::Snapshot snap = router.snapshot();
    EXPECT_EQ(snap.dist_requests, kClients * kRequests);
    EXPECT_EQ(snap.dist_failures, 0u);
    for (const auto& b : backends) EXPECT_EQ(b->server->counters().shard_aborts, 0u);
    router.stop();
    for (auto& b : backends) b->stop();
  }
  EXPECT_EQ(util::BufferPool::global().stats().outstanding_bytes, baseline)
      << "pooled staging leaked";
}

TEST(DistributedWire, UnprimedShardsCompileRegisteredPlansLocally) {
  // A direct DistributedPermuter caller that registered the plan with
  // SUBMIT_PLAN but never primed bands: each shard compiles its band
  // once, keeps it, and the result is the oracle's. The caller passes a
  // matrix shape, as the end-to-end probe does; only its product is
  // checked.
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
  const auto execute = [&](std::uint64_t session, std::uint64_t rows) {
    return net::DistributedPermuter::execute(
        config, session, plan_id, /*deadline_ms=*/0, rows, shape.cols,
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(in.data()),
                                      n * sizeof(std::uint32_t)),
        targets, [](std::size_t) {});
  };
  auto mismatched = execute(0x10ca'0fffu, shape.rows + 1);
  ASSERT_FALSE(mismatched.ok()) << "rows x cols must be the element count";
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  for (std::uint64_t session : {0x10ca'1000u, 0x10ca'1001u}) {
    auto result = execute(session, shape.rows);
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
    EXPECT_EQ(s->server->counters().shard_aborts, 0u) << "the mismatched call sent nothing";
    EXPECT_EQ(s->server->shard_plans(), 1u);
    s->stop();
  }
}

TEST(DistributedWire, MalformedShardPlanLeavesNoBand) {
  Shard shard;
  shard.start();
  const perm::Permutation p = perm::by_name("random", 1 << 12, 13);
  std::vector<std::uint8_t> payload = sample_shard_plan(p, 2);
  // The last merge entry repeats the first (band 2 holds 1365).
  const std::size_t merge = payload.size() - 4 * 1365;
  std::copy_n(payload.begin() + merge, 4, payload.end() - 4);

  const Status primed = prime_shard(shard.port, payload);
  ASSERT_FALSE(primed.is_ok());
  EXPECT_EQ(primed.code(), StatusCode::kInvalidArgument) << primed.to_string();
  EXPECT_NE(primed.message().find("not a permutation"), std::string::npos)
      << primed.to_string();
  EXPECT_EQ(shard.server->shard_plans(), 0u);
  EXPECT_EQ(shard.server->shard_plan_bytes(), 0u);

  // A revision-2 coordinator's SHARD_PLAN for band 2 of 3 of the
  // identity at 2^12: rows and cols (64 x 64) where n now sits, and
  // identity tables over its row band of 21 x 64 elements.
  std::vector<std::uint8_t> old;
  const auto put = [&old](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) old.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  const std::uint64_t old_band = 21 * 64;
  put(0x01d0'1a70'0000'0001ull, 8);  // plan id
  put(2, 4);                         // shard index
  put(3, 4);                         // shard count
  put(64, 8);                        // rows
  put(64, 8);                        // cols
  const std::uint64_t lengths[] = {0, 0, old_band, 0, 0, old_band};  // send, recv
  for (const std::uint64_t c : lengths) put(c, 8);
  for (int table = 0; table < 2; ++table) {
    for (std::uint64_t j = 0; j < old_band; ++j) put(j, 4);
  }
  auto decoded = net::ShardPlanRequest::decode(old);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  const Status refused = prime_shard(shard.port, old);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused.to_string();
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
