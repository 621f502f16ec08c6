/// Tests for `net::Router`: consistent-hash preference lists, proxied
/// end-to-end serving (PERMUTE and EXECUTE_PROGRAM), and the
/// fault-tolerance battery the fleet story rests on — failover off a
/// killed backend is bit-identical, an ejected backend rejoins through a
/// successful probe with its plan registry replayed, a restarted
/// (plan-less) backend is healed by the lazy resync path, and request
/// failures eject a dead shard so later requests shed it in O(1)
/// instead of burning a connect timeout. The probes run on the
/// router's reactor: no thread of their own, and stop() does not wait
/// out a hung round.
///
/// Backends are real in-process `net::Server`s over real
/// `RobustPermuteService`s on loopback; "killing" one is `stop()`, and
/// "restarting" binds a fresh Server (fresh, empty service — exactly
/// what a crashed permd looks like to the router) on the same port.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame_io.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net_payload.hpp"
#include "net_relay.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/program.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using runtime::ProgramOp;
using runtime::ProgramOpCode;
using runtime::Status;
using runtime::StatusCode;

/// One in-process permd backend. Restartable: start(port) rebinds the
/// same port with a *fresh* service (empty plan registry), which is
/// what a crash-restarted backend looks like.
struct Backend {
  std::unique_ptr<runtime::RobustPermuteService> service;
  std::unique_ptr<net::Server> server;
  std::uint16_t port = 0;

  void start(std::uint16_t fixed_port = 0) {
    service = std::make_unique<runtime::RobustPermuteService>(
        util::ThreadPool::global(), runtime::RobustPermuteService::Config{});
    net::Server::Config config;
    config.port = fixed_port;
    config.poll_interval = 10ms;
    server = std::make_unique<net::Server>(*service, config);
    const Status started = server->start();
    ASSERT_TRUE(started.is_ok()) << started.to_string();
    port = server->port();
  }

  void stop() {
    if (server) server->stop();
  }
};

/// N backends + a router over them, with probe knobs tuned for test
/// time scales (override via `tune` before start).
struct Fleet {
  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<net::Router> router;

  explicit Fleet(std::size_t n, const std::function<void(net::Router::Config&)>& tune = {}) {
    net::Router::Config config;
    for (std::size_t i = 0; i < n; ++i) {
      backends.push_back(std::make_unique<Backend>());
      backends.back()->start();
      config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
    }
    config.probe_interval = 50ms;
    config.probe_timeout = 500ms;
    config.eject_after = 2;
    config.failover_backoff_base = 1ms;
    config.failover_backoff_cap = 5ms;
    config.connect_timeout = 500ms;
    config.io_timeout = 5'000ms;
    config.poll_interval = 10ms;
    if (tune) tune(config);
    router = std::make_unique<net::Router>(std::move(config));
    const Status started = router->start();
    EXPECT_TRUE(started.is_ok()) << started.to_string();
  }

  ~Fleet() {
    if (router) router->stop();
    for (auto& b : backends) b->stop();
  }

  [[nodiscard]] net::Client::Config client_config() const {
    net::Client::Config c;
    c.host = "127.0.0.1";
    c.port = router->port();
    c.connect_timeout = 2'000ms;
    c.io_timeout = 10'000ms;
    return c;
  }

  /// Spin until `pred` holds or ~`budget` elapses.
  static bool eventually(const std::function<bool()>& pred,
                         std::chrono::milliseconds budget = 5'000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(10ms);
    }
    return pred();
  }

  /// Wait until every backend answered the router's first probe round,
  /// which goes out at the reactor's first tick.
  void await_first_probes() const {
    ASSERT_TRUE(eventually([&] {
      return std::all_of(backends.begin(), backends.end(), [](const auto& b) {
        return b->server->counters().requests_ok >= 1;
      });
    })) << "the first probe round never reached every backend";
  }

  /// A plan whose preference list starts at backend `primary`: the
  /// first of a few random mappings that hashes there, or nullopt.
  std::optional<perm::Permutation> plan_with_primary(std::size_t primary,
                                                     std::uint64_t n) const {
    for (std::uint64_t seedling = 1; seedling <= 64; ++seedling) {
      perm::Permutation candidate = perm::by_name("random", n, seedling);
      const std::uint64_t id = runtime::fingerprint_permutation(candidate).value;
      if (router->preference(id)[0] == primary) return candidate;
    }
    return std::nullopt;
  }
};

/// A Fleet tuning that puts a test::Relay in front of every backend,
/// holding each SUBMIT_PLAN ack for `ack_delay`. The relays land in
/// `relays`, in backend order, which must outlive the fleet.
std::function<void(net::Router::Config&)> relay_every_backend(
    std::vector<std::unique_ptr<test::Relay>>& relays, std::chrono::milliseconds ack_delay) {
  return [&relays, ack_delay](net::Router::Config& config) {
    for (net::BackendAddress& backend : config.backends) {
      relays.push_back(std::make_unique<test::Relay>(backend.port, ack_delay));
      backend.port = relays.back()->port();
    }
  };
}

/// The process's thread count, from /proc/self/status (0 if unreadable).
std::uint64_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoull(line.substr(8));
  }
  return 0;
}

// ------------------------------------------------------------- hashing

TEST(RouterRing, PreferenceListIsDistinctAndCoversEveryBackend) {
  Fleet fleet(3);
  for (std::uint64_t key : {0ull, 1ull, 0xdeadbeefull, 0xffff'ffff'ffff'ffffull}) {
    const std::vector<std::size_t> prefs = fleet.router->preference(key);
    ASSERT_EQ(prefs.size(), 3u) << "key " << key;
    std::vector<std::size_t> sorted = prefs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2})) << "key " << key;
  }
}

TEST(RouterRing, KeysSpreadAcrossBackends) {
  Fleet fleet(3);
  std::vector<std::uint64_t> primaries(3, 0);
  for (std::uint64_t key = 0; key < 512; ++key) {
    primaries[fleet.router->preference(key * 0x9e3779b97f4a7c15ull)[0]]++;
  }
  // With 64 vnodes/backend the split is rough, not exact; each backend
  // must own a nontrivial share (no degenerate all-on-one ring).
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_GT(primaries[b], 512u / 10) << "backend " << b << " owns almost nothing";
  }
}

// ------------------------------------------------------------ proxying

TEST(RouterLoopback, RoutedPermuteMatchesLocalApply) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());

  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_GE(snap.requests_total, 2u);  // SUBMIT_PLAN + PERMUTE
  EXPECT_EQ(snap.no_backend_available, 0u);
}

TEST(RouterLoopback, PingAndStatsAreAnsweredLocally) {
  Fleet fleet(2);
  net::Client client(fleet.client_config());
  EXPECT_TRUE(client.ping().is_ok());
  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"router\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"backends\""), std::string::npos);
  // Local answers are not proxied requests.
  EXPECT_EQ(fleet.router->snapshot().requests_total, 0u);
}

TEST(RouterLoopback, ResubmittingAPlanDeduplicates) {
  Fleet fleet(2);
  net::Client client(fleet.client_config());
  const perm::Permutation p = perm::by_name("shuffle", 512, 3);
  auto first = client.submit_plan(p);
  auto second = client.submit_plan(p);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(fleet.router->plans(), 1u);
}

// ------------------------------------------------------------ failover

TEST(RouterFailover, KilledPrimaryFailsOverBitIdenticalWithoutResubmit) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());

  const std::uint64_t n = 2048;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  // Replication (default 2) already pushed the plan to the first
  // replica of the preference list — the exact backend the failover
  // lands on. Killing the primary must therefore be a hit, not a
  // resubmit.
  const std::vector<std::size_t> prefs = fleet.router->preference(plan.value());
  fleet.backends[prefs[0]]->stop();

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i ^ 0xa5a5);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << "failover did not serve: " << s.to_string();
  EXPECT_EQ(b, expect);

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_GE(snap.failovers_total, 1u);
  EXPECT_EQ(snap.plan_resyncs, 0u) << "replica should already hold the plan";
  EXPECT_GE(snap.backends[prefs[1]].failovers_to, 1u);
}

TEST(RouterFailover, EjectedBackendRecoversViaHalfOpenProbeAndServesAgain) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());

  // Register a handful of plans so the recovery resync has a registry
  // to replay; remember one routed to the backend we will kill.
  const std::uint64_t n = 1024;
  std::vector<perm::Permutation> pop;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seedling = 1; seedling <= 6; ++seedling) {
    pop.push_back(perm::by_name("random", n, seedling));
    auto id = client.submit_plan(pop.back());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(id.value());
  }

  const std::size_t victim = fleet.router->preference(ids[0])[0];
  const std::uint16_t victim_port = fleet.backends[victim]->port;
  fleet.backends[victim]->stop();

  ASSERT_TRUE(Fleet::eventually([&] { return !fleet.router->backend_healthy(victim); }))
      << "the probes never ejected the dead backend";

  // Restart on the same port with an empty plan registry. A probe of
  // the ejected backend must notice, replay the router's registry into
  // it, and only then mark it healthy.
  fleet.backends[victim]->start(victim_port);
  ASSERT_EQ(fleet.backends[victim]->port, victim_port);
  ASSERT_TRUE(Fleet::eventually([&] { return fleet.router->backend_healthy(victim); }))
      << "restarted backend never rejoined";

  net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_GE(snap.backends[victim].ejections, 1u);
  EXPECT_GE(snap.backends[victim].recoveries, 1u);
  // The rejoin replayed every remembered plan into the empty registry.
  EXPECT_GE(snap.backends[victim].plans_synced, ids.size());
  EXPECT_EQ(fleet.backends[victim]->server->plans(), ids.size());

  // And it serves traffic again: route a request whose primary it is.
  const std::uint64_t before_ok = snap.backends[victim].ok;
  std::vector<std::uint32_t> a(n, 7), b(n, 0), expect(n);
  pop[0].apply<std::uint32_t>({a.data(), n}, {expect.data(), n});
  const Status s = client.permute(ids[0], {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);
  EXPECT_GT(fleet.router->snapshot().backends[victim].ok, before_ok)
      << "recovered backend did not serve the request it is primary for";
}

TEST(RouterFailover, QuietRestartIsHealedByLazyPlanResync) {
  // Probes effectively off: the router never notices the restart, so
  // the *request path* must heal the empty registry (backend answers
  // "unknown plan", router re-pushes the plans it holds, retries once).
  Fleet fleet(2, [](net::Router::Config& c) {
    c.probe_interval = 60'000ms;
    c.eject_after = 1'000'000;
  });
  net::Client client(fleet.client_config());

  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  // Bounce every backend: wherever the request lands, the registry is
  // empty and the cached link is stale.
  for (auto& b : fleet.backends) {
    const std::uint16_t port = b->port;
    b->stop();
    b->start(port);
  }

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(3 * i + 1);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << "lazy resync did not heal the restart: " << s.to_string();
  EXPECT_EQ(b, expect);
  EXPECT_GE(fleet.router->snapshot().plan_resyncs, 1u);
}

// -------------------------------------------------------------- health

// Replication writes the SUBMIT_PLAN to every replica before it reads
// any ack. Relays hold each ack for D: two replicas one after another
// would take 2 D, both at once one D.
TEST(RouterReplication, SubmitPlanWritesEveryReplicaBeforeReadingAnAck) {
  constexpr auto kAckDelay = 200ms;
  std::vector<std::unique_ptr<test::Relay>> relays;
  Fleet fleet(3, relay_every_backend(relays, kAckDelay));
  fleet.await_first_probes();
  net::Client client(fleet.client_config());
  const perm::Permutation p = perm::by_name("random", 4096, 3);

  const auto started = std::chrono::steady_clock::now();
  auto plan = client.submit_plan(p);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_GE(elapsed, kAckDelay);
  EXPECT_LT(elapsed, kAckDelay * 3 / 2) << "the replicas' acks were awaited one by one";
  const std::vector<std::size_t> prefs = fleet.router->preference(plan.value());
  EXPECT_EQ(fleet.backends[prefs[0]]->server->plans(), 1u);
  EXPECT_EQ(fleet.backends[prefs[1]]->server->plans(), 1u);
  EXPECT_EQ(fleet.backends[prefs[2]]->server->plans(), 0u);
}

// A replica killed after it registered the plan, before its ack reaches
// the router, is replaced by the next backend of the preference list,
// and the client still gets PLAN_OK.
TEST(RouterReplication, ReplicaKilledBeforeItsAckIsReplacedByTheNextPreference) {
  constexpr auto kAckDelay = 200ms;
  std::vector<std::unique_ptr<test::Relay>> relays;
  Fleet fleet(3, relay_every_backend(relays, kAckDelay));
  fleet.await_first_probes();
  net::Client client(fleet.client_config());
  const perm::Permutation p = perm::by_name("random", 4096, 5);
  const std::uint64_t id = runtime::fingerprint_permutation(p).value;
  const std::vector<std::size_t> prefs = fleet.router->preference(id);

  std::optional<runtime::StatusOr<std::uint64_t>> plan;
  std::thread submitter([&] { plan.emplace(client.submit_plan(p)); });
  const bool registered =
      Fleet::eventually([&] { return fleet.backends[prefs[1]]->server->plans() == 1; });
  relays[prefs[1]]->kill();  // drops the ack it holds
  fleet.backends[prefs[1]]->stop();
  submitter.join();
  ASSERT_TRUE(registered) << "the second replica never got the plan";
  ASSERT_TRUE(plan->ok()) << plan->status().to_string();
  EXPECT_EQ(plan->value(), id);
  EXPECT_EQ(fleet.backends[prefs[0]]->server->plans(), 1u);
  EXPECT_EQ(fleet.backends[prefs[2]]->server->plans(), 1u)
      << "the next preference took its place";
  EXPECT_GE(fleet.router->snapshot().backends[prefs[1]].transport_failures, 1u);
}

/// A backend of another build: it echoes PINGs, but answers every
/// SUBMIT_PLAN with a PLAN_OK naming an id other than the mapping's.
class WrongIdBackend {
 public:
  WrongIdBackend() {
    auto bound = net::TcpListener::bind("127.0.0.1", 0);
    EXPECT_TRUE(bound.ok()) << bound.status().to_string();
    if (bound.ok()) listener_ = std::move(bound).value();
    acceptor_ = std::thread([this] {
      while (!stop_.load()) {
        runtime::StatusOr<net::TcpStream> conn = listener_.accept(10ms);
        if (conn.ok()) {
          serving_.emplace_back([this, c = std::move(conn).value()]() mutable { serve(c); });
        }
      }
    });
  }
  ~WrongIdBackend() {
    stop_.store(true);
    acceptor_.join();
    for (std::thread& t : serving_) t.join();
  }
  WrongIdBackend(const WrongIdBackend&) = delete;
  WrongIdBackend& operator=(const WrongIdBackend&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

 private:
  void serve(net::TcpStream& conn) {
    while (!stop_.load()) {
      const runtime::StatusOr<bool> readable = conn.poll_readable(10ms);
      if (!readable.ok()) return;
      if (!readable.value()) continue;
      runtime::StatusOr<net::Frame> request = net::read_frame(conn, net::kDefaultMaxPayload);
      if (!request.ok()) return;
      net::Frame answer{static_cast<std::uint16_t>(net::MsgKind::kPingOk),
                        request.value().request_id, request.value().payload};
      if (static_cast<net::MsgKind>(request.value().kind) == net::MsgKind::kSubmitPlan) {
        auto plan = net::SubmitPlanRequestView::decode(request.value().payload, 1 << 24);
        const std::vector<std::uint32_t> mapping =
            plan.ok() ? test::words_of(plan.value().mapping) : std::vector<std::uint32_t>{};
        const std::uint64_t other = runtime::fingerprint_mapping(mapping).value + 1;
        const net::Head8 id = net::encode_plan_ok(plan.ok() ? other : 0);
        answer.kind = static_cast<std::uint16_t>(net::MsgKind::kPlanOk);
        answer.payload.assign(id.begin(), id.end());
      }
      if (!net::write_frame(conn, answer).is_ok()) return;
    }
  }

  net::TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::vector<std::thread> serving_;
};

// A replica's PLAN_OK naming another id is no ack: the router counts it
// as the replica's typed error, so a mixed-build fleet cannot register a
// plan under one id and route it under another. With a true replica
// beside it the client is answered; alone it fails typed.
TEST(RouterReplication, PlanOkNamingAnotherIdIsNotAnAck) {
  WrongIdBackend stranger;
  const auto add_stranger = [&](net::Router::Config& c) {
    c.backends.push_back(net::BackendAddress{"127.0.0.1", stranger.port()});
  };
  const perm::Permutation p = perm::by_name("random", 4096, 7);
  const std::uint64_t id = runtime::fingerprint_permutation(p).value;
  {
    Fleet fleet(1, add_stranger);  // replication 2: both backends get the plan
    net::Client client(fleet.client_config());
    auto plan = client.submit_plan(p);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    EXPECT_EQ(plan.value(), id);
    const net::Router::Snapshot snap = fleet.router->snapshot();
    EXPECT_EQ(snap.backends[0].ok, 1u);
    EXPECT_EQ(snap.backends[1].ok, 0u);
    EXPECT_EQ(snap.backends[1].typed_errors, 1u);
  }
  Fleet alone(0, add_stranger);
  net::Client client(alone.client_config());
  auto plan = client.submit_plan(p);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnavailable) << plan.status().to_string();
  EXPECT_EQ(alone.router->snapshot().backends[0].ok, 0u);
  EXPECT_EQ(alone.router->snapshot().backends[0].typed_errors, 1u);
}

// A mapping that is not a bijection is refused INVALID_ARGUMENT by the
// router itself: no replica receives it and no registry keeps it.
TEST(RouterReplication, NonBijectionIsRefusedBeforeAnyBackend) {
  Fleet fleet(2);
  fleet.await_first_probes();
  auto conn = net::tcp_connect("127.0.0.1", fleet.router->port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  const std::vector<std::uint32_t> bad = {0, 1, 2, 2};  // 2 appears twice, 3 never
  ASSERT_TRUE(net::write_frame(conn.value(),
                               net::Frame{static_cast<std::uint16_t>(net::MsgKind::kSubmitPlan),
                                          5, test::payload_of(net::encode_submit_plan(4), bad)})
                  .is_ok());
  auto response = net::read_frame(conn.value(), net::kDefaultMaxPayload);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_EQ(response.value().kind, static_cast<std::uint16_t>(net::MsgKind::kError));
  auto err = net::ErrorResponse::decode(response.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.router->plans(), 0u);
  for (const auto& b : fleet.backends) EXPECT_EQ(b->server->plans(), 0u);
  for (const auto& b : fleet.router->snapshot().backends) EXPECT_EQ(b.requests, 0u);
}

TEST(RouterHealth, RequestFailuresEjectAndShedInO1) {
  // One live backend and one that dies after the first probe round.
  // Probes are effectively off after that round, so only the request
  // path can see the death: every request aimed at the dead shard burns
  // a connect failure until `eject_after` of them eject it, after which
  // it is skipped outright.
  Fleet fleet(2, [](net::Router::Config& c) {
    c.probe_interval = 60'000ms;
    c.eject_after = 2;
    c.failover_backoff_cap = 2ms;
    c.connect_timeout = 250ms;
  });
  fleet.await_first_probes();
  net::Client client(fleet.client_config());

  const std::uint64_t n = 512;
  const std::optional<perm::Permutation> p = fleet.plan_with_primary(1, n);
  ASSERT_TRUE(p.has_value()) << "no sampled plan hashed to backend 1";
  auto plan = client.submit_plan(*p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  fleet.backends[1]->stop();

  std::vector<std::uint32_t> a(n, 9), b(n, 0), expect(n);
  p->apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  // Every request is served by failover; the second transport failure
  // in a row ejects the dead backend.
  for (int round = 0; round < 2; ++round) {
    const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
    ASSERT_TRUE(s.is_ok()) << "round " << round << ": " << s.to_string();
    ASSERT_EQ(b, expect);
  }
  EXPECT_FALSE(fleet.router->backend_healthy(1));
  net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_FALSE(snap.backends[1].healthy);
  EXPECT_EQ(snap.backends[1].ejections, 1u);
  EXPECT_EQ(snap.backends[1].transport_failures, 2u);
  const std::uint64_t requests_at_eject = snap.backends[1].requests;

  // Ejected, the dead shard is skipped without a connect: more rounds
  // add no transport failures and no forward attempts.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());
    ASSERT_EQ(b, expect);
  }
  snap = fleet.router->snapshot();
  EXPECT_EQ(snap.backends[1].transport_failures, 2u);
  EXPECT_EQ(snap.backends[1].requests, requests_at_eject);
  EXPECT_EQ(snap.backends[1].ejections, 1u);
  EXPECT_GE(snap.failovers_total, 5u);
  EXPECT_EQ(snap.no_backend_available, 0u);
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("hmm_router_backend_ejections_total{backend=\"" + snap.backends[1].backend +
                      "\"} 1\n"),
            std::string::npos)
      << prom;
}

TEST(RouterHealth, RequestEjectedBackendRejoinsOnlyThroughProbeAndReplay) {
  // Probes run every second: the two failed requests that eject the
  // dead backend land well inside one interval.
  Fleet fleet(2, [](net::Router::Config& c) {
    c.probe_interval = 1'000ms;
    c.eject_after = 2;
    c.failover_backoff_cap = 2ms;
    c.connect_timeout = 250ms;
  });
  fleet.await_first_probes();
  net::Client client(fleet.client_config());

  const std::uint64_t n = 512;
  const std::optional<perm::Permutation> p = fleet.plan_with_primary(1, n);
  ASSERT_TRUE(p.has_value()) << "no sampled plan hashed to backend 1";
  std::vector<std::uint64_t> ids;
  for (const perm::Permutation& q :
       {*p, perm::by_name("bit-reversal", n, 1), perm::by_name("shuffle", n, 1)}) {
    auto id = client.submit_plan(q);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(id.value());
  }

  Backend& victim = *fleet.backends[1];
  const std::uint16_t victim_port = victim.port;
  victim.stop();
  std::vector<std::uint32_t> a(n, 5), b(n, 0), expect(n);
  p->apply<std::uint32_t>({a.data(), n}, {expect.data(), n});
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(client.permute(ids[0], {a.data(), n}, {b.data(), n}).is_ok());
    ASSERT_EQ(b, expect);
  }
  ASSERT_FALSE(fleet.router->backend_healthy(1)) << "two failed forwards did not eject";
  EXPECT_GE(fleet.router->snapshot().backends[1].transport_failures, 1u);

  // Restarted with an empty registry, it rejoins through the next
  // successful probe, which replays the registry first: at the moment
  // it is routable again it already holds every plan.
  victim.start(victim_port);
  ASSERT_EQ(victim.port, victim_port);
  ASSERT_TRUE(Fleet::eventually([&] { return fleet.router->backend_healthy(1); }))
      << "restarted backend never rejoined";
  EXPECT_EQ(victim.server->plans(), ids.size());
  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.backends[1].ejections, 1u);
  EXPECT_GE(snap.backends[1].recoveries, 1u);
  EXPECT_GE(snap.backends[1].plans_synced, ids.size());

  // And it serves the plan it is primary for again, with no resync.
  const std::uint64_t before_ok = snap.backends[1].ok;
  ASSERT_TRUE(client.permute(ids[0], {a.data(), n}, {b.data(), n}).is_ok());
  EXPECT_EQ(b, expect);
  EXPECT_GT(fleet.router->snapshot().backends[1].ok, before_ok);
  EXPECT_EQ(fleet.router->snapshot().plan_resyncs, 0u);
}

TEST(RouterHealth, StopDoesNotWaitOutAHungProbeRound) {
  // Three backends that accept (the kernel completes the handshake) and
  // never answer: a probe round blocks probe_timeout on each. stop()
  // waits for the probe in flight and no more.
  constexpr auto kProbeTimeout = 1'500ms;
  std::vector<net::TcpListener> hung;
  net::Router::Config config;
  for (int i = 0; i < 3; ++i) {
    auto bound = net::TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(bound.ok()) << bound.status().to_string();
    config.backends.push_back(net::BackendAddress{"127.0.0.1", bound.value().port()});
    hung.push_back(std::move(bound).value());
  }
  config.probe_interval = 50ms;
  config.probe_timeout = kProbeTimeout;
  config.connect_timeout = 500ms;
  config.poll_interval = 10ms;
  net::Router router(std::move(config));
  ASSERT_TRUE(router.start().is_ok());
  std::this_thread::sleep_for(200ms);  // the first round is blocked on backend 0

  const auto started = std::chrono::steady_clock::now();
  router.stop();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(router.running());
  EXPECT_LT(elapsed, kProbeTimeout + 1s) << "stop() waited for the whole probe round";
}

TEST(RouterHealth, StartAddsOnlyTheReactorThreads) {
  std::vector<std::unique_ptr<Backend>> backends;
  net::Router::Config config;
  for (int i = 0; i < 2; ++i) {
    backends.push_back(std::make_unique<Backend>());
    backends.back()->start();
    config.backends.push_back(net::BackendAddress{"127.0.0.1", backends.back()->port});
  }
  config.probe_interval = 20ms;
  config.poll_interval = 10ms;
  net::Router router(std::move(config));

  const std::uint64_t before = process_threads();
  ASSERT_GT(before, 0u) << "/proc/self/status has no Threads: line";
  ASSERT_TRUE(router.start().is_ok());
  const std::uint64_t after = process_threads();

  // The reactor's own threads: one accept thread, its io threads and
  // its handler pool (both at the Reactor::Config defaults the router
  // keeps). The probes add none.
  const net::Reactor::Config reactor_defaults;
  const std::uint64_t handlers =
      std::max(16u, 2 * std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(after - before, 1 + reactor_defaults.io_threads + handlers);

  // Probe rounds keep running on those threads.
  ASSERT_TRUE(Fleet::eventually([&] {
    return backends[0]->server->counters().requests_ok >= 3 &&
           backends[1]->server->counters().requests_ok >= 3;
  })) << "probe rounds stopped after the first";
  EXPECT_EQ(process_threads(), after);
  router.stop();
  for (auto& b : backends) b->stop();
}

// ------------------------------------------------------------- programs

TEST(RouterProgram, ChainLandsOnItsFirstPlanOperandsPrimary) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());
  const std::uint64_t n = 1024;

  // Two plans with different primaries; the chain opens with a
  // generator, so its first *plan* operand is its second op.
  const std::optional<perm::Permutation> first = fleet.plan_with_primary(0, n);
  ASSERT_TRUE(first.has_value());
  const std::optional<perm::Permutation> second = fleet.plan_with_primary(1, n);
  ASSERT_TRUE(second.has_value());
  auto first_id = client.submit_plan(*first);
  auto second_id = client.submit_plan(*second);
  ASSERT_TRUE(first_id.ok()) << first_id.status().to_string();
  ASSERT_TRUE(second_id.ok()) << second_id.status().to_string();

  const std::vector<ProgramOp> ops = {{ProgramOpCode::kBitReversal, 0},
                                      {ProgramOpCode::kPermute, first_id.value()},
                                      {ProgramOpCode::kInverse, second_id.value()}};
  std::vector<std::uint32_t> in(n), out(n, 0), expect(n), scratch(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i * 40503u + 7);
  perm::by_name("bit-reversal", n, 1).apply<std::uint32_t>({in.data(), n}, {expect.data(), n});
  first->apply<std::uint32_t>({expect.data(), n}, {scratch.data(), n});
  second->inverse().apply<std::uint32_t>({scratch.data(), n}, {expect.data(), n});

  const net::Router::Snapshot before = fleet.router->snapshot();
  const Status s = client.execute_program({ops.data(), ops.size()}, {in.data(), n},
                                          {out.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(out, expect);

  const net::Router::Snapshot after = fleet.router->snapshot();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(after.backends[i].ok - before.backends[i].ok, i == 0 ? 1u : 0u)
        << "backend " << i << " (the chain's first plan operand is primary on backend 0)";
  }
  EXPECT_EQ(after.failovers_total, 0u);
}

TEST(RouterProgram, GeneratorOnlyChainIsServed) {
  Fleet fleet(3);
  net::Client client(fleet.client_config());
  const std::uint64_t n = 1024;
  // Bit reversal is an involution: the chain is the identity.
  const std::vector<ProgramOp> ops = {{ProgramOpCode::kBitReversal, 0},
                                      {ProgramOpCode::kBitReversal, 0}};
  std::vector<std::uint32_t> in(n), out(n, 0);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i ^ 0x5a5au);
  const Status s = client.execute_program({ops.data(), ops.size()}, {in.data(), n},
                                          {out.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(out, in);

  const net::Router::Snapshot snap = fleet.router->snapshot();
  EXPECT_EQ(snap.requests_total, 1u);
  EXPECT_EQ(snap.no_backend_available, 0u);
  EXPECT_EQ(snap.plan_resyncs, 0u);
  std::uint64_t ok = 0;
  for (const net::Router::BackendStats& b : snap.backends) ok += b.ok;
  EXPECT_EQ(ok, 1u);
}

TEST(RouterProgram, QuietRestartIsHealedByLazyPlanResync) {
  // As RouterFailover.QuietRestartIsHealedByLazyPlanResync, for a chain:
  // the backend answers "unknown plan" and the router re-pushes it.
  Fleet fleet(2, [](net::Router::Config& c) {
    c.probe_interval = 60'000ms;
    c.eject_after = 1'000'000;
  });
  net::Client client(fleet.client_config());

  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("random", n, 17);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  for (auto& b : fleet.backends) {
    const std::uint16_t port = b->port;
    b->stop();
    b->start(port);
  }

  const std::vector<ProgramOp> ops = {{ProgramOpCode::kPermute, plan.value()},
                                      {ProgramOpCode::kReverse, 0}};
  std::vector<std::uint32_t> in(n), out(n, 0), expect(n), permuted(n);
  for (std::uint64_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(5 * i + 3);
  p.apply<std::uint32_t>({in.data(), n}, {permuted.data(), n});
  perm::by_name("bit-complement", n, 1).apply<std::uint32_t>({permuted.data(), n}, {expect.data(), n});

  const Status s = client.execute_program({ops.data(), ops.size()}, {in.data(), n},
                                          {out.data(), n});
  ASSERT_TRUE(s.is_ok()) << "lazy resync did not heal the restart: " << s.to_string();
  EXPECT_EQ(out, expect);
  EXPECT_GE(fleet.router->snapshot().plan_resyncs, 1u);
}

}  // namespace
}  // namespace hmm
