#pragma once
/// \file router.hpp
/// \brief `net::Router` — the permd fleet front door: a consistent-hash
///        proxy that shards the plan space across N backend permd
///        instances and keeps serving through backend failures.
///
/// Design:
///
///  - **Route by plan fingerprint.** The wire plan id *is* the mapping
///    fingerprint (see runtime/fingerprint.hpp), so every request kind
///    carries its own routing key: SUBMIT_PLAN hashes the mapping it
///    carries, PERMUTE routes on its `plan_id` field, EXECUTE_PROGRAM
///    on the first registered-plan operand of its op chain (generator-
///    only chains hash the op list — stateless, any backend serves
///    them). Keys land on a ring of `virtual_nodes` points per backend;
///    the walk order from a key's ring position is its **preference
///    list** — the same list drives replication and failover, so the
///    replica that holds a plan is exactly the backend a failed request
///    falls over to.
///  - **Replication makes failover a hit.** SUBMIT_PLAN is forwarded to
///    the first `replication` routable backends of its preference list,
///    every replica written before any ack is read, and remembered in
///    the router's own registry (the mapping keyed by fingerprint). A
///    restarted backend comes back empty; a probe that finds it again
///    replays the registry into it *before* it rejoins, and the request
///    path lazily re-submits referenced plans when a backend answers
///    "unknown plan" for a plan the router holds.
///  - **One health state per backend.** A backend is routable or
///    ejected. One counter of consecutive transport failures has two
///    inputs: the request path (forwards, band pushes, shard
///    executions) and the probes. Any success resets it; `eject_after`
///    in a row eject the backend, which routing then skips with one
///    atomic load (a dead shard sheds load in O(1), no connect timeout
///    burned per request). Every `probe_interval` the reactor tick
///    posts one probe round to the handler pool (never two at once): it
///    PINGs each backend under `probe_timeout` over a link checked out
///    of that backend's pool. Ejected backends keep being probed and
///    rejoin only after a successful probe plus a full registry replay.
///  - **Failover, typed.** Transport failures and RETRY_LATER answers
///    are failover-eligible: the request is re-sent to the next backend
///    of its preference list after a capped, deterministically jittered
///    backoff. Any other typed ERROR is an *answer* and is relayed
///    as-is. When every replica is exhausted the client gets the last
///    typed error (or UNAVAILABLE "no routable backend").
///  - **The router owns the distributed offline phase.** An oversized
///    PERMUTE split into bands (an even split of its n elements, any
///    n) needs every selected shard to hold its band's gather tables.
///    The router compiles the plan once per
///    (fingerprint, shard count) — single-flight across handler
///    threads, on the first request that needs it, on the pool straight
///    into the SHARD_PLAN payloads — and keeps only those payloads (8
///    bytes per element over all shards), up to `max_plans` of them.
///    Shard s is primed with band s by SHARD_PLAN, every unprimed band
///    written before any ack is read; it never compiles the plan itself.
///    Its SHARD_EXEC rides the same link, so a warm fleet connects once.
///  - **Distributed shards are primed once per link.** Each pooled
///    backend link remembers the (fingerprint, shard count, shard)
///    bands pushed over it while it stays open (DESIGN.md §3.8). A
///    shard that answers INVALID_ARGUMENT after a skipped push is
///    re-primed and the execution retried once, under a fresh session.
///  - **One network core, pooled backend links.** Clients are served
///    by a `net::Reactor`, like the server's: an idle client costs a
///    map entry, not a thread. A request runs on the handler pool and
///    blocks there on backend I/O, over links it checks out of each
///    backend's pool; a link is opened only when none is idle.
///  - **Zero payload copies.** Requests are read into pooled storage
///    and proxied with scatter-gather writes (`write_frame_parts`);
///    a response relays straight out of the pooled buffer its link
///    read it into, and a distributed response out of each shard's.
///    The router never concatenates or re-encodes a payload it did not
///    originate, nor re-reads it for a checksum (`checksum_combine`).
///
/// PING and STATS are answered locally: PING probes the router itself,
/// STATS returns the router's own snapshot (per-backend health,
/// failovers, forward-latency histograms) as JSON.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/frame_io.hpp"
#include "net/plan_registry.hpp"
#include "net/protocol.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "perm/permutation.hpp"
#include "runtime/metrics.hpp"
#include "runtime/status.hpp"
#include "util/aligned_vector.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::net {

/// One backend permd instance, by address.
struct BackendAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string label() const {
    return host + ":" + std::to_string(port);
  }
};

class Router {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    std::vector<BackendAddress> backends;
    std::uint32_t max_payload_bytes = kDefaultMaxPayload;
    /// Client-side connection cap; excess connections get RETRY_LATER.
    std::uint32_t max_connections = 256;
    /// Bound on remembered plans (fingerprint-deduped),
    /// and on kept distributed plans (the oldest is dropped past it).
    std::uint32_t max_plans = 4096;
    /// How many backends of a plan's preference list receive its
    /// SUBMIT_PLAN (clamped to the backend count). 2 = primary + one
    /// replica, so single-backend loss never loses a plan.
    std::uint32_t replication = 2;
    /// Ring points per backend; more points = smoother key spread.
    std::uint32_t virtual_nodes = 64;
    /// Probe round cadence and per-probe budget.
    std::chrono::milliseconds probe_interval{250};
    std::chrono::milliseconds probe_timeout{1'000};
    /// Consecutive transport failures, of probes and requests alike,
    /// before a backend is ejected.
    std::uint32_t eject_after = 2;
    /// Pause before failover hop k (1-based): base << (k-1), capped,
    /// plus deterministic jitter of up to the same amount.
    std::chrono::milliseconds failover_backoff_base{2};
    std::chrono::milliseconds failover_backoff_cap{50};
    /// Transport budgets for backend links.
    std::chrono::milliseconds connect_timeout{1'000};
    std::chrono::milliseconds io_timeout{30'000};
    /// Reactor tick: timeouts and the probe cadence are honored at
    /// this granularity.
    std::chrono::milliseconds poll_interval{50};
    /// Distributed execution: a PERMUTE whose element bytes exceed this
    /// is split into bands of its n elements, one per healthy backend
    /// up to 8 (SHARD_EXEC + peer-to-peer SHARD_XCHG), instead of
    /// forwarded whole. 0 = disabled. A request that cannot be split
    /// (plan not registered here, fewer than two usable backends)
    /// falls back to single-node routing *before* any shard is touched;
    /// once distribution starts there is no fallback.
    std::uint64_t distributed_max_bytes = 0;
  };

  /// Point-in-time per-backend view (plain integers, safe to format).
  struct BackendStats {
    std::string backend;  ///< "host:port"
    bool healthy = true;  ///< not ejected
    std::uint64_t requests = 0;  ///< forward attempts (incl. failures)
    std::uint64_t ok = 0;        ///< success responses relayed
    std::uint64_t typed_errors = 0;
    std::uint64_t retry_later = 0;  ///< RETRY_LATER answers (failover-eligible)
    std::uint64_t transport_failures = 0;  ///< failed exchanges, probes included
    std::uint64_t failovers_to = 0;  ///< requests served here off-primary
    std::uint64_t ejections = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t plans_synced = 0;  ///< SUBMIT_PLANs replayed by recovery/lazy resync
    std::uint64_t connects = 0;      ///< connections opened to it
    runtime::PhaseStats forward;     ///< round trips, ns
  };

  struct Snapshot {
    std::vector<BackendStats> backends;
    std::uint64_t requests_total = 0;       ///< routed client requests
    std::uint64_t failovers_total = 0;      ///< served off the key's primary
    std::uint64_t retry_later_failovers = 0;
    std::uint64_t no_backend_available = 0;
    std::uint64_t plan_resyncs = 0;         ///< lazy per-request resyncs
    std::uint64_t dist_requests = 0;   ///< PERMUTEs executed as shard bands
    std::uint64_t dist_failures = 0;   ///< distributed attempts that failed
    std::uint64_t dist_bytes = 0;      ///< element bytes moved distributed
    std::uint64_t dist_plan_pushes = 0;  ///< SHARD_PLANs priming a shard link
    std::uint64_t dist_plan_compiles = 0;  ///< distributed plans compiled here
    runtime::PhaseStats dist_compile;  ///< each single-flight distributed compile, ns
    runtime::PhaseStats dist_prime;    ///< each round of SHARD_PLAN pushes, ns
    std::uint64_t plans_registered = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0;
    std::uint64_t protocol_errors = 0;

    [[nodiscard]] std::string to_json() const;
    /// Prometheus text exposition (0.0.4), `hmm_router_*` families with
    /// a `backend="host:port"` label on the per-backend series.
    [[nodiscard]] std::string to_prometheus() const;
  };

  explicit Router(Config config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind + listen + start the reactor, whose tick drives the probe
  /// rounds. Error if already running, no backends are configured, or
  /// the bind fails.
  runtime::Status start();

  /// Graceful shutdown: stop accepting, let in-flight requests and the
  /// current probe finish, join every thread. Idempotent; also called by
  /// the destructor.
  void stop() { reactor_.stop(); }

  [[nodiscard]] bool running() const noexcept { return reactor_.running(); }
  /// The bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return reactor_.port(); }

  [[nodiscard]] Snapshot snapshot() const;
  /// Plans remembered for replication/resync.
  [[nodiscard]] std::uint64_t plans() const { return plans_.size(); }

  // Introspection for tests and tools (stable, cheap):

  /// Backend indexes in ring-walk order for `key` — preference()[0] is
  /// the key's primary, the tail its failover order. Ignores health.
  [[nodiscard]] std::vector<std::size_t> preference(std::uint64_t key) const;
  [[nodiscard]] bool backend_healthy(std::size_t idx) const;

 private:
  /// One shard's band of a distributed plan: (fingerprint, shard
  /// count, shard index).
  using BandKey = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;

  /// One request to a backend, and the budgets of its exchange.
  struct Forward {
    std::uint16_t kind = 0;
    std::uint64_t request_id = 0;
    /// The payload, in up to two parts (SHARD_EXEC: header, then band).
    std::array<ConstBuffer, 2> payload{};
    std::chrono::milliseconds connect_budget{};
    std::chrono::milliseconds io_budget{};
    /// A stale pooled link may be reopened and the request resent (not
    /// a SHARD_EXEC: its session would run twice).
    bool resend = true;
  };

  /// A connection to one backend plus the pooled storage its response
  /// payloads land in. Used by one request at a time: checked out of
  /// the backend's pool, checked back in after the request.
  struct BackendLink {
    TcpStream stream;
    util::PooledBuffer storage;
    /// Shard bands acked over this connection.
    std::set<BandKey> primed;
    /// The request awaiting its answer, and whether its exchange opened
    /// the connection (a failure then is the backend's, not a stale
    /// pooled connection's).
    Forward sent;
    bool fresh = false;

    /// Close the connection; what it primed is forgotten with it.
    void close() noexcept {
      stream.close();
      primed.clear();
    }
    /// True when `band` was pushed over this connection and the
    /// connection is still open. An idle request/response link that
    /// polls readable has hit EOF or got a pre-frame ERROR, so it is
    /// closed here.
    bool holds(const BandKey& band);
  };

  /// The backend links one request uses: each checked out of its
  /// backend's pool on first use and checked back in, if still open,
  /// when the request is done.
  class Links {
   public:
    explicit Links(Router& router);
    ~Links();
    Links(const Links&) = delete;
    Links& operator=(const Links&) = delete;
    BackendLink& operator[](std::size_t idx);

   private:
    Router& router_;
    std::vector<std::optional<BackendLink>> links_;
  };

  /// The encoded SHARD_PLAN payloads of one distributed plan; entry s
  /// primes shard s.
  using ShardPlans = std::vector<util::uninit_vector<std::uint8_t>>;
  using ShardPlansOr = runtime::StatusOr<std::shared_ptr<const ShardPlans>>;

  struct Backend;

  struct RingPoint {
    std::uint64_t hash = 0;
    std::uint32_t backend = 0;
  };

  void build_ring();

  /// Reactor tick: post a probe round once `probe_interval` has passed
  /// and none is in flight.
  void on_tick(std::chrono::steady_clock::time_point now);
  /// PING every backend over a pooled link, feed the health state, and
  /// readmit a recovered backend after a full registry replay. Stops
  /// early once the reactor is stopping.
  void probe_round();
  runtime::Status probe(std::size_t idx, BackendLink& link);

  /// Dispatch one client frame: answer PING/STATS locally, proxy the
  /// rest over backend links checked out for this request.
  OutboundFrame respond(const FrameView& request);
  OutboundFrame handle_submit_plan(Links& links, const FrameView& request);
  /// PERMUTE / EXECUTE_PROGRAM: walk the preference list of routable
  /// backends with failover backoff and lazy plan resync.
  OutboundFrame route_request(Links& links, const FrameView& request);

  /// Oversized PERMUTE: split into bands across the healthy
  /// backends and gather (see net/distributed.hpp). The answer — the
  /// gathered bands or the typed failure — or nullopt when the request
  /// should take the single-node path instead.
  std::optional<OutboundFrame> route_distributed(Links& links, const FrameView& request);

  /// `request` under the configured connect and I/O budgets.
  [[nodiscard]] Forward forward(std::uint16_t kind, std::uint64_t request_id,
                                std::span<const std::uint8_t> payload) const {
    return {kind, request_id, {ConstBuffer{payload.data(), payload.size()}},
            config_.connect_timeout, config_.io_timeout};
  }
  /// One request/response exchange with backend `idx` over `link`:
  /// `forward_send`, then `forward_receive`. A caller with several
  /// backends to ask sends to all of them before it receives any answer.
  runtime::StatusOr<FrameView> forward_once(std::size_t idx, BackendLink& link,
                                            const Forward& request);
  /// Write `request`, connecting `link` first when it is closed. A
  /// pooled connection that fails the write is left closed (and the
  /// failure reported if the request may not be resent).
  runtime::Status forward_send(std::size_t idx, BackendLink& link, const Forward& request);
  /// Read the answer to `link.sent`, reconnecting and resending once
  /// when the pooled connection turns out stale (if `resend`). A
  /// pre-frame ERROR (request_id 0 — the backend's connection cap) is returned as a
  /// view like any typed answer.
  runtime::StatusOr<FrameView> forward_receive(std::size_t idx, BackendLink& link);

  /// Replay SUBMIT_PLANs for `fingerprints` (empty = the whole
  /// registry) over `link`; every plan must be acked with PLAN_OK.
  /// Each acked plan ticks `pushed`.
  runtime::Status push_plans(std::size_t idx, BackendLink& link,
                             std::span<const std::uint64_t> fingerprints,
                             std::atomic<std::uint64_t>& pushed);

  /// The distributed plan for (fingerprint, shard count): cached, or
  /// compiled now on this thread (see DistributedPermuter::compile)
  /// while concurrent callers for the same key wait for it. A failed
  /// compile is answered to its waiters and not kept.
  ShardPlansOr shard_plans(std::uint64_t fingerprint, std::uint32_t shards);
  ShardPlansOr compile_shard_plans(std::uint64_t fingerprint, std::uint32_t shards);

  /// One priming round: band s's SHARD_PLAN to backend `chosen[s]` for
  /// each s in `bands`, every payload written before any ack is read.
  /// An acked band joins its link's `primed` and ticks
  /// `dist_plan_pushes`, or with `resync` its backend's `plans_synced`.
  /// Returns each band's outcome, in `bands` order.
  std::vector<runtime::Status> push_bands(Links& links, std::uint64_t plan_id,
                                          std::span<const std::size_t> chosen,
                                          std::span<const std::uint32_t> bands,
                                          const ShardPlans& plans, bool resync);

  /// The health state's two transitions on the request and probe
  /// paths: a success resets the failure count, `eject_after` failures
  /// in a row eject the backend. Only a probe readmits it.
  static void record_success(Backend& b);
  void record_failure(Backend& b);

  [[nodiscard]] std::uint64_t next_router_request_id() noexcept {
    return kRouterIdTag | (router_seq_.fetch_add(1, std::memory_order_relaxed) &
                           0x0000'ffff'ffff'ffffull);
  }

  /// Routing keys: the plan fingerprint a request should rendezvous on,
  /// plus every registered-plan fingerprint it references (for lazy
  /// resync). Malformed payloads get a deterministic content hash — the
  /// backend owns rejecting them.
  struct RouteKey {
    std::uint64_t key = 0;
    std::vector<std::uint64_t> referenced;
  };
  [[nodiscard]] static RouteKey route_key(const FrameView& request);

  /// High-bits tag for router-originated request ids (probes, resyncs)
  /// so they can never collide with a proxied client id stream (client
  /// ids put a u32 trace prefix in the high half; this tag is not a
  /// plausible prefix and is never 0).
  static constexpr std::uint64_t kRouterIdTag = 0xdb00'0000'0000'0000ull;

  Config config_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::vector<RingPoint> ring_;

  /// Written only by the reactor tick; a probe round is in flight
  /// while `probing_` is set.
  std::chrono::steady_clock::time_point next_probe_{};
  std::atomic<bool> probing_{false};

  PlanRegistry plans_;

  /// Distributed plans by (fingerprint, shard count), in compile order
  /// for the `max_plans` bound. An entry is a future so that callers
  /// arriving mid-compile wait for the one compile in flight.
  using ShardPlansKey = std::pair<std::uint64_t, std::uint32_t>;
  std::mutex shard_plans_mutex_;
  std::map<ShardPlansKey, std::shared_future<ShardPlansOr>> shard_plans_;
  std::deque<ShardPlansKey> shard_plans_order_;

  std::atomic<std::uint64_t> router_seq_{0};  ///< randomly seeded by the constructor
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> failovers_total_{0};
  std::atomic<std::uint64_t> retry_later_failovers_{0};
  std::atomic<std::uint64_t> no_backend_available_{0};
  std::atomic<std::uint64_t> plan_resyncs_{0};
  std::atomic<std::uint64_t> dist_requests_{0};
  std::atomic<std::uint64_t> dist_failures_{0};
  std::atomic<std::uint64_t> dist_bytes_{0};
  std::atomic<std::uint64_t> dist_plan_pushes_{0};
  std::atomic<std::uint64_t> dist_plan_compiles_{0};
  runtime::LogHistogram dist_compile_ns_;
  runtime::LogHistogram dist_prime_ns_;
  std::atomic<std::uint64_t> protocol_errors_{0};  ///< malformed SUBMIT_PLAN payloads

  /// Declared last: its threads run the handlers above, so it stops
  /// (in ~Router) and is destroyed before any state they touch.
  Reactor reactor_;
};

}  // namespace hmm::net
