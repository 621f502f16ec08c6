#include "net/router.hpp"

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <thread>
#include <utility>

#include "net/distributed.hpp"
#include "perm/permutation.hpp"
#include "runtime/program.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

/// Per-backend runtime state. The health state (`ejected` and the
/// consecutive `failures`) is fed by the request path and the probe
/// rounds alike. Those are atomics — no lock is ever held on the
/// routing decision; `links_mutex` guards only the idle links.
struct Router::Backend {
  BackendAddress addr;
  std::string label;

  std::atomic<bool> ejected{false};
  std::atomic<std::uint32_t> failures{0};

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> typed_errors{0};
  std::atomic<std::uint64_t> retry_later{0};
  std::atomic<std::uint64_t> transport_failures{0};
  std::atomic<std::uint64_t> failovers_to{0};
  std::atomic<std::uint64_t> ejections{0};
  std::atomic<std::uint64_t> recoveries{0};
  std::atomic<std::uint64_t> plans_synced{0};
  std::atomic<std::uint64_t> connects{0};
  runtime::LogHistogram forward_ns;

  /// Idle request-path links, checked out one request at a time.
  std::mutex links_mutex;
  std::vector<BackendLink> idle_links;
};

namespace {

/// Cap on the shard fan-out of one distributed request.
constexpr std::uint64_t kMaxDistributedShards = 8;

/// Salt of the failover backoff jitter.
constexpr std::uint64_t kFailoverJitterSeed = 0xf417'0e5e'edf4'170eull;

/// A replica's answer to a SUBMIT_PLAN of plan `id`: OK for a PLAN_OK
/// naming `id`, else the typed error it carries. A PLAN_OK naming another
/// id (a replica of another build) is no ack: the fleet would route under
/// one id a plan it registered under another.
Status plan_ok(const FrameView& frame, std::uint64_t id) {
  if (static_cast<MsgKind>(frame.kind) == MsgKind::kPlanOk) {
    const StatusOr<std::uint64_t> answered = decode_plan_ok(frame.payload);
    if (answered.ok() && answered.value() == id) return Status::ok();
    return Status(StatusCode::kUnavailable, "replica's PLAN_OK names another plan id");
  }
  const Status typed = error_status(frame.payload);
  return typed.is_ok()
             ? Status(StatusCode::kUnavailable, "unexpected SUBMIT_PLAN response kind")
             : typed;
}

/// Capped jittered pause before failover hop `hop` (1-based). Same
/// recipe as Client::retry_backoff, salted by the request id so
/// concurrent failovers don't march in lockstep, yet replay runs
/// deterministically.
std::chrono::microseconds failover_pause(const Router::Config& config, int hop,
                                         std::uint64_t salt) noexcept {
  return util::jittered_backoff(config.failover_backoff_base, config.failover_backoff_cap, hop,
                                kFailoverJitterSeed ^ util::mix64(salt));
}

constexpr std::uint8_t kProbePayload[] = {'h', 'm', 'm', 'p', '?'};

OutboundFrame error_outbound(std::uint64_t request_id, const Status& why) {
  return Reactor::outbound(make_error_frame(request_id, why));
}

}  // namespace

Router::Router(Config config)
    : config_(std::move(config)),
      plans_(config_.max_plans),
      // The client side runs on the reactor's defaults, except for what
      // Router::Config already names.
      reactor_(Reactor::Config{.host = config_.host,
                               .port = config_.port,
                               .max_payload_bytes = config_.max_payload_bytes,
                               .max_connections = config_.max_connections,
                               .io_timeout = config_.io_timeout,
                               .poll_interval = config_.poll_interval},
               "router",
               Reactor::Handlers{
                   .on_request = [this](const FrameView& request,
                                        Reactor::Reply& reply) { reply.send(respond(request)); },
                   .on_tick = [this](std::chrono::steady_clock::time_point now) {
                     on_tick(now);
                   }}) {
  // Router ids double as SHARD_EXEC session ids, which shards refuse to
  // reuse: start at a random point so a restarted router does not replay
  // its predecessor's ids against the same backends.
  std::random_device entropy;
  router_seq_.store((std::uint64_t{entropy()} << 32) | entropy(), std::memory_order_relaxed);
  if (config_.virtual_nodes == 0) config_.virtual_nodes = 1;
  backends_.reserve(config_.backends.size());
  for (const BackendAddress& addr : config_.backends) {
    auto b = std::make_unique<Backend>();
    b->addr = addr;
    b->label = addr.label();
    backends_.push_back(std::move(b));
  }
  build_ring();
}

Router::~Router() { stop(); }

void Router::build_ring() {
  ring_.clear();
  ring_.reserve(backends_.size() * config_.virtual_nodes);
  for (std::uint32_t idx = 0; idx < backends_.size(); ++idx) {
    // Points are derived from the backend's *address*, not its list
    // position: reordering the --backends flag does not reshuffle keys.
    const std::uint64_t base = util::hash64(backends_[idx]->label.data(),
                                          backends_[idx]->label.size());
    for (std::uint32_t v = 0; v < config_.virtual_nodes; ++v) {
      ring_.push_back(RingPoint{util::mix64(base ^ (0x9e3779b97f4a7c15ull * (v + 1))), idx});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a, const RingPoint& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.backend < b.backend;
  });
}

std::vector<std::size_t> Router::preference(std::uint64_t key) const {
  std::vector<std::size_t> order;
  if (ring_.empty()) return order;
  order.reserve(backends_.size());
  std::vector<bool> seen(backends_.size(), false);
  const std::uint64_t point = util::mix64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const RingPoint& rp, std::uint64_t v) { return rp.hash < v; });
  for (std::size_t walked = 0;
       walked < ring_.size() && order.size() < backends_.size(); ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->backend]) {
      seen[it->backend] = true;
      order.push_back(it->backend);
    }
  }
  return order;
}

bool Router::backend_healthy(std::size_t idx) const {
  return idx < backends_.size() && !backends_[idx]->ejected.load(std::memory_order_acquire);
}

Status Router::start() {
  if (running()) return Status(StatusCode::kInvalidArgument, "router already running");
  if (backends_.empty()) {
    return Status(StatusCode::kInvalidArgument, "router needs at least one backend");
  }
  return reactor_.start();
}

Router::Links::Links(Router& router) : router_(router), links_(router.backends_.size()) {}

Router::Links::~Links() {
  for (std::size_t idx = 0; idx < links_.size(); ++idx) {
    if (!links_[idx] || !links_[idx]->stream.valid()) continue;
    Backend& b = *router_.backends_[idx];
    std::lock_guard lock(b.links_mutex);
    // A link that holds bands is the next one checked out; one that
    // holds none (a probe's, a plain forward's) queues behind it, so a
    // band is not pushed again over a spare link.
    if (links_[idx]->primed.empty()) {
      b.idle_links.insert(b.idle_links.begin(), std::move(*links_[idx]));
    } else {
      b.idle_links.push_back(std::move(*links_[idx]));
    }
  }
}

Router::BackendLink& Router::Links::operator[](std::size_t idx) {
  std::optional<BackendLink>& link = links_[idx];
  if (!link) {
    Backend& b = *router_.backends_[idx];
    std::lock_guard lock(b.links_mutex);
    if (b.idle_links.empty()) return link.emplace();
    link.emplace(std::move(b.idle_links.back()));
    b.idle_links.pop_back();
  }
  return *link;
}

OutboundFrame Router::respond(const FrameView& request) {
  // Checked back in when respond returns, before the answer is sent: the
  // client's next request finds them idle.
  Links links(*this);
  switch (static_cast<MsgKind>(request.kind)) {
    case MsgKind::kPing:
      // Answered locally: PING through the router probes the router.
      return Reactor::outbound(make_ok_frame(
          request.request_id, MsgKind::kPingOk,
          std::vector<std::uint8_t>(request.payload.begin(), request.payload.end())));
    case MsgKind::kStats: {
      // The router's own snapshot, not any single backend's.
      const std::string json = snapshot().to_json();
      return Reactor::outbound(
          make_ok_frame(request.request_id, MsgKind::kStatsOk, {json.begin(), json.end()}));
    }
    case MsgKind::kSubmitPlan:
      return handle_submit_plan(links, request);
    case MsgKind::kPermute:
    case MsgKind::kExecuteProgram:
      return route_request(links, request);
    default:
      return error_outbound(request.request_id,
                            Status(StatusCode::kInvalidArgument, "unknown request kind"));
  }
}

Router::RouteKey Router::route_key(const FrameView& request) const {
  RouteKey rk;
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  if (static_cast<MsgKind>(request.kind) == MsgKind::kPermute) {
    // The plan id is the fingerprint.
    if (StatusOr<PermuteRequestView> permute =
            PermuteRequestView::decode(request.payload, max_elements);
        permute.ok()) {
      rk.key = permute.value().plan_id;
      rk.referenced.push_back(rk.key);
      return rk;
    }
  } else if (StatusOr<ExecuteProgramRequestView> program =
                 ExecuteProgramRequestView::decode(request.payload, max_elements);
             program.ok()) {
    // Route on the first registered-plan operand so a chain and the
    // PERMUTEs it replaces land on the same shard; a chain that
    // references several plans colocates with its *first* one and lazy
    // resync covers the rest.
    for (const runtime::ProgramOp& op : program.value().ops) {
      if (op.op == runtime::ProgramOpCode::kPermute ||
          op.op == runtime::ProgramOpCode::kInverse) {
        rk.referenced.push_back(op.arg);
      }
    }
    // A generator-only chain is stateless, so it spreads by op content.
    rk.key = rk.referenced.empty()
                 ? runtime::program_fingerprint(program.value().ops, program.value().data.count)
                       .value
                 : rk.referenced.front();
    return rk;
  }
  // Malformed payload: still route deterministically (content hash) and
  // let the backend own the typed rejection.
  const std::span<const std::uint8_t> p = request.payload;
  rk.key = util::hash64(p.data(), std::min<std::size_t>(p.size(), 256));
  return rk;
}

void Router::record_success(Backend& b) { b.failures.store(0, std::memory_order_relaxed); }

void Router::record_failure(Backend& b) {
  b.transport_failures.fetch_add(1, std::memory_order_relaxed);
  if (b.failures.fetch_add(1, std::memory_order_acq_rel) + 1 >= config_.eject_after &&
      !b.ejected.exchange(true, std::memory_order_acq_rel)) {
    b.ejections.fetch_add(1, std::memory_order_relaxed);
  }
}

StatusOr<FrameView> Router::forward_once(std::size_t idx, BackendLink& link,
                                         const Forward& request) {
  if (Status sent = forward_send(idx, link, request); !sent.is_ok()) return sent;
  return forward_receive(idx, link);
}

Status Router::forward_send(std::size_t idx, BackendLink& link, const Forward& request) {
  link.sent = request;
  link.fresh = !link.stream.valid();
  if (link.fresh) {
    Backend& b = *backends_[idx];
    b.connects.fetch_add(1, std::memory_order_relaxed);
    StatusOr<TcpStream> conn = tcp_connect(b.addr.host, b.addr.port, request.connect_budget);
    if (!conn.ok()) return conn.status();
    link.stream = std::move(conn).value();
  }
  // Probes and requests share links but not budgets.
  (void)link.stream.set_io_timeout(request.io_budget, request.io_budget);
  Status written = write_frame_parts(link.stream, request.kind, request.request_id,
                                     request.payload);
  if (!written.is_ok()) link.close();
  return link.fresh || !request.resend ? written : Status::ok();
}

StatusOr<FrameView> Router::forward_receive(std::size_t idx, BackendLink& link) {
  // Up to one transparent reconnect-and-resend: a pooled link the
  // backend quietly closed between requests (idle timeout, restart)
  // shows up as a send failure or an immediate EOF. Requests are pure
  // (PERMUTE/PROGRAM compute a function of the payload; SUBMIT_PLAN and
  // SHARD_PLAN are idempotent), so a single resend is safe.
  for (;;) {
    if (!link.stream.valid()) {
      if (Status resent = forward_send(idx, link, link.sent); !resent.is_ok()) return resent;
    }
    StatusOr<FrameView> response = read_frame_view(link.stream, util::BufferPool::global(),
                                                   link.storage, config_.max_payload_bytes);
    if (!response.ok()) {
      link.close();
      // Only the peer-gone taxonomy is retriable here; a timeout means
      // the backend may still be working the request — resending would
      // double the load exactly when it is struggling.
      if (link.fresh || !link.sent.resend ||
          response.status().code() != StatusCode::kUnavailable) {
        return response.status();
      }
      continue;
    }
    const FrameView& frame = response.value();
    if (frame.request_id == 0 && static_cast<MsgKind>(frame.kind) == MsgKind::kError) {
      // Pre-frame ERROR: the backend's connection cap answered the
      // *connection*, not our frame (and will close it). Surface the
      // typed frame; the caller maps it like any other ERROR answer.
      link.close();
      return response;
    }
    if (frame.request_id != link.sent.request_id ||
        (static_cast<MsgKind>(frame.kind) != MsgKind::kError &&
         frame.kind != static_cast<std::uint16_t>(link.sent.kind | 0x80u))) {
      link.close();
      return Status(StatusCode::kUnavailable, "backend response does not answer the request");
    }
    return response;
  }
}

bool Router::BackendLink::holds(const BandKey& band) {
  if (!primed.contains(band)) return false;
  const StatusOr<bool> readable = stream.poll_readable(std::chrono::milliseconds{0});
  if (readable.ok() && !readable.value()) return true;
  close();
  return false;
}

Status Router::push_plans(std::size_t idx, BackendLink& link,
                          std::span<const std::uint64_t> fingerprints,
                          std::atomic<std::uint64_t>& pushed) {
  std::vector<std::pair<std::uint64_t, PlanRegistry::Plan>> to_sync;
  if (fingerprints.empty()) to_sync = plans_.all();
  for (const std::uint64_t fp : fingerprints) {
    PlanRegistry::Plan plan = plans_.find(fp);
    if (plan == nullptr) {
      return Status(StatusCode::kInvalidArgument, "plan is not in the router registry");
    }
    to_sync.emplace_back(fp, std::move(plan));
  }
  for (const auto& [fp, plan] : to_sync) {
    // The count, then the mapping straight from the registry, as
    // Client::submit_plan sends it.
    const Head8 count = encode_submit_plan(plan->size());
    std::vector<std::uint8_t> staging;
    const std::span<const std::uint8_t> mapping = wire_words(plan->data(), staging);
    Forward submit = forward(static_cast<std::uint16_t>(MsgKind::kSubmitPlan),
                             next_router_request_id(), count);
    submit.payload[1] = {mapping.data(), mapping.size()};
    StatusOr<FrameView> response = forward_once(idx, link, submit);
    if (!response.ok()) return response.status();
    if (Status s = plan_ok(response.value(), fp); !s.is_ok()) return s;
    pushed.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::ok();
}

Router::ShardPlansOr Router::shard_plans(std::uint64_t fingerprint, std::uint32_t shards) {
  const ShardPlansKey key{fingerprint, shards};
  std::promise<ShardPlansOr> promise;
  std::shared_future<ShardPlansOr> result;
  bool compile = false;
  {
    std::lock_guard lock(shard_plans_mutex_);
    if (const auto it = shard_plans_.find(key); it != shard_plans_.end()) {
      result = it->second;
    } else {
      result = promise.get_future().share();
      compile = true;
      shard_plans_.emplace(key, result);
      shard_plans_order_.push_back(key);
      while (shard_plans_order_.size() > std::max(1u, config_.max_plans)) {
        shard_plans_.erase(shard_plans_order_.front());
        shard_plans_order_.pop_front();
      }
    }
  }
  if (compile) {
    // Every outcome, a throw included, is answered: waiters must not
    // hang on a promise that is never kept.
    ShardPlansOr compiled = Status(StatusCode::kResourceExhausted, "allocation failed");
    util::Stopwatch clock;
    try {
      compiled = compile_shard_plans(fingerprint, shards);
    } catch (const std::bad_alloc&) {
    } catch (const std::exception& e) {
      compiled = Status(StatusCode::kUnavailable, e.what());
    }
    dist_compile_ns_.record(static_cast<std::uint64_t>(clock.nanos()));
    const bool failed = !compiled.ok();
    promise.set_value(std::move(compiled));
    if (failed) {
      // Forget the failure so a later request compiles afresh (an entry
      // still compiling under this key is someone else's, and stays).
      std::lock_guard lock(shard_plans_mutex_);
      if (const auto it = shard_plans_.find(key);
          it != shard_plans_.end() &&
          it->second.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
          !it->second.get().ok()) {
        shard_plans_.erase(it);
        std::erase(shard_plans_order_, key);
      }
    }
  }
  return result.get();
}

Router::ShardPlansOr Router::compile_shard_plans(std::uint64_t fingerprint,
                                                 std::uint32_t shards) {
  const PlanRegistry::Plan plan = plans_.find(fingerprint);
  if (plan == nullptr) {
    return Status(StatusCode::kInvalidArgument, "plan is not in the router registry");
  }
  StatusOr<ShardPlans> compiled = DistributedPermuter::compile(*plan, fingerprint, shards);
  if (!compiled.ok()) return compiled.status();
  dist_plan_compiles_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<const ShardPlans>(std::move(compiled).value());
}

std::vector<Status> Router::push_bands(Links& links, std::uint64_t plan_id,
                                       std::span<const std::size_t> chosen,
                                       std::span<const std::uint32_t> bands,
                                       const ShardPlans& plans, bool resync) {
  util::Stopwatch clock;
  std::vector<Status> acks;
  for (const std::uint32_t s : bands) {
    acks.push_back(forward_send(chosen[s], links[chosen[s]],
                                forward(static_cast<std::uint16_t>(MsgKind::kShardPlan),
                                        next_router_request_id(), plans[s])));
  }
  for (std::size_t k = 0; k < bands.size(); ++k) {
    const std::size_t idx = chosen[bands[k]];
    if (!acks[k].is_ok()) continue;
    StatusOr<FrameView> response = forward_receive(idx, links[idx]);
    acks[k] = response.ok()
                  ? shard_plan_outcome(response.value().kind, response.value().payload)
                  : response.status();
    if (!acks[k].is_ok()) continue;
    links[idx].primed.insert(
        BandKey{plan_id, static_cast<std::uint32_t>(chosen.size()), bands[k]});
    (resync ? backends_[idx]->plans_synced : dist_plan_pushes_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  dist_prime_ns_.record(static_cast<std::uint64_t>(clock.nanos()));
  return acks;
}

std::optional<OutboundFrame> Router::route_distributed(Links& links, const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<PermuteRequestView> req = PermuteRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return std::nullopt;  // single-node path owns the rejection
  const std::uint64_t n = req.value().data.count;
  const std::uint64_t data_bytes = n * kElemBytes;
  if (data_bytes <= config_.distributed_max_bytes) return std::nullopt;

  // The shard set: walk the plan's preference list (deterministic per
  // plan, same order failover uses) keeping the healthy backends.
  const std::uint64_t plan_id = req.value().plan_id;
  std::vector<std::size_t> usable;
  for (const std::size_t idx : preference(plan_id)) {
    if (backend_healthy(idx)) usable.push_back(idx);
  }
  const std::uint64_t want_by_size =
      (data_bytes + config_.distributed_max_bytes - 1) / config_.distributed_max_bytes;
  std::uint64_t shards = std::max<std::uint64_t>(2, want_by_size);
  shards = std::min<std::uint64_t>({shards, kMaxDistributedShards, usable.size(), n});
  if (shards < 2) return std::nullopt;  // not enough fleet: single-node path

  // Every shard must hold its band's tables before SHARD_EXEC arrives.
  // The router compiles the plan once per shard count and primes shard
  // s with band s; a link that already pushed that band, and is still
  // open, is skipped. Each round writes every band still to push before
  // it reads any ack. A backend that cannot be primed counts a failure
  // and is replaced by the next usable one, whose band goes out in the
  // next round, or, with no spare left, dropped, which changes the
  // shard count and so every band; distribution only proceeds while two
  // shards remain.
  std::vector<std::size_t> chosen(usable.begin(), usable.begin() + shards);
  std::size_t spare = chosen.size();
  std::shared_ptr<const ShardPlans> plans;
  std::vector<std::uint32_t> skipped;  ///< band indexes whose push was skipped
  const auto band_key = [&](std::uint32_t s) {
    return BandKey{plan_id, static_cast<std::uint32_t>(chosen.size()), s};
  };
  for (bool all_primed = false; !all_primed;) {
    if (chosen.size() < 2) return std::nullopt;  // not enough fleet: single-node path
    ShardPlansOr compiled = shard_plans(plan_id, static_cast<std::uint32_t>(chosen.size()));
    // Not in the router registry: the single-node path owns the answer.
    if (!compiled.ok()) return std::nullopt;
    plans = std::move(compiled).value();
    skipped.clear();
    std::vector<std::uint32_t> unprimed;
    for (std::uint32_t s = 0; s < chosen.size(); ++s) {
      (links[chosen[s]].holds(band_key(s)) ? skipped : unprimed).push_back(s);
    }
    all_primed = true;
    while (!unprimed.empty() && all_primed) {
      const std::vector<Status> acks =
          push_bands(links, plan_id, chosen, unprimed, *plans, /*resync=*/false);
      std::vector<std::uint32_t> dropped;
      std::vector<std::uint32_t> replaced;
      for (std::size_t k = 0; k < unprimed.size(); ++k) {
        if (acks[k].is_ok()) continue;
        // The backend refuses the band (an old server answers SHARD_PLAN
        // as an unknown kind): the single-node path owns the answer.
        if (acks[k].code() == StatusCode::kInvalidArgument) return std::nullopt;
        const std::uint32_t s = unprimed[k];
        record_failure(*backends_[chosen[s]]);
        if (spare < usable.size()) {
          chosen[s] = usable[spare++];  // same band, next usable backend
          replaced.push_back(s);
        } else {
          dropped.push_back(s);
        }
      }
      unprimed = std::move(replaced);
      for (auto s = dropped.rbegin(); s != dropped.rend(); ++s) {
        chosen.erase(chosen.begin() + *s);
      }
      all_primed = dropped.empty();  // else a new shard count: every band changes
    }
  }
  shards = chosen.size();

  dist_requests_.fetch_add(1, std::memory_order_relaxed);

  std::vector<ShardTarget> targets;
  targets.reserve(shards);
  for (const std::size_t idx : chosen) {
    targets.push_back(ShardTarget{backends_[idx]->addr.host, backends_[idx]->addr.port, idx});
  }

  // Band s rides the link that primed it; a link that fails stays closed.
  const auto execute = [&] {
    const std::uint64_t session = next_router_request_id();
    const DistributedPermuter::Transport over_links{
        .send = [&](std::uint32_t s, std::span<const ConstBuffer> payload) {
          Forward exec = forward(static_cast<std::uint16_t>(MsgKind::kShardExec), session, {});
          std::copy(payload.begin(), payload.end(), exec.payload.begin());
          exec.resend = false;
          return forward_send(chosen[s], links[chosen[s]], exec);
        },
        .receive = [&](std::uint32_t s, util::PooledBuffer& storage) {
          StatusOr<FrameView> answer = forward_receive(chosen[s], links[chosen[s]]);
          storage = std::move(links[chosen[s]].storage);
          return answer;
        }};
    return DistributedPermuter::execute(
        over_links, session, plan_id, req.value().deadline_ms, n, 1, req.value().data.bytes,
        targets, [this](std::size_t idx) { record_failure(*backends_[idx]); });
  };
  StatusOr<DistributedPermuter::Result> result = execute();
  if (!result.ok() && result.status().code() == StatusCode::kInvalidArgument &&
      !skipped.empty()) {
    // A shard refused its band although the push was skipped: it
    // dropped the band (or restarted) while the link still looked open.
    // Re-prime every skipped link and retry once under a fresh session
    // id — the distributed twin of the single-node lazy resync, sound
    // because PERMUTE is pure.
    for (const std::uint32_t s : skipped) links[chosen[s]].primed.erase(band_key(s));
    const std::vector<Status> acks =
        push_bands(links, plan_id, chosen, skipped, *plans, /*resync=*/true);
    if (std::ranges::all_of(acks, &Status::is_ok)) {
      plan_resyncs_.fetch_add(1, std::memory_order_relaxed);
      result = execute();
    }
  }
  if (!result.ok()) {
    // No fallback once distribution was attempted: the client gets the
    // typed failure and owns the retry decision.
    dist_failures_.fetch_add(1, std::memory_order_relaxed);
    return error_outbound(request.request_id, result.status());
  }
  for (const std::size_t idx : chosen) {
    record_success(*backends_[idx]);
    backends_[idx]->ok.fetch_add(1, std::memory_order_relaxed);
  }
  dist_bytes_.fetch_add(data_bytes, std::memory_order_relaxed);

  // Relay as one PERMUTE_OK: count header + the band payloads straight
  // out of each shard's pooled response buffer, in band order.
  const Head8 head = encode_words_ok(n);
  std::uint64_t checksum = checksum_bytes(head);
  std::vector<OutboundFrame::Segment> segments;
  segments.reserve(result.value().bands.size());
  for (DistributedPermuter::Band& band : result.value().bands) {
    checksum = checksum_combine(checksum, band.digest, band.bytes.size());
    const auto offset = static_cast<std::size_t>(band.bytes.data() - band.storage.data());
    segments.push_back({std::move(band.storage), offset, band.bytes.size()});
  }
  // n elements were a request payload, so the relayed frame is in bounds.
  return make_outbound_frame(static_cast<std::uint16_t>(MsgKind::kPermuteOk),
                             request.request_id, head, std::move(segments), {}, checksum)
      .value();
}

OutboundFrame Router::route_request(Links& links, const FrameView& request) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (static_cast<MsgKind>(request.kind) == MsgKind::kPermute &&
      config_.distributed_max_bytes > 0) {
    if (std::optional<OutboundFrame> answer = route_distributed(links, request)) {
      return std::move(*answer);
    }
  }
  const RouteKey rk = route_key(request);
  const std::vector<std::size_t> prefs = preference(rk.key);
  const std::size_t primary = prefs.empty() ? 0 : prefs[0];

  // The relayed payload leaves from the pooled buffer the link read it
  // into, which the outbound frame takes over, checksum and all.
  const auto relay = [&](const FrameView& frame, std::size_t idx) {
    if (idx != primary) {
      failovers_total_.fetch_add(1, std::memory_order_relaxed);
      backends_[idx]->failovers_to.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<OutboundFrame::Segment> segments;
    segments.push_back({std::move(links[idx].storage), 0, frame.payload.size()});
    return make_outbound_frame(frame.kind, request.request_id, {}, std::move(segments), {},
                               frame.checksum)
        .value();
  };

  Status last(StatusCode::kUnavailable, "no routable backend");
  bool attempted_any = false;
  int hop = 0;
  for (const std::size_t idx : prefs) {
    if (!backend_healthy(idx)) continue;
    Backend& b = *backends_[idx];
    if (attempted_any) {
      ++hop;
      const std::chrono::microseconds pause = failover_pause(config_, hop, request.request_id);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
    attempted_any = true;

    bool next_backend = false;
    for (int pass = 0; pass < 2 && !next_backend; ++pass) {
      b.requests.fetch_add(1, std::memory_order_relaxed);
      util::Stopwatch clock;
      StatusOr<FrameView> response = forward_once(
          idx, links[idx], forward(request.kind, request.request_id, request.payload));
      if (!response.ok()) {
        record_failure(b);
        last = response.status();
        next_backend = true;
        break;
      }
      b.forward_ns.record(static_cast<std::uint64_t>(clock.nanos()));
      record_success(b);
      const FrameView& frame = response.value();
      if (static_cast<MsgKind>(frame.kind) != MsgKind::kError) {
        b.ok.fetch_add(1, std::memory_order_relaxed);
        return relay(frame, idx);
      }
      const Status typed = error_status(frame.payload);
      if (typed.code() == StatusCode::kResourceExhausted) {
        // RETRY_LATER is failover-eligible: the backend is alive but
        // full, and the replica may have headroom right now.
        b.retry_later.fetch_add(1, std::memory_order_relaxed);
        retry_later_failovers_.fetch_add(1, std::memory_order_relaxed);
        last = typed;
        next_backend = true;
        break;
      }
      if (typed.code() == StatusCode::kInvalidArgument && pass == 0 &&
          !rk.referenced.empty() &&
          push_plans(idx, links[idx], rk.referenced, b.plans_synced).is_ok()) {
        // "Unknown plan" from a backend that restarted unnoticed by the
        // probes: replay the referenced plans on this very connection
        // and retry once. (A genuinely malformed request re-earns the
        // same typed error on the retry.)
        plan_resyncs_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Any other typed error is an answer; relay it verbatim.
      b.typed_errors.fetch_add(1, std::memory_order_relaxed);
      return relay(frame, idx);
    }
  }

  if (!attempted_any) no_backend_available_.fetch_add(1, std::memory_order_relaxed);
  return error_outbound(request.request_id, last);
}

OutboundFrame Router::handle_submit_plan(Links& links, const FrameView& request) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<SubmitPlanRequestView> req =
      SubmitPlanRequestView::decode(request.payload, max_elements);
  if (!req.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return error_outbound(request.request_id, req.status());
  }

  // Register before touching any backend: a mapping the fleet would
  // reject, or one whose id names another registered mapping, must not
  // be replicated. The registry keeps the validated permutation, which
  // the distributed compile reads as it is.
  const StatusOr<std::uint64_t> registered = plans_.submit(req.value().mapping.bytes);
  if (!registered.ok()) return error_outbound(request.request_id, registered.status());
  const std::uint64_t fingerprint = registered.value();

  // Replicate to the first `replication` routable backends of the
  // fingerprint's preference list, writing to each before reading any
  // ack; a replica that fails is replaced by the next routable backend.
  // One ack answers the client — lazy resync, or the registry replay on
  // recovery, heals any replica that missed its copy.
  const std::vector<std::size_t> prefs = preference(fingerprint);
  const auto want = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(config_.replication,
                                 static_cast<std::uint32_t>(backends_.size())));
  std::uint32_t acked = 0;
  Status last(StatusCode::kUnavailable, "no routable backend");
  for (auto next = prefs.begin(); acked < want;) {
    std::vector<std::pair<std::size_t, util::Stopwatch>> sent;
    for (; next != prefs.end() && acked + sent.size() < want; ++next) {
      if (!backend_healthy(*next)) continue;
      backends_[*next]->requests.fetch_add(1, std::memory_order_relaxed);
      util::Stopwatch clock;
      if (Status s = forward_send(*next, links[*next],
                                  forward(request.kind, request.request_id, request.payload));
          !s.is_ok()) {
        record_failure(*backends_[*next]);
        last = s;
        continue;
      }
      sent.emplace_back(*next, clock);
    }
    if (sent.empty()) break;
    for (const auto& [idx, clock] : sent) {
      Backend& b = *backends_[idx];
      StatusOr<FrameView> response = forward_receive(idx, links[idx]);
      if (!response.ok()) {
        record_failure(b);
        last = response.status();
        continue;
      }
      b.forward_ns.record(static_cast<std::uint64_t>(clock.nanos()));
      record_success(b);
      const Status answer = plan_ok(response.value(), fingerprint);
      if (answer.is_ok()) {
        b.ok.fetch_add(1, std::memory_order_relaxed);
        ++acked;
        continue;
      }
      (answer.code() == StatusCode::kResourceExhausted ? b.retry_later : b.typed_errors)
          .fetch_add(1, std::memory_order_relaxed);
      last = answer;
    }
  }

  if (acked == 0) return error_outbound(request.request_id, last);
  // The PLAN_OK payload is the fingerprint we computed — what every
  // replica that acked answered.
  const Head8 id = encode_plan_ok(fingerprint);
  return Reactor::outbound(
      make_ok_frame(request.request_id, MsgKind::kPlanOk, {id.begin(), id.end()}));
}

void Router::on_tick(std::chrono::steady_clock::time_point now) {
  if (now < next_probe_ || probing_.exchange(true, std::memory_order_acq_rel)) return;
  next_probe_ = now + config_.probe_interval;
  reactor_.post([this] {
    probe_round();
    probing_.store(false, std::memory_order_release);
  });
}

void Router::probe_round() {
  Links links(*this);
  for (std::size_t idx = 0; idx < backends_.size() && running(); ++idx) {
    Backend& b = *backends_[idx];
    if (!probe(idx, links[idx]).is_ok()) {
      links[idx].close();
      record_failure(b);
    } else if (!b.ejected.load(std::memory_order_acquire)) {
      record_success(b);
    } else if (push_plans(idx, links[idx], {}, b.plans_synced).is_ok()) {
      // Recovery = successful probe + a full registry replay, in that
      // order: a restarted backend rejoins the ring already holding
      // every plan it may be asked to serve.
      record_success(b);
      b.ejected.store(false, std::memory_order_release);
      b.recoveries.fetch_add(1, std::memory_order_relaxed);
    } else {
      links[idx].close();
    }
  }
}

Status Router::probe(std::size_t idx, BackendLink& link) {
  Forward ping = forward(static_cast<std::uint16_t>(MsgKind::kPing), next_router_request_id(),
                         {kProbePayload, sizeof(kProbePayload)});
  ping.connect_budget = ping.io_budget = config_.probe_timeout;
  StatusOr<FrameView> response = forward_once(idx, link, ping);
  if (!response.ok()) return response.status();
  const FrameView& frame = response.value();
  if (static_cast<MsgKind>(frame.kind) == MsgKind::kError) {
    const Status typed = error_status(frame.payload);
    if (typed.code() == StatusCode::kResourceExhausted) {
      // At connection capacity — busy, but alive. Ejecting it would
      // only dogpile the survivors.
      return Status::ok();
    }
    return typed.is_ok() ? Status(StatusCode::kUnavailable, "probe answered with ERROR") : typed;
  }
  if (frame.payload.size() != sizeof(kProbePayload) ||
      std::memcmp(frame.payload.data(), kProbePayload, sizeof(kProbePayload)) != 0) {
    return Status(StatusCode::kUnavailable, "probe echo mismatch");
  }
  return Status::ok();
}

Router::Snapshot Router::snapshot() const {
  Snapshot s;
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.failovers_total = failovers_total_.load(std::memory_order_relaxed);
  s.retry_later_failovers = retry_later_failovers_.load(std::memory_order_relaxed);
  s.no_backend_available = no_backend_available_.load(std::memory_order_relaxed);
  s.plan_resyncs = plan_resyncs_.load(std::memory_order_relaxed);
  s.dist_requests = dist_requests_.load(std::memory_order_relaxed);
  s.dist_failures = dist_failures_.load(std::memory_order_relaxed);
  s.dist_bytes = dist_bytes_.load(std::memory_order_relaxed);
  s.dist_plan_pushes = dist_plan_pushes_.load(std::memory_order_relaxed);
  s.dist_plan_compiles = dist_plan_compiles_.load(std::memory_order_relaxed);
  s.dist_compile = dist_compile_ns_.stats();
  s.dist_prime = dist_prime_ns_.stats();
  s.plans_registered = plans_.size();
  const Reactor::Counters io = reactor_.counters();
  s.connections_accepted = io.connections_accepted;
  s.connections_rejected = io.connections_rejected;
  s.protocol_errors = io.protocol_errors + protocol_errors_.load(std::memory_order_relaxed);
  s.backends.reserve(backends_.size());
  for (const auto& bp : backends_) {
    const Backend& b = *bp;
    BackendStats bs;
    bs.backend = b.label;
    bs.healthy = !b.ejected.load(std::memory_order_acquire);
    bs.requests = b.requests.load(std::memory_order_relaxed);
    bs.ok = b.ok.load(std::memory_order_relaxed);
    bs.typed_errors = b.typed_errors.load(std::memory_order_relaxed);
    bs.retry_later = b.retry_later.load(std::memory_order_relaxed);
    bs.transport_failures = b.transport_failures.load(std::memory_order_relaxed);
    bs.failovers_to = b.failovers_to.load(std::memory_order_relaxed);
    bs.ejections = b.ejections.load(std::memory_order_relaxed);
    bs.recoveries = b.recoveries.load(std::memory_order_relaxed);
    bs.plans_synced = b.plans_synced.load(std::memory_order_relaxed);
    bs.connects = b.connects.load(std::memory_order_relaxed);
    bs.forward = b.forward_ns.stats();
    s.backends.push_back(std::move(bs));
  }
  return s;
}

std::string Router::Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"router\":{";
  os << "\"requests_total\":" << requests_total;
  os << ",\"failovers_total\":" << failovers_total;
  os << ",\"retry_later_failovers\":" << retry_later_failovers;
  os << ",\"no_backend_available\":" << no_backend_available;
  os << ",\"plan_resyncs\":" << plan_resyncs;
  os << ",\"distributed_requests\":" << dist_requests;
  os << ",\"distributed_failures\":" << dist_failures;
  os << ",\"distributed_bytes\":" << dist_bytes;
  os << ",\"distributed_plan_pushes\":" << dist_plan_pushes;
  os << ",\"distributed_plan_compiles\":" << dist_plan_compiles;
  for (const auto& [name, phase] : {std::pair{"dist_compile_ms", &dist_compile},
                                    std::pair{"dist_prime_ms", &dist_prime}}) {
    os << ",\"" << name << "\":{\"count\":" << phase->count
       << ",\"p50\":" << util::format_double(static_cast<double>(phase->p50) / 1e6, 3)
       << ",\"max\":" << util::format_double(static_cast<double>(phase->max) / 1e6, 3) << "}";
  }
  std::uint64_t connects = 0;
  for (const BackendStats& b : backends) connects += b.connects;
  os << ",\"backend_connects\":" << connects;
  os << ",\"plans_registered\":" << plans_registered;
  os << ",\"connections_accepted\":" << connections_accepted;
  os << ",\"connections_rejected\":" << connections_rejected;
  os << ",\"protocol_errors\":" << protocol_errors;
  os << ",\"backends\":[";
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const BackendStats& b = backends[i];
    if (i > 0) os << ",";
    os << "{\"backend\":\"" << b.backend << "\"";
    os << ",\"healthy\":" << (b.healthy ? "true" : "false");
    os << ",\"requests\":" << b.requests;
    os << ",\"ok\":" << b.ok;
    os << ",\"typed_errors\":" << b.typed_errors;
    os << ",\"retry_later\":" << b.retry_later;
    os << ",\"transport_failures\":" << b.transport_failures;
    os << ",\"failovers_to\":" << b.failovers_to;
    os << ",\"ejections\":" << b.ejections;
    os << ",\"recoveries\":" << b.recoveries;
    os << ",\"plans_synced\":" << b.plans_synced;
    os << ",\"connects\":" << b.connects;
    os << ",\"forward_count\":" << b.forward.count;
    os << ",\"forward_ns_sum\":" << b.forward.ns_sum;
    os << ",\"forward_ns_p50\":" << b.forward.p50;
    os << ",\"forward_ns_p99\":" << b.forward.p99;
    os << ",\"forward_ns_max\":" << b.forward.max;
    os << "}";
  }
  os << "]}}";
  return os.str();
}

std::string Router::Snapshot::to_prometheus() const {
  std::ostringstream os;
  const auto counter = [&os](std::string_view name, std::string_view help,
                             std::uint64_t value) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " counter\n"
       << name << " " << value << "\n";
  };
  counter("hmm_router_requests_total", "Client requests routed to backends.", requests_total);
  counter("hmm_router_failovers_total", "Requests served off their key's primary backend.",
          failovers_total);
  counter("hmm_router_retry_later_failovers_total",
          "RETRY_LATER answers treated as failover-eligible.", retry_later_failovers);
  counter("hmm_router_no_backend_available_total",
          "Requests with zero routable backends.", no_backend_available);
  counter("hmm_router_plan_resyncs_total", "Lazy per-request plan resyncs.", plan_resyncs);
  counter("hmm_router_distributed_requests_total",
          "PERMUTEs executed as distributed shard bands.", dist_requests);
  counter("hmm_router_distributed_failures_total",
          "Distributed executions that failed after being attempted.", dist_failures);
  counter("hmm_router_distributed_bytes_total",
          "Element bytes served through the distributed path.", dist_bytes);
  counter("hmm_router_distributed_plan_pushes_total",
          "SHARD_PLANs priming a shard link for distributed execution.", dist_plan_pushes);
  counter("hmm_router_distributed_plan_compiles_total",
          "Distributed plans compiled by the router (once per plan and shard count).",
          dist_plan_compiles);
  counter("hmm_router_plans_registered_total", "Distinct plans remembered for replication.",
          plans_registered);
  counter("hmm_router_connections_accepted_total", "Client connections accepted.",
          connections_accepted);
  counter("hmm_router_connections_rejected_total",
          "Client connections refused at the connection cap.", connections_rejected);
  counter("hmm_router_protocol_errors_total", "Malformed client frames.", protocol_errors);

  const auto per_backend = [&os, this](std::string_view name, std::string_view help,
                                       auto field) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " counter\n";
    for (const BackendStats& b : backends) {
      os << name << "{backend=\"" << b.backend << "\"} " << field(b) << "\n";
    }
  };
  per_backend("hmm_router_backend_requests_total", "Forward attempts per backend.",
              [](const BackendStats& b) { return b.requests; });
  per_backend("hmm_router_backend_ok_total", "Success responses relayed per backend.",
              [](const BackendStats& b) { return b.ok; });
  per_backend("hmm_router_backend_typed_errors_total",
              "Non-RETRY_LATER typed errors relayed per backend.",
              [](const BackendStats& b) { return b.typed_errors; });
  per_backend("hmm_router_backend_retry_later_total", "RETRY_LATER answers per backend.",
              [](const BackendStats& b) { return b.retry_later; });
  per_backend("hmm_router_backend_transport_failures_total",
              "Transport-level failures per backend (requests and probes).",
              [](const BackendStats& b) { return b.transport_failures; });
  per_backend("hmm_router_backend_failovers_to_total",
              "Requests this backend absorbed off-primary.",
              [](const BackendStats& b) { return b.failovers_to; });
  per_backend("hmm_router_backend_ejections_total",
              "Ejections after consecutive failures on the probe or request path.",
              [](const BackendStats& b) { return b.ejections; });
  per_backend("hmm_router_backend_recoveries_total",
              "Rejoins after a successful probe + plan resync.",
              [](const BackendStats& b) { return b.recoveries; });
  per_backend("hmm_router_backend_plans_synced_total",
              "SUBMIT_PLANs replayed by recovery or lazy resync.",
              [](const BackendStats& b) { return b.plans_synced; });
  per_backend("hmm_router_backend_connects_total", "Connections opened to the backend.",
              [](const BackendStats& b) { return b.connects; });

  os << "# HELP hmm_router_backend_healthy 1 while the backend is in the ring.\n"
     << "# TYPE hmm_router_backend_healthy gauge\n";
  for (const BackendStats& b : backends) {
    os << "hmm_router_backend_healthy{backend=\"" << b.backend << "\"} "
       << (b.healthy ? 1 : 0) << "\n";
  }

  // Latencies as summaries, quantiles from the log2 histograms
  // (factor-of-two resolution); _sum/_count are exact.
  const auto seconds = [](std::uint64_t ns) {
    return util::format_double(static_cast<double>(ns) / 1e9, 9);
  };
  const auto summary = [&](std::string_view name, const std::string& label,
                           const runtime::PhaseStats& st) {
    const std::string tag = label.empty() ? "" : "{" + label + "}";
    const std::string at = label.empty() ? "{" : "{" + label + ",";
    os << name << at << "quantile=\"0.5\"} " << seconds(st.p50) << "\n"
       << name << at << "quantile=\"0.99\"} " << seconds(st.p99) << "\n"
       << name << "_sum" << tag << " " << seconds(st.ns_sum) << "\n"
       << name << "_count" << tag << " " << st.count << "\n";
  };
  os << "# HELP hmm_router_backend_forward_latency_seconds Round-trip time to the backend.\n"
     << "# TYPE hmm_router_backend_forward_latency_seconds summary\n";
  for (const BackendStats& b : backends) {
    summary("hmm_router_backend_forward_latency_seconds", "backend=\"" + b.backend + "\"",
            b.forward);
  }
  for (const auto& [name, help, phase] :
       {std::tuple{"hmm_router_distributed_compile_seconds",
                   "Compiles of a distributed plan into its SHARD_PLAN payloads.",
                   &dist_compile},
        std::tuple{"hmm_router_distributed_prime_seconds",
                   "Rounds of SHARD_PLAN pushes, every payload sent before any ack is read.",
                   &dist_prime}}) {
    os << "# HELP " << name << " " << help << "\n# TYPE " << name << " summary\n";
    summary(name, "", *phase);
  }
  return os.str();
}

}  // namespace hmm::net
