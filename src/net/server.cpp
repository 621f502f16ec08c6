#include "net/server.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "cpu/kernels.hpp"
#include "runtime/distributed.hpp"
#include "runtime/metrics.hpp"
#include "util/buffer_pool.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

Server::Server(runtime::RobustPermuteService& service, Config config)
    : service_(service),
      config_(std::move(config)),
      plans_(config_.max_plans),
      shard_sessions_(
          ShardSessionRegistry::Config{config_.shard_exchange_timeout,
                                       config_.max_shard_hold_bytes},
          util::BufferPool::global(),
          ShardSession::Hooks{
              [this](std::shared_ptr<ShardSession> session) {
                reactor_.post([this, session = std::move(session)] { merge_shard(session); });
              },
              [this](Reactor::Reply reply, const Status& why) {
                shard_aborts_.fetch_add(1, std::memory_order_relaxed);
                const std::uint64_t request_id = reply.request_id();
                reply.send(error_outbound(request_id, why));
              }}),
      reactor_(config_, "server",
               Reactor::Handlers{
                   [this](const FrameView& request, Reactor::Reply& reply) {
                     handle_request(request, reply);
                   },
                   [](std::uint16_t kind) {
                     return static_cast<MsgKind>(kind) == MsgKind::kShardXchg;
                   },
                   [this](std::chrono::steady_clock::time_point now) {
                     shard_sessions_.tick(now);
                   }}) {}

Server::~Server() { stop(); }

Status Server::start() { return reactor_.start(); }

void Server::stop() {
  if (!reactor_.running()) return;
  reactor_.stop();
  // Every request was awaited by a handler, so the executor is normally
  // idle already; the timeout guards against a stalled worker holding
  // teardown hostage.
  (void)service_.wait_idle_for(Reactor::kDrainTimeout);
}

Server::Counters Server::counters() const {
  Counters c{reactor_.counters()};
  c.plans_registered = plans_.size();
  c.shard_execs = shard_execs_.load(std::memory_order_relaxed);
  c.shard_blocks = shard_sessions_.blocks();
  c.shard_xchg_bytes = shard_xchg_bytes_.load(std::memory_order_relaxed);
  c.shard_aborts = shard_aborts_.load(std::memory_order_relaxed);
  c.shard_hold_rejections = shard_sessions_.hold_rejections();
  c.shard_compiles = shard_compiles_.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t Server::shard_plans() const {
  std::lock_guard lock(bands_mutex_);
  return bands_.size();
}

std::uint64_t Server::shard_plan_bytes() const {
  std::lock_guard lock(bands_mutex_);
  return band_bytes_;
}

std::string Server::to_prometheus() const {
  const Counters c = counters();
  std::ostringstream os;
  const auto family = [&os](std::string_view name, std::string_view type, std::string_view help,
                            std::uint64_t value) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " " << type << "\n"
       << name << " " << value << "\n";
  };
  family("hmm_server_shard_plans", "gauge", "Shard bands held (primed or compiled here).",
         shard_plans());
  family("hmm_server_shard_plan_bytes", "gauge",
         "Pack and merge table bytes of the shard bands held.", shard_plan_bytes());
  family("hmm_server_shard_compiles_total", "counter",
         "Shard bands compiled here because none was primed.", c.shard_compiles);
  family("hmm_server_shard_execs_total", "counter", "SHARD_EXEC band executions completed.",
         c.shard_execs);
  family("hmm_server_shard_aborts_total", "counter", "Shard sessions that failed mid-flight.",
         c.shard_aborts);
  family("hmm_server_shard_xchg_bytes_total", "counter",
         "Element bytes this shard pushed to its peers.", c.shard_xchg_bytes);
  return os.str();
}

// ---------------------------------------------------------------------------
// Request dispatch (handler-side)
// ---------------------------------------------------------------------------

OutboundFrame Server::to_outbound(Frame frame) {
  // The serialize span covers header build + streamed checksum — the
  // last leg of the request's wall time, invisible to the executor's
  // breakdown. (The socket write itself happens on the io thread.)
  util::Stopwatch serialize_clock;
  OutboundFrame out = Reactor::outbound(std::move(frame));
  service_.metrics().record_phase(runtime::Phase::kSerialize,
                                  static_cast<std::uint64_t>(serialize_clock.nanos()));
  return out;
}

OutboundFrame Server::error_outbound(std::uint64_t request_id, const Status& why) {
  return to_outbound(make_error_frame(request_id, why));
}

OutboundFrame Server::elements_outbound(MsgKind kind, std::uint64_t request_id,
                                        util::PooledBuffer buf, std::uint64_t count) {
  const std::span<std::uint32_t> span = buf.as_span<std::uint32_t>(count);
  std::uint8_t count_header[8];
  for (int i = 0; i < 8; ++i) count_header[i] = static_cast<std::uint8_t>(count >> (8 * i));
  if constexpr (std::endian::native != std::endian::little) {
    for (std::uint32_t& w : span) {
      w = ((w & 0xff000000u) >> 24) | ((w & 0x00ff0000u) >> 8) | ((w & 0x0000ff00u) << 8) |
          ((w & 0x000000ffu) << 24);
    }
  }
  util::Stopwatch serialize_clock;
  std::vector<OutboundFrame::Segment> segments;
  segments.push_back({std::move(buf), 0, count * sizeof(std::uint32_t)});
  StatusOr<OutboundFrame> out = make_outbound_frame(
      static_cast<std::uint16_t>(kind), request_id, {count_header, sizeof(count_header)},
      std::move(segments), {});
  service_.metrics().record_phase(runtime::Phase::kSerialize,
                                  static_cast<std::uint64_t>(serialize_clock.nanos()));
  // count is bounded by max_payload_bytes / 4, so this cannot overflow.
  return std::move(out).value();
}

void Server::handle_request(const FrameView& request, Reactor::Reply& reply) {
  switch (static_cast<MsgKind>(request.kind)) {
    case MsgKind::kPing:
      // The echo copies out of the connection's read buffer: the
      // response outlives the handler, the reader storage must not.
      return reply.send(to_outbound(make_ok_frame(
          request.request_id, MsgKind::kPingOk,
          std::vector<std::uint8_t>(request.payload.begin(), request.payload.end()))));
    case MsgKind::kSubmitPlan:
      return reply.send(to_outbound(handle_submit_plan(request)));
    case MsgKind::kPermute:
      return reply.send(handle_permute(request));
    case MsgKind::kExecuteProgram:
      return reply.send(handle_program(request));
    case MsgKind::kShardPlan:
      return reply.send(to_outbound(handle_shard_plan(request)));
    case MsgKind::kShardExec:
      return handle_shard_exec(request, std::move(reply));
    case MsgKind::kShardXchg:
      return handle_shard_xchg(request, std::move(reply));
    case MsgKind::kStats:
      return reply.send(to_outbound(handle_stats(request.request_id)));
    default:
      return reply.send(error_outbound(
          request.request_id, Status(StatusCode::kInvalidArgument, "unknown request kind")));
  }
}

Frame Server::handle_submit_plan(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<SubmitPlanRequestView> req =
      SubmitPlanRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return make_error_frame(request.request_id, req.status());
  const StatusOr<std::uint64_t> plan_id = plans_.submit(req.value().mapping.bytes);
  if (!plan_id.ok()) return make_error_frame(request.request_id, plan_id.status());
  ByteWriter w;
  w.put_u64(plan_id.value());
  return make_ok_frame(request.request_id, MsgKind::kPlanOk, w.take());
}

namespace {

/// A request's elements as a span: the wire bytes in place when they are
/// aligned native words (both request layouts keep them 4-aligned in
/// pooled storage, and they stay put while the request is in flight,
/// since EPOLLIN is paused), else one bounded copy into `copy`.
StatusOr<std::span<const std::uint32_t>> elements_of(const WordsView& data,
                                                     util::PooledBuffer& copy) {
  const std::span<const std::uint32_t> in = data.in_place();
  if (!in.empty() || data.count == 0) return in;
  copy = util::BufferPool::global().try_acquire(data.count * sizeof(std::uint32_t));
  if (!copy.valid()) {
    return Status(StatusCode::kResourceExhausted, "buffer pool refused the request buffer");
  }
  const std::span<std::uint32_t> words = copy.as_span<std::uint32_t>(data.count);
  data.copy_to(words);
  return std::span<const std::uint32_t>(words);
}

/// The client's relative budget becomes an absolute executor deadline
/// here — queueing and kernel phases all draw from it. The wire request
/// id doubles as the trace id: the client controls it (trace prefix in
/// the high half), we echo it in the response and thread it to the
/// slow-request log.
runtime::RequestOptions request_options(std::uint32_t deadline_ms, std::uint64_t request_id) {
  runtime::RequestOptions opts;
  if (deadline_ms > 0) {
    opts.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  opts.trace_id = request_id;
  return opts;
}

}  // namespace

OutboundFrame Server::run_elements(std::uint64_t request_id, MsgKind kind, const WordsView& data,
                                   const Submit& submit) {
  util::PooledBuffer in_copy;
  StatusOr<std::span<const std::uint32_t>> in = elements_of(data, in_copy);
  if (!in.ok()) return error_outbound(request_id, in.status());
  // Output elements: pooled (a steady stream of same-sized requests
  // recycles the same blocks), serialized scatter-gather without ever
  // being copied into a response payload.
  util::PooledBuffer out = util::BufferPool::global().try_acquire(data.count * kElemBytes);
  if (!out.valid()) {
    return error_outbound(request_id, Status(StatusCode::kResourceExhausted,
                                             "buffer pool refused the response buffer"));
  }
  StatusOr<std::future<Status>> submitted =
      submit(in.value(), out.as_span<std::uint32_t>(data.count));
  if (!submitted.ok()) return error_outbound(request_id, submitted.status());
  const Status outcome = submitted.value().get();
  if (!outcome.is_ok()) return error_outbound(request_id, outcome);
  return elements_outbound(kind, request_id, std::move(out), data.count);
}

OutboundFrame Server::handle_permute(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<PermuteRequestView> req = PermuteRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return error_outbound(request.request_id, req.status());
  const PermuteRequestView& permute = req.value();

  const PlanRegistry::Plan plan = plans_.find(permute.plan_id);
  if (plan == nullptr) {
    return error_outbound(request.request_id,
                          Status(StatusCode::kInvalidArgument,
                                 "PERMUTE: unknown plan id (SUBMIT_PLAN it first)"));
  }
  if (permute.data.count != plan->size()) {
    return error_outbound(request.request_id,
                          Status(StatusCode::kInvalidArgument,
                                 "PERMUTE: element count does not match the plan size"));
  }
  const runtime::RequestOptions opts = request_options(permute.deadline_ms, request.request_id);
  return run_elements(request.request_id, MsgKind::kPermuteOk, permute.data,
                      [&](std::span<const std::uint32_t> in, std::span<std::uint32_t> out) {
                        return service_.submit<std::uint32_t>(*plan, in, out, opts);
                      });
}

OutboundFrame Server::handle_program(const FrameView& request) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<ExecuteProgramRequestView> req =
      ExecuteProgramRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return error_outbound(request.request_id, req.status());
  const ExecuteProgramRequestView& program_req = req.value();

  // The wire plan id is the mapping fingerprint, so the registry *is*
  // the resolver: one locked lookup per op, at most kMaxProgramOps.
  const runtime::PlanResolver resolver = [this](std::uint64_t fingerprint) {
    return plans_.find(fingerprint);
  };
  runtime::Program program;
  program.ops = program_req.ops;
  const runtime::RequestOptions opts =
      request_options(program_req.deadline_ms, request.request_id);
  // PROGRAM_OK mirrors PERMUTE_OK byte for byte.
  return run_elements(request.request_id, MsgKind::kProgramOk, program_req.data,
                      [&](std::span<const std::uint32_t> in, std::span<std::uint32_t> out) {
                        return service_.submit_program<std::uint32_t>(program, resolver, in,
                                                                      out, opts);
                      });
}

namespace {

/// Milliseconds left until `deadline`, floored at 1ms so socket
/// timeouts stay armed right up to the abort.
std::chrono::milliseconds budget_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return std::max(left, std::chrono::milliseconds(1));
}

/// A peer's SHARD_XCHG answer: OK for the ack, the typed status of an
/// ERROR frame, kUnavailable for anything else.
Status block_ack(const StatusOr<FrameView>& ack, std::uint64_t session_id) {
  if (!ack.ok()) return ack.status();
  if (static_cast<MsgKind>(ack.value().kind) == MsgKind::kError) {
    return error_status(ack.value().payload);
  }
  if (static_cast<MsgKind>(ack.value().kind) != MsgKind::kShardXchgOk ||
      ack.value().request_id != session_id) {
    return Status(StatusCode::kUnavailable, "peer shard sent an unexpected exchange ack");
  }
  return Status::ok();
}

/// A dead peer mid-exchange is the canonical distributed failure:
/// surface it transient so the coordinator fails the request typed
/// instead of hanging on this shard. A typed refusal stays as it is.
Status peer_failed(std::uint32_t dst, const Status& why) {
  if (why.code() == StatusCode::kInvalidArgument) return why;
  return Status(StatusCode::kUnavailable, "peer shard " + std::to_string(dst) +
                                              " unreachable during exchange: " + why.message());
}

/// Send one block to peer `dst` over a fresh connection. A peer with no
/// elements from this shard still gets its (empty) block: every pair of
/// shards meets in every exchange, so a peer that refused the session
/// is heard from at once.
StatusOr<TcpStream> push_block(const ShardPeer& peer, std::uint64_t session_id,
                               std::uint32_t me, std::span<const std::uint32_t> block,
                               std::chrono::steady_clock::time_point deadline) {
  StatusOr<TcpStream> conn = tcp_connect(peer.host, peer.port, budget_until(deadline));
  if (!conn.ok()) return conn.status();
  TcpStream link = std::move(conn).value();
  const auto budget = budget_until(deadline);
  (void)link.set_io_timeout(budget, budget);

  ShardXchgRequest header;
  header.session_id = session_id;
  header.src_shard = me;
  const std::vector<std::uint8_t> prefix = header.encode_prefix(block.size());
  Status sent;
  if constexpr (std::endian::native == std::endian::little) {
    // Native words are already wire order: the block leaves straight
    // from the packed band, scatter-gathered.
    const ConstBuffer parts[] = {{prefix.data(), prefix.size()},
                                 {block.data(), block.size_bytes()}};
    sent = write_frame_parts(link, static_cast<std::uint16_t>(MsgKind::kShardXchg), session_id,
                             parts);
  } else {
    header.block.assign(block.begin(), block.end());
    sent = write_frame(link, make_ok_frame(session_id, MsgKind::kShardXchg, header.encode()));
  }
  if (!sent.is_ok()) return sent;
  return link;
}

}  // namespace

void Server::handle_shard_exec(const FrameView& request, Reactor::Reply reply) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<ShardExecRequestView> req = ShardExecRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return reply.send(error_outbound(request.request_id, req.status()));
  const ShardExecRequestView& exec = req.value();

  // Until the session exists, a failure tombstones its id so the peers'
  // blocks for it are answered at once.
  const auto refuse = [&](const Status& why) {
    shard_sessions_.refuse(exec.session_id);
    shard_aborts_.fetch_add(1, std::memory_order_relaxed);
    reply.send(error_outbound(request.request_id, why));
  };
  StatusOr<std::shared_ptr<const runtime::BandExchange>> band_or = band_for(exec);
  if (!band_or.ok()) return refuse(band_or.status());
  const std::shared_ptr<const runtime::BandExchange> band = std::move(band_or).value();
  const std::uint64_t band_elems = band->elements();
  if (exec.band.count != band_elems) {
    return refuse(Status(StatusCode::kInvalidArgument,
                         "SHARD_EXEC: band element count does not match the band split"));
  }

  // The session's budget is the server's knob, tightened by the
  // request's own deadline when it carries one.
  const auto started = std::chrono::steady_clock::now();
  auto deadline = started + config_.shard_exchange_timeout;
  if (exec.deadline_ms > 0) {
    deadline = std::min(deadline, started + std::chrono::milliseconds(exec.deadline_ms));
  }
  StatusOr<std::shared_ptr<ShardSession>> session_or =
      shard_sessions_.create(exec.session_id, band, deadline);
  if (!session_or.ok()) {
    shard_aborts_.fetch_add(1, std::memory_order_relaxed);
    return reply.send(error_outbound(request.request_id, session_or.status()));
  }
  const std::shared_ptr<ShardSession> session = std::move(session_or).value();
  // From here every failure erases the session; leaving the reply with
  // an aborted session answers it through the abort hook.
  const auto abort = [&](const Status& why) {
    shard_sessions_.erase(exec.session_id, why);
    session->leave(std::move(reply));
  };

  util::PooledBuffer in_copy;
  StatusOr<std::span<const std::uint32_t>> in = elements_of(exec.band, in_copy);
  if (!in.ok()) return abort(in.status());
  util::PooledBuffer packed =
      util::BufferPool::global().try_acquire(band_elems * sizeof(std::uint32_t));
  if (!packed.valid()) {
    return abort(Status(StatusCode::kResourceExhausted,
                        "buffer pool refused the shard pack buffer"));
  }
  const std::span<std::uint32_t> packed_span = packed.as_span<std::uint32_t>(band_elems);

  // Pack: the band grouped by destination shard, in destination order.
  cpu::gather<std::uint32_t>(util::ThreadPool::global(), in.value(), packed_span, band->pack());

  // Exchange: the self block is copied into its slot, and every peer
  // block leaves over its own connection, whose ack the reactor reads.
  const std::uint32_t me = band->shard();
  const auto self = packed_span.subspan(band->send_offset(me), band->send()[me]);
  std::copy(self.begin(), self.end(), session->recv_span().begin() + band->recv_offset(me));
  for (std::uint32_t dst = 0; dst < band->bands().shards(); ++dst) {
    if (dst == me) continue;
    const std::span<const std::uint32_t> block =
        packed_span.subspan(band->send_offset(dst), band->send()[dst]);
    StatusOr<TcpStream> link =
        push_block(exec.peers[dst], exec.session_id, me, block, deadline);
    if (!link.ok()) return abort(peer_failed(dst, link.status()));
    shard_xchg_bytes_.fetch_add(block.size_bytes(), std::memory_order_relaxed);
    reactor_.await_response(
        std::move(link).value(), deadline,
        [this, id = exec.session_id, dst](const StatusOr<FrameView>& ack) {
          if (const Status acked = block_ack(ack, id); !acked.is_ok()) {
            shard_sessions_.erase(id, peer_failed(dst, acked));
          }
        });
  }
  session->leave(std::move(reply));
}

void Server::merge_shard(const std::shared_ptr<ShardSession>& session) {
  Reactor::Reply reply = session->take_reply();
  const std::uint64_t request_id = reply.request_id();
  const std::uint64_t band_elems = session->band().elements();
  util::PooledBuffer result =
      util::BufferPool::global().try_acquire(band_elems * sizeof(std::uint32_t));
  if (!result.valid()) {
    shard_sessions_.erase(session->id(), Status(StatusCode::kUnavailable, "shard session closed"));
    shard_aborts_.fetch_add(1, std::memory_order_relaxed);
    return reply.send(error_outbound(
        request_id, Status(StatusCode::kResourceExhausted,
                           "buffer pool refused the shard merge buffer")));
  }
  // Merge: the received blocks into this band of the final array.
  cpu::gather<std::uint32_t>(util::ThreadPool::global(),
                             std::span<const std::uint32_t>(session->recv_span()),
                             result.as_span<std::uint32_t>(band_elems), session->band().merge());
  shard_sessions_.erase(session->id(), Status(StatusCode::kUnavailable, "shard session closed"));
  shard_execs_.fetch_add(1, std::memory_order_relaxed);
  reply.send(elements_outbound(MsgKind::kShardExecOk, request_id, std::move(result), band_elems));
}

Frame Server::handle_shard_plan(const FrameView& request) {
  StatusOr<ShardPlanRequest> req = ShardPlanRequest::decode(request.payload);
  if (!req.ok()) return make_error_frame(request.request_id, req.status());
  store_band(req.value().plan_id,
             std::make_shared<const runtime::BandExchange>(std::move(req.value().band)));
  return make_ok_frame(request.request_id, MsgKind::kShardPlanOk, {});
}

void Server::store_band(std::uint64_t plan_id,
                        std::shared_ptr<const runtime::BandExchange> band) {
  const BandKey key{plan_id, band->bands().shards(), band->shard()};
  std::lock_guard lock(bands_mutex_);
  if (const auto it = band_index_.find(key); it != band_index_.end()) {
    band_bytes_ -= it->second->second->table_bytes();
    bands_.erase(it->second);
    band_index_.erase(it);
  }
  band_bytes_ += band->table_bytes();
  bands_.emplace_back(key, std::move(band));
  band_index_.emplace(key, std::prev(bands_.end()));
  while (bands_.size() > std::max(1u, config_.max_plans)) {
    band_bytes_ -= bands_.front().second->table_bytes();
    band_index_.erase(bands_.front().first);
    bands_.pop_front();
  }
}

StatusOr<std::shared_ptr<const runtime::BandExchange>> Server::band_for(
    const ShardExecRequestView& exec) {
  const BandKey key{exec.plan_id, exec.shard_count(), exec.shard_index};
  std::shared_ptr<const runtime::BandExchange> band;
  {
    std::lock_guard lock(bands_mutex_);
    if (const auto it = band_index_.find(key); it != band_index_.end()) {
      band = it->second->second;
    }
  }
  if (band != nullptr) {
    if (band->bands().elements() != exec.n) {
      return Status(StatusCode::kInvalidArgument,
                    "SHARD_EXEC: element count does not match the primed band");
    }
    return band;
  }

  // Not primed: compile here, with the router's O(n) compile, if the
  // plan was registered here.
  const PlanRegistry::Plan plan = plans_.find(exec.plan_id);
  if (plan == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_EXEC: unknown plan id (SHARD_PLAN or SUBMIT_PLAN it first)");
  }
  if (plan->size() != exec.n) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_EXEC: element count does not match the plan size");
  }
  StatusOr<runtime::BandPlan> bands = runtime::BandPlan::build(exec.n, exec.shard_count());
  if (!bands.ok()) return bands.status();
  StatusOr<std::vector<runtime::BandExchange>> compiled =
      runtime::BandExchange::compile(*plan, bands.value());
  if (!compiled.ok()) return compiled.status();
  band = std::make_shared<const runtime::BandExchange>(
      std::move(compiled.value()[exec.shard_index]));
  shard_compiles_.fetch_add(1, std::memory_order_relaxed);
  store_band(exec.plan_id, band);
  return band;
}

void Server::handle_shard_xchg(const FrameView& request, Reactor::Reply reply) {
  const std::uint64_t max_elements = config_.max_payload_bytes / kElemBytes;
  StatusOr<ShardXchgRequestView> req = ShardXchgRequestView::decode(request.payload, max_elements);
  if (!req.ok()) return reply.send(error_outbound(request.request_id, req.status()));
  shard_sessions_.deliver(req.value().session_id, req.value().src_shard, req.value().block,
                          request.payload.size(), std::move(reply));
}

Frame Server::handle_stats(std::uint64_t request_id) {
  const std::string service_json = service_.metrics().snapshot().to_json();
  // Splice the server-side counters the service layer cannot see
  // (connection admission, framing violations, idle closes) in front of
  // the service fields: {"server":{...},<service fields>}.
  const Counters c = counters();
  std::ostringstream os;
  os << "{\"server\":{"
     << "\"connections_accepted\":" << c.connections_accepted
     << ",\"connections_rejected\":" << c.connections_rejected
     << ",\"requests_ok\":" << c.requests_ok
     << ",\"requests_error\":" << c.requests_error
     << ",\"protocol_errors\":" << c.protocol_errors
     << ",\"plans_registered\":" << c.plans_registered
     << ",\"idle_closed\":" << c.idle_closed
     << ",\"shard_execs\":" << c.shard_execs
     << ",\"shard_blocks\":" << c.shard_blocks
     << ",\"shard_xchg_bytes\":" << c.shard_xchg_bytes
     << ",\"shard_aborts\":" << c.shard_aborts
     << ",\"shard_sessions\":" << shard_sessions_.size()
     << ",\"shard_hold_bytes\":" << shard_sessions_.held_bytes()
     << ",\"shard_hold_rejections\":" << c.shard_hold_rejections
     << ",\"shard_plans\":" << shard_plans()
     << ",\"shard_plan_bytes\":" << shard_plan_bytes()
     << ",\"shard_compiles\":" << c.shard_compiles
     << ",\"io_threads\":" << reactor_.io_threads()
     << ",\"plans\":" << plans() << "}";
  if (service_json.size() > 2 && service_json.front() == '{') {
    os << "," << service_json.substr(1);
  } else {
    os << "}";
  }
  ByteWriter w;
  w.put_string(os.str());
  return make_ok_frame(request_id, MsgKind::kStatsOk, w.take());
}

}  // namespace hmm::net
