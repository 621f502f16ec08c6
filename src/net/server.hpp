#pragma once
/// \file server.hpp
/// \brief The permd TCP front-end: HMMP request handlers on a
///        `net::Reactor`, fronting a `RobustPermuteService`.
///
/// Connections, framing, timeouts, admission, drain and the handler
/// pool are the reactor's (net/reactor.hpp); the server is its request
/// handlers. PERMUTE and EXECUTE_PROGRAM block on the executor future
/// on a handler thread; a relative `deadline_ms` becomes an absolute
/// executor deadline at decode time, and an executor admission
/// rejection answers RETRY_LATER. The shard exchange runs as
/// continuations (net/shard.hpp): SHARD_XCHG inline on the io thread,
/// SHARD_EXEC on a handler thread that leaves its Reply with the
/// session, so no thread waits on a peer and a bounded handler pool
/// cannot deadlock an exchange across shards.
///
/// Plans are registered once via SUBMIT_PLAN and shared by all
/// connections: the registry maps the mapping's fingerprint to the
/// `perm::Permutation`, and the `RobustPermuteService`'s PlanCache
/// keys compiled plans off the same fingerprint — a hot plan is
/// compiled once, no matter how many connections use it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "net/frame_io.hpp"
#include "net/plan_registry.hpp"
#include "net/protocol.hpp"
#include "net/reactor.hpp"
#include "net/shard.hpp"
#include "perm/permutation.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"

namespace hmm::net {

class Server {
 public:
  /// The reactor's settings plus the server's own.
  struct Config : Reactor::Config {
    /// Upper bound on registered plans (fingerprint-deduplicated).
    /// At the bound, SUBMIT_PLAN answers RETRY_LATER. The same bound
    /// caps the shard bands held; past it the oldest band is dropped
    /// (the router re-primes a dropped band on its next use).
    std::uint32_t max_plans = 4096;
    /// Distributed execution: bound on a shard session (from its
    /// SHARD_EXEC to its last peer block) and on an early SHARD_XCHG
    /// block waiting for its session. A shard whose peer dies
    /// mid-exchange fails typed (kUnavailable) and releases its
    /// buffers after this long.
    std::chrono::milliseconds shard_exchange_timeout{10'000};
    /// Cap on pooled bytes pinned by early-arrival SHARD_XCHG blocks
    /// waiting for their session to materialize (see
    /// ShardSessionRegistry::Config::max_pending_hold_bytes).
    std::uint64_t max_shard_hold_bytes = 256ull << 20;
  };

  /// Monotonic counters (relaxed; advisory): the reactor's plus the
  /// server's own.
  struct Counters : Reactor::Counters {
    std::uint64_t plans_registered = 0;
    std::uint64_t shard_execs = 0;        ///< SHARD_EXEC band executions completed
    std::uint64_t shard_blocks = 0;       ///< SHARD_XCHG blocks accepted
    std::uint64_t shard_xchg_bytes = 0;   ///< element bytes pushed to peers
    std::uint64_t shard_aborts = 0;       ///< shard sessions that failed mid-flight
    std::uint64_t shard_hold_rejections = 0;  ///< early-arrival holds over budget
    /// Bands this shard compiled itself: SHARD_EXECs whose band was
    /// never primed by SHARD_PLAN but whose plan was registered.
    std::uint64_t shard_compiles = 0;

    /// Responses of either kind delivered to a client.
    [[nodiscard]] std::uint64_t requests_served() const noexcept {
      return requests_ok + requests_error;
    }
  };

  explicit Server(runtime::RobustPermuteService& service) : Server(service, Config{}) {}
  Server(runtime::RobustPermuteService& service, Config config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the reactor (io threads, handler pool and
  /// accept thread). Error if already running or the bind fails.
  runtime::Status start();

  /// Graceful shutdown: stop accepting, drain in-flight requests, join
  /// every thread. Idempotent; also called by the destructor.
  void stop();

  [[nodiscard]] bool running() const noexcept { return reactor_.running(); }
  /// The bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return reactor_.port(); }
  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::uint64_t plans() const { return plans_.size(); }
  /// Shard bands held (primed by SHARD_PLAN or compiled on a miss), and
  /// the pack and merge table bytes they occupy (8 per band element).
  [[nodiscard]] std::uint64_t shard_plans() const;
  [[nodiscard]] std::uint64_t shard_plan_bytes() const;
  /// The server-level Prometheus families (`hmm_server_*`): shard band
  /// state and shard counters, to append after the service snapshot's
  /// exposition.
  [[nodiscard]] std::string to_prometheus() const;

 private:
  /// Answer one decoded request, or hand its reply to a shard
  /// continuation. Every failure becomes a typed ERROR frame.
  void handle_request(const FrameView& request, Reactor::Reply& reply);

  /// The PERMUTE hot path: pooled input/output element buffers and a
  /// scatter-gather response (no payload concatenation).
  OutboundFrame handle_permute(const FrameView& request);

  /// EXECUTE_PROGRAM: same pooled/scatter-gather shape as PERMUTE, with
  /// the op chain resolved against the SUBMIT_PLAN registry and handed
  /// to the service's program path.
  OutboundFrame handle_program(const FrameView& request);

  /// The shape PERMUTE and EXECUTE_PROGRAM share: `submit` the request's
  /// elements into a pooled output buffer, await the executor, and
  /// answer `kind` with the buffer.
  using Submit = std::function<runtime::StatusOr<std::future<runtime::Status>>(
      std::span<const std::uint32_t> in, std::span<std::uint32_t> out)>;
  OutboundFrame run_elements(std::uint64_t request_id, MsgKind kind, const WordsView& data,
                             const Submit& submit);

  /// SHARD_EXEC: this shard's band of a distributed PERMUTE —
  /// create the session, pack, copy the self block, push one block at
  /// every peer, and leave `reply` with the session for the merge.
  /// Every failure aborts and erases the session (buffers released)
  /// and answers typed.
  void handle_shard_exec(const FrameView& request, Reactor::Reply reply);

  /// The session's last block landed: merge the received blocks into
  /// the band and answer SHARD_EXEC_OK. On a handler thread.
  void merge_shard(const std::shared_ptr<ShardSession>& session);

  /// SHARD_PLAN: validate one shard's tables (the decode does) and
  /// store them under (plan id, shard count, shard).
  Frame handle_shard_plan(const FrameView& request);

  /// The band a SHARD_EXEC runs: the primed one, or — on a miss, when
  /// the plan was registered with SUBMIT_PLAN — one compiled here and
  /// stored under the same key.
  runtime::StatusOr<std::shared_ptr<const runtime::BandExchange>> band_for(
      const ShardExecRequestView& exec);
  void store_band(std::uint64_t plan_id, std::shared_ptr<const runtime::BandExchange> band);

  /// SHARD_XCHG, inline on the io thread: hand the block to its
  /// session (see ShardSessionRegistry::deliver).
  void handle_shard_xchg(const FrameView& request, Reactor::Reply reply);

  Frame handle_submit_plan(const FrameView& request);
  Frame handle_stats(std::uint64_t request_id);

  /// Build the [u64 count | elements] success response shared by
  /// PERMUTE_OK / PROGRAM_OK / SHARD_EXEC_OK: the count header rides in
  /// the frame's inline prefix, the element bytes leave straight from
  /// the pooled result buffer (byteswapped in place first on a
  /// big-endian host), never concatenated.
  OutboundFrame elements_outbound(MsgKind kind, std::uint64_t request_id,
                                  util::PooledBuffer buf, std::uint64_t count);

  /// Convert an owned Frame into an OutboundFrame, timing the
  /// serialize span (header build + streamed checksum). The tag is
  /// derived from the frame kind.
  OutboundFrame to_outbound(Frame frame);
  OutboundFrame error_outbound(std::uint64_t request_id, const runtime::Status& why);

  runtime::RobustPermuteService& service_;
  Config config_;

  PlanRegistry plans_;

  ShardSessionRegistry shard_sessions_;

  /// The shard's bands, keyed by (plan id, shard count, shard), in
  /// arrival order: a band re-stored under its key moves to the back,
  /// and past `max_plans` bands the oldest is dropped.
  using BandKey = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;
  using BandList =
      std::list<std::pair<BandKey, std::shared_ptr<const runtime::BandExchange>>>;
  mutable std::mutex bands_mutex_;
  BandList bands_;
  std::map<BandKey, BandList::iterator> band_index_;
  std::uint64_t band_bytes_ = 0;

  std::atomic<std::uint64_t> shard_execs_{0};
  std::atomic<std::uint64_t> shard_xchg_bytes_{0};
  std::atomic<std::uint64_t> shard_aborts_{0};
  std::atomic<std::uint64_t> shard_compiles_{0};

  /// Declared last: its threads run the handlers above, so it stops
  /// (in ~Server) and is destroyed before any state they touch.
  Reactor reactor_;
};

}  // namespace hmm::net
