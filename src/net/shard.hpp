#pragma once
/// \file shard.hpp
/// \brief Shard-side state of a distributed PERMUTE: the session
///        registry that pairs one SHARD_EXEC execution with the
///        SHARD_XCHG blocks its peers push at it, as continuations.
///
/// A session is keyed by a coordinator-chosen id (DESIGN.md §3.8). The
/// SHARD_EXEC handler creates it (the receive buffer comes from the
/// pool up front), pushes its blocks and leaves its Reply with it.
/// SHARD_XCHG blocks land from io threads; one that outraces its
/// session parks its Reply, under a held-bytes budget, until `create`
/// applies it. Whoever lands the last arrival runs `on_ready`, which
/// queues the merge. Nothing waits on a thread: `tick` expires parked
/// blocks and aborts sessions past their deadline.
///
/// Every session ends erased and its pooled receive buffer released,
/// whatever the failure. Erased and refused ids leave a bounded
/// tombstone, so a block for a session this shard closed or never
/// admitted is answered at once.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/protocol.hpp"
#include "net/reactor.hpp"
#include "runtime/distributed.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::net {

/// One in-flight distributed execution on this shard, shared by the
/// exec handler, the io threads delivering blocks and the tick. Blocks
/// land in disjoint slots, so copies run outside the lock.
class ShardSession : public std::enable_shared_from_this<ShardSession> {
 public:
  struct Hooks {
    /// Every peer block landed and the exec left its Reply: merge.
    std::function<void(std::shared_ptr<ShardSession>)> on_ready;
    /// The session failed after the exec left its Reply: answer it.
    std::function<void(Reactor::Reply, runtime::Status)> on_abort;
  };

  ShardSession(std::uint64_t id, std::shared_ptr<const runtime::BandExchange> band,
               util::PooledBuffer recv, std::chrono::steady_clock::time_point deadline,
               const Hooks& hooks);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const runtime::BandExchange& band() const noexcept { return *band_; }
  [[nodiscard]] std::chrono::steady_clock::time_point deadline() const noexcept {
    return deadline_;
  }

  /// The source blocks in shard order: the merge's input.
  [[nodiscard]] std::span<std::uint32_t> recv_span() noexcept;

  /// Copy one peer's block into its slot and mark it arrived. Each a
  /// typed kInvalidArgument: a source out of range, the receiver
  /// itself (the self block never travels), a length other than the
  /// plan's for that source, and a second block from a source. A block
  /// for an aborted session reports the abort reason.
  [[nodiscard]] runtime::Status accept_block(std::uint32_t src, const WordsView& block);

  /// The exec's side is done (self block copied, peer blocks pushed):
  /// leave `reply` for the merge, or hand it to `on_abort` if failed.
  void leave(Reactor::Reply reply);

  /// The exec's reply, for the merge that `on_ready` queued.
  [[nodiscard]] Reactor::Reply take_reply();

  /// Fail the session (the first reason wins): a left reply goes to
  /// `on_abort`. A session whose merge is queued is not failed.
  void abort(runtime::Status why);

 private:
  const std::uint64_t id_;
  std::shared_ptr<const runtime::BandExchange> band_;
  util::PooledBuffer recv_;
  const std::chrono::steady_clock::time_point deadline_;
  const Hooks& hooks_;

  std::mutex mutex_;
  runtime::Status aborted_;  ///< OK = live
  bool ready_ = false;       ///< on_ready ran
  std::vector<std::uint8_t> claimed_;  ///< per source
  std::uint32_t pending_ = 0;          ///< peer blocks still to arrive, plus the exec's side
  Reactor::Reply reply_;
};

/// The shard's session table and the early-arrival parking lot.
class ShardSessionRegistry {
 public:
  struct Config {
    /// How long an early-arrival block waits for its session.
    std::chrono::milliseconds exchange_timeout{10'000};
    /// Cap on pooled bytes pinned by parked blocks: past it a block
    /// gets RETRY_LATER instead of pinning the pool dry.
    std::uint64_t max_pending_hold_bytes = 256ull << 20;
  };

  /// Concurrent distributed executions this shard admits.
  static constexpr std::uint32_t kMaxSessions = 32;
  /// Ids remembered as closed or refused (oldest forgotten first).
  static constexpr std::size_t kMaxTombstones = 4096;

  ShardSessionRegistry(Config config, util::BufferPool& pool, ShardSession::Hooks hooks)
      : config_(config), pool_(pool), hooks_(std::move(hooks)) {}

  /// Create the session for `id` and apply the blocks parked for it.
  /// kResourceExhausted at the cap or when the pool refuses (the id is
  /// then tombstoned); kInvalidArgument for a live or tombstoned id.
  [[nodiscard]] runtime::StatusOr<std::shared_ptr<ShardSession>> create(
      std::uint64_t id, std::shared_ptr<const runtime::BandExchange> band,
      std::chrono::steady_clock::time_point deadline);

  /// Tombstone `id` unless it is live, answering its parked blocks.
  void refuse(std::uint64_t id);

  /// SHARD_XCHG: land the block in its live session, answer a
  /// tombstoned id, or park `reply` (RETRY_LATER over the budget). The
  /// request payload, `payload_bytes` long, stays pinned meanwhile.
  void deliver(std::uint64_t id, std::uint32_t src, const WordsView& block,
               std::uint64_t payload_bytes, Reactor::Reply reply);

  /// Drop and tombstone the session, aborting it with `why`.
  void erase(std::uint64_t id, runtime::Status why);

  /// Expire parked blocks and sessions past their deadline.
  void tick(std::chrono::steady_clock::time_point now);

  [[nodiscard]] std::uint64_t held_bytes() const noexcept {
    return held_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hold_rejections() const noexcept {
    return hold_rejections_.load(std::memory_order_relaxed);
  }
  /// Peer blocks accepted into a session.
  [[nodiscard]] std::uint64_t blocks() const noexcept {
    return blocks_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const;

 private:
  /// An early-arrival block waiting for its session.
  struct Parked {
    std::uint64_t id = 0;
    std::uint32_t src = 0;
    WordsView block;
    std::uint64_t bytes = 0;
    std::chrono::steady_clock::time_point deadline;
    Reactor::Reply reply;
  };

  /// Caller holds `mutex_`: tombstone `id` and move its parked blocks
  /// into `orphans`.
  void tombstone_locked(std::uint64_t id, std::vector<Parked>& orphans);
  /// Caller holds `mutex_`: move the parked blocks that `take` selects
  /// out of the lot, releasing their held bytes.
  void unpark_locked(const std::function<bool(const Parked&)>& take, std::vector<Parked>& out);
  /// Land `block` in `session` and answer its reply: ack or error.
  void land(ShardSession& session, std::uint32_t src, const WordsView& block,
            Reactor::Reply reply);

  Config config_;
  util::BufferPool& pool_;
  const ShardSession::Hooks hooks_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ShardSession>> sessions_;
  std::vector<Parked> parked_;
  std::unordered_set<std::uint64_t> tombstones_;
  std::deque<std::uint64_t> tombstone_order_;  ///< FIFO eviction of tombstones_
  std::atomic<std::uint64_t> held_bytes_{0};
  std::atomic<std::uint64_t> hold_rejections_{0};
  std::atomic<std::uint64_t> blocks_{0};
};

}  // namespace hmm::net
