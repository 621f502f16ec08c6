#pragma once
/// \file shard.hpp
/// \brief Shard-side state of a distributed PERMUTE: the session
///        registry that pairs one SHARD_EXEC execution with the
///        SHARD_XCHG blocks its peers push at it.
///
/// A distributed execution is keyed by a coordinator-chosen session id.
/// The SHARD_EXEC handler creates the session (allocating the receive
/// buffer from the shared BufferPool up front), packs its band, pushes
/// one block at every peer, and waits for the session to collect one
/// block from every peer (empty when the peer has no elements for it)
/// before it merges. SHARD_XCHG connections arrive on independent
/// server threads — possibly *before* the local SHARD_EXEC has been
/// decoded — so `await` blocks (bounded) for the session to appear,
/// then copies the block straight into its slot of the receive buffer.
///
/// Failure discipline: every exit path erases the session, and the
/// receive buffer is a pooled RAII handle — a shard that aborts
/// mid-exchange (peer died, deadline passed, malformed block) releases
/// every staged byte, which the tests verify via pool-stats deltas.
/// Erased and refused session ids leave a bounded tombstone, so a
/// peer's SHARD_XCHG for a session this shard already closed (or never
/// admitted) is answered at once instead of after the exchange timeout.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/distributed.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::net {

/// One in-flight distributed execution on this shard. Thread-safe: the
/// exec thread and any number of SHARD_XCHG connection threads share
/// it. Blocks from distinct sources land in disjoint slots of the
/// receive buffer, so copies run outside the lock; arrival bookkeeping
/// is locked.
class ShardSession {
 public:
  ShardSession(std::shared_ptr<const runtime::BandExchange> band, util::PooledBuffer recv);

  [[nodiscard]] const runtime::BandExchange& band() const noexcept { return *band_; }

  /// The receive buffer: the source blocks in shard order, the merge's
  /// input. The exec thread copies its own block into its slot.
  [[nodiscard]] std::span<std::uint32_t> recv_span() noexcept;

  /// Copy one peer's block into its slot and mark it arrived. Each a
  /// typed kInvalidArgument: a source out of range, the receiver
  /// itself (the self block never travels), a length other than the
  /// plan's for that source, and a second block from a source. A block
  /// for an aborted session reports the abort reason.
  [[nodiscard]] runtime::Status accept_block(std::uint32_t src,
                                             std::span<const std::uint32_t> block);

  /// Block until every peer block arrived, the session aborted, or
  /// `deadline` passed (kUnavailable — a missing peer block is a
  /// transient fleet condition, not a caller bug).
  [[nodiscard]] runtime::Status wait_blocks(std::chrono::steady_clock::time_point deadline);

  /// Fail the session: pending and future waits/accepts observe `why`.
  void abort(runtime::Status why);

 private:
  std::shared_ptr<const runtime::BandExchange> band_;
  util::PooledBuffer recv_;

  std::mutex mutex_;
  std::condition_variable cv_;
  runtime::Status aborted_;  ///< OK = live
  std::vector<std::uint8_t> claimed_;  ///< per source
  std::uint32_t pending_ = 0;          ///< peer blocks still to arrive
};

/// The shard's session table. Sessions are created by SHARD_EXEC and
/// erased on every exit path of the exec handler; SHARD_XCHG handlers
/// rendezvous through `await`.
class ShardSessionRegistry {
 public:
  struct Config {
    /// Bound on waiting for peer blocks (exec side) and for the local
    /// SHARD_EXEC to create the session (xchg side).
    std::chrono::milliseconds exchange_timeout{10'000};
    /// Concurrent distributed executions this shard admits.
    std::uint32_t max_sessions = 32;
    /// Cap on pooled bytes pinned by *early-arrival* SHARD_XCHG blocks
    /// — blocks whose session has not been created yet and whose
    /// handler would otherwise sit in `await` holding the payload for
    /// the full exchange timeout. A hostile peer spraying blocks at
    /// never-created sessions hits this bound and gets a typed
    /// RETRY_LATER instead of pinning the pool dry.
    std::uint64_t max_pending_hold_bytes = 256ull << 20;
  };

  explicit ShardSessionRegistry(Config config, util::BufferPool& pool)
      : config_(config), pool_(pool) {}

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Ids remembered as closed or refused (oldest forgotten first).
  static constexpr std::size_t kMaxTombstones = 4096;

  /// Create the session for `id`, acquiring its receive buffer from
  /// the pool. kResourceExhausted at the session cap or when the pool
  /// refuses (the id is then tombstoned as refused); kInvalidArgument
  /// for an id that is live or tombstoned.
  [[nodiscard]] runtime::StatusOr<std::shared_ptr<ShardSession>> create(
      std::uint64_t id, std::shared_ptr<const runtime::BandExchange> band);

  /// Tombstone `id` unless it is live: an exec that fails before its
  /// session exists still answers its peers' blocks at once.
  void refuse(std::uint64_t id);

  /// Wait up to `deadline` for session `id` (SHARD_XCHG can outrace the
  /// local SHARD_EXEC). nullptr = never appeared, or — immediately —
  /// the id is tombstoned: its session was already closed or refused.
  [[nodiscard]] std::shared_ptr<ShardSession> await(
      std::uint64_t id, std::chrono::steady_clock::time_point deadline);

  /// Non-blocking lookup: the session if it exists right now. The fast
  /// path for SHARD_XCHG when the local exec already won the race — no
  /// hold needed, the block is copied straight in.
  [[nodiscard]] std::shared_ptr<ShardSession> find(std::uint64_t id);

  /// RAII accounting for bytes an early-arrival SHARD_XCHG handler
  /// pins while blocked in `await`. Releases on destruction.
  class Hold {
   public:
    Hold() = default;
    ~Hold() { release(); }
    Hold(Hold&& other) noexcept : registry_(other.registry_), bytes_(other.bytes_) {
      other.registry_ = nullptr;
      other.bytes_ = 0;
    }
    Hold& operator=(Hold&& other) noexcept {
      if (this != &other) {
        release();
        registry_ = other.registry_;
        bytes_ = other.bytes_;
        other.registry_ = nullptr;
        other.bytes_ = 0;
      }
      return *this;
    }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;
    void release() noexcept;

   private:
    friend class ShardSessionRegistry;
    Hold(ShardSessionRegistry* registry, std::uint64_t bytes) noexcept
        : registry_(registry), bytes_(bytes) {}
    ShardSessionRegistry* registry_ = nullptr;
    std::uint64_t bytes_ = 0;
  };

  /// Reserve `bytes` against `max_pending_hold_bytes`. Over the cap →
  /// kResourceExhausted (RETRY_LATER on the wire) and the rejection
  /// counter ticks; the peer re-sends once the local exec catches up.
  [[nodiscard]] runtime::StatusOr<Hold> try_hold(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t held_bytes() const noexcept {
    return held_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hold_rejections() const noexcept {
    return hold_rejections_.load(std::memory_order_relaxed);
  }

  /// Drop the session and tombstone its id. The receive buffer is
  /// released when the last holder lets go of the shared_ptr (an
  /// in-flight copy finishes safely first).
  void erase(std::uint64_t id);

  [[nodiscard]] std::size_t size() const;

 private:
  /// Caller holds `mutex_`; wakes every `await` so a waiter on `id`
  /// returns now.
  void tombstone_locked(std::uint64_t id);

  Config config_;
  util::BufferPool& pool_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ShardSession>> sessions_;
  std::unordered_set<std::uint64_t> tombstones_;
  std::deque<std::uint64_t> tombstone_order_;  ///< FIFO eviction of tombstones_
  std::atomic<std::uint64_t> held_bytes_{0};
  std::atomic<std::uint64_t> hold_rejections_{0};
};

}  // namespace hmm::net
