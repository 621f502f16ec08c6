#include "net/shard.hpp"

#include <string>
#include <utility>

#include "net/protocol.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

static_assert(runtime::kMaxShards == kMaxWireShards,
              "wire shard bound must mirror the band-plan bound");

ShardSession::ShardSession(runtime::BandPlan plan, std::uint32_t shard_index,
                           util::PooledBuffer z, util::PooledBuffer x)
    : plan_(std::move(plan)),
      shard_index_(shard_index),
      z_(std::move(z)),
      x_(std::move(x)) {
  claimed_[0].assign(plan_.shards(), 0);
  claimed_[1].assign(plan_.shards(), 0);
}

std::span<std::uint32_t> ShardSession::z_span() noexcept {
  return {reinterpret_cast<std::uint32_t*>(z_.data()),
          plan_.transposed_elements(shard_index_)};
}

std::span<std::uint32_t> ShardSession::x_span() noexcept {
  return {reinterpret_cast<std::uint32_t*>(x_.data()), plan_.band_elements(shard_index_)};
}

Status ShardSession::accept_block(std::uint32_t round, std::uint32_t src,
                                  std::span<const std::uint32_t> block) {
  if (round != 1 && round != 2) {
    return Status(StatusCode::kInvalidArgument, "SHARD_XCHG: round must be 1 or 2");
  }
  if (src >= plan_.shards()) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_XCHG: source shard out of range for this session");
  }
  const runtime::BlockTransfer& t = plan_.block(round, src, shard_index_);
  if (block.size() != t.elements()) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_XCHG: block size does not match the exchange schedule");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!aborted_.is_ok()) return aborted_;
    if (claimed_[round - 1][src]) {
      return Status(StatusCode::kInvalidArgument,
                    "SHARD_XCHG: duplicate block for this round and source");
    }
    claimed_[round - 1][src] = 1;
  }
  // Blocks from distinct sources land in disjoint staging regions, so
  // the scatter itself runs unlocked.
  if (round == 1) {
    runtime::scatter_block_round1(plan_, src, shard_index_, block, z_span());
  } else {
    runtime::scatter_block_round2(plan_, src, shard_index_, block, x_span());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!aborted_.is_ok()) return aborted_;
    ++arrived_[round - 1];
  }
  cv_.notify_all();
  return Status::ok();
}

Status ShardSession::wait_round(std::uint32_t round,
                                std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint32_t want = plan_.shards();
  cv_.wait_until(lock, deadline, [&] {
    return !aborted_.is_ok() || arrived_[round - 1] >= want;
  });
  if (!aborted_.is_ok()) return aborted_;
  if (arrived_[round - 1] >= want) return Status::ok();
  return Status(StatusCode::kUnavailable,
                "shard exchange round " + std::to_string(round) +
                    " timed out waiting for peer blocks");
}

void ShardSession::abort(Status why) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!aborted_.is_ok()) return;  // first reason wins
    aborted_ = std::move(why);
  }
  cv_.notify_all();
}

StatusOr<std::shared_ptr<ShardSession>> ShardSessionRegistry::create(
    std::uint64_t id, runtime::BandPlan plan, std::uint32_t shard_index) {
  // Acquire staging outside the lock: pool pressure must not stall
  // unrelated sessions' rendezvous.
  util::PooledBuffer z =
      pool_.try_acquire(plan.transposed_elements(shard_index) * sizeof(std::uint32_t));
  util::PooledBuffer x =
      pool_.try_acquire(plan.band_elements(shard_index) * sizeof(std::uint32_t));
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.contains(id) || tombstones_.contains(id)) {
    return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: duplicate session id");
  }
  if (!z.valid() || !x.valid()) {
    tombstone_locked(id);
    return Status(StatusCode::kResourceExhausted,
                  "SHARD_EXEC: buffer pool refused the exchange staging buffers");
  }
  if (sessions_.size() >= config_.max_sessions) {
    tombstone_locked(id);
    return Status(StatusCode::kResourceExhausted,
                  "SHARD_EXEC: too many concurrent shard sessions");
  }
  auto session = std::make_shared<ShardSession>(std::move(plan), shard_index, std::move(z),
                                                std::move(x));
  sessions_.emplace(id, session);
  cv_.notify_all();
  return session;
}

std::shared_ptr<ShardSession> ShardSessionRegistry::await(
    std::uint64_t id, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::shared_ptr<ShardSession> found;
  cv_.wait_until(lock, deadline, [&] {
    if (tombstones_.contains(id)) return true;
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    found = it->second;
    return true;
  });
  return found;
}

void ShardSessionRegistry::tombstone_locked(std::uint64_t id) {
  if (!tombstones_.insert(id).second) return;
  tombstone_order_.push_back(id);
  if (tombstone_order_.size() > kMaxTombstones) {
    tombstones_.erase(tombstone_order_.front());
    tombstone_order_.pop_front();
  }
  cv_.notify_all();
}

std::shared_ptr<ShardSession> ShardSessionRegistry::find(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void ShardSessionRegistry::Hold::release() noexcept {
  if (registry_ != nullptr) {
    registry_->held_bytes_.fetch_sub(bytes_, std::memory_order_relaxed);
    registry_ = nullptr;
    bytes_ = 0;
  }
}

StatusOr<ShardSessionRegistry::Hold> ShardSessionRegistry::try_hold(std::uint64_t bytes) {
  // CAS loop so two racing holds cannot both sneak under the cap.
  std::uint64_t current = held_bytes_.load(std::memory_order_relaxed);
  for (;;) {
    if (current + bytes > config_.max_pending_hold_bytes) {
      hold_rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status(StatusCode::kResourceExhausted,
                    "SHARD_XCHG: early-arrival hold budget exhausted; retry later");
    }
    if (held_bytes_.compare_exchange_weak(current, current + bytes,
                                          std::memory_order_relaxed)) {
      return Hold(this, bytes);
    }
  }
}

void ShardSessionRegistry::erase(std::uint64_t id) {
  std::shared_ptr<ShardSession> victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    victim = std::move(it->second);
    sessions_.erase(it);
    tombstone_locked(id);
  }
  // Unblock any XCHG thread still waiting on this session's rounds.
  victim->abort(Status(StatusCode::kUnavailable, "shard session closed"));
}

std::size_t ShardSessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace hmm::net
