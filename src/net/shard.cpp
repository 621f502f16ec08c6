#include "net/shard.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "net/protocol.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

static_assert(runtime::kMaxShards == kMaxWireShards,
              "wire shard bound must mirror the band-plan bound");

ShardSession::ShardSession(std::shared_ptr<const runtime::BandExchange> band,
                           util::PooledBuffer recv)
    : band_(std::move(band)),
      recv_(std::move(recv)),
      claimed_(band_->bands().shards(), 0),
      pending_(band_->bands().shards() - 1) {}

std::span<std::uint32_t> ShardSession::recv_span() noexcept {
  return recv_.as_span<std::uint32_t>(band_->elements());
}

Status ShardSession::accept_block(std::uint32_t src, std::span<const std::uint32_t> block) {
  if (src >= band_->bands().shards()) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_XCHG: source shard out of range for this session");
  }
  if (src == band_->shard()) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_XCHG: a shard's own block never crosses the wire");
  }
  if (block.size() != band_->recv()[src]) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_XCHG: block length is not the plan's length for this source");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!aborted_.is_ok()) return aborted_;
    if (claimed_[src]) {
      return Status(StatusCode::kInvalidArgument,
                    "SHARD_XCHG: duplicate block from this source");
    }
    claimed_[src] = 1;
  }
  // Blocks from distinct sources land in disjoint slots, so the copy
  // itself runs unlocked.
  std::copy(block.begin(), block.end(), recv_span().begin() + band_->recv_offset(src));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!aborted_.is_ok()) return aborted_;
    --pending_;
  }
  cv_.notify_all();
  return Status::ok();
}

Status ShardSession::wait_blocks(std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_until(lock, deadline, [&] { return !aborted_.is_ok() || pending_ == 0; });
  if (!aborted_.is_ok()) return aborted_;
  if (pending_ == 0) return Status::ok();
  return Status(StatusCode::kUnavailable,
                "shard exchange timed out waiting for peer blocks");
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
    std::uint64_t id, std::shared_ptr<const runtime::BandExchange> band) {
  // Acquire the buffer outside the lock: pool pressure must not stall
  // unrelated sessions' rendezvous.
  util::PooledBuffer recv = pool_.try_acquire(band->elements() * sizeof(std::uint32_t));
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.contains(id) || tombstones_.contains(id)) {
    return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: duplicate session id");
  }
  if (!recv.valid()) {
    tombstone_locked(id);
    return Status(StatusCode::kResourceExhausted,
                  "SHARD_EXEC: buffer pool refused the exchange receive buffer");
  }
  if (sessions_.size() >= config_.max_sessions) {
    tombstone_locked(id);
    return Status(StatusCode::kResourceExhausted,
                  "SHARD_EXEC: too many concurrent shard sessions");
  }
  auto session = std::make_shared<ShardSession>(std::move(band), std::move(recv));
  sessions_.emplace(id, session);
  cv_.notify_all();
  return session;
}

void ShardSessionRegistry::refuse(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sessions_.contains(id)) tombstone_locked(id);
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
  // A block still arriving for this session sees it closed.
  victim->abort(Status(StatusCode::kUnavailable, "shard session closed"));
}

std::size_t ShardSessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace hmm::net
