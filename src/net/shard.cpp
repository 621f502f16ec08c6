#include "net/shard.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

namespace {

Status no_such_session() {
  return Status(StatusCode::kUnavailable, "SHARD_XCHG: no such shard session");
}

}  // namespace

ShardSession::ShardSession(std::uint64_t id, std::shared_ptr<const runtime::BandExchange> band,
                           util::PooledBuffer recv,
                           std::chrono::steady_clock::time_point deadline, const Hooks& hooks)
    : id_(id),
      band_(std::move(band)),
      recv_(std::move(recv)),
      deadline_(deadline),
      hooks_(hooks),
      claimed_(band_->bands().shards(), 0),
      pending_(band_->bands().shards()) {}

std::span<std::uint32_t> ShardSession::recv_span() noexcept {
  return recv_.as_span<std::uint32_t>(band_->elements());
}

Status ShardSession::accept_block(std::uint32_t src, const WordsView& block) {
  if (src >= band_->bands().shards()) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_XCHG: source shard out of range for this session");
  }
  if (src == band_->shard()) {
    return Status(StatusCode::kInvalidArgument,
                  "SHARD_XCHG: a shard's own block never crosses the wire");
  }
  if (block.count != band_->recv()[src]) {
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
  block.copy_to(recv_span().subspan(band_->recv_offset(src), block.count));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!aborted_.is_ok()) return aborted_;
    ready_ = --pending_ == 0;
    if (!ready_) return Status::ok();
  }
  hooks_.on_ready(shared_from_this());
  return Status::ok();
}

void ShardSession::leave(Reactor::Reply reply) {
  Status aborted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted = aborted_;
    if (aborted.is_ok()) {
      reply_ = std::move(reply);
      ready_ = --pending_ == 0;
      if (!ready_) return;
    }
  }
  if (!aborted.is_ok()) {
    hooks_.on_abort(std::move(reply), std::move(aborted));
    return;
  }
  hooks_.on_ready(shared_from_this());
}

Reactor::Reply ShardSession::take_reply() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(reply_);
}

void ShardSession::abort(Status why) {
  Reactor::Reply reply;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ready_ || !aborted_.is_ok()) return;  // merging, or the first reason won
    aborted_ = why;
    reply = std::move(reply_);
  }
  if (reply.pending()) hooks_.on_abort(std::move(reply), std::move(why));
}

StatusOr<std::shared_ptr<ShardSession>> ShardSessionRegistry::create(
    std::uint64_t id, std::shared_ptr<const runtime::BandExchange> band,
    std::chrono::steady_clock::time_point deadline) {
  // Acquire the buffer outside the lock: pool pressure must not stall
  // unrelated sessions' deliveries.
  util::PooledBuffer recv = pool_.try_acquire(band->elements() * sizeof(std::uint32_t));
  const bool pooled = recv.valid();
  std::vector<Parked> early;
  std::shared_ptr<ShardSession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.contains(id) || tombstones_.contains(id)) {
      return Status(StatusCode::kInvalidArgument, "SHARD_EXEC: duplicate session id");
    }
    if (pooled && sessions_.size() < kMaxSessions) {
      session = std::make_shared<ShardSession>(id, std::move(band), std::move(recv), deadline,
                                               hooks_);
      sessions_.emplace(id, session);
      unpark_locked([id](const Parked& p) { return p.id == id; }, early);
    }
  }
  if (session == nullptr) {
    refuse(id);
    return Status(StatusCode::kResourceExhausted,
                  pooled ? "SHARD_EXEC: too many concurrent shard sessions"
                         : "SHARD_EXEC: buffer pool refused the exchange receive buffer");
  }
  for (Parked& p : early) land(*session, p.src, p.block, std::move(p.reply));
  return session;
}

void ShardSessionRegistry::refuse(std::uint64_t id) {
  std::vector<Parked> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!sessions_.contains(id)) tombstone_locked(id, orphans);
  }
  for (Parked& p : orphans) p.reply.send(make_error_frame(p.reply.request_id(), no_such_session()));
}

void ShardSessionRegistry::deliver(std::uint64_t id, std::uint32_t src, const WordsView& block,
                                   std::uint64_t payload_bytes, Reactor::Reply reply) {
  std::shared_ptr<ShardSession> session;
  Status refused = Status::ok();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = sessions_.find(id); it != sessions_.end()) {
      session = it->second;
    } else if (tombstones_.contains(id)) {
      refused = no_such_session();
    } else if (held_bytes() + payload_bytes > config_.max_pending_hold_bytes) {
      hold_rejections_.fetch_add(1, std::memory_order_relaxed);
      refused = Status(StatusCode::kResourceExhausted,
                       "SHARD_XCHG: early-arrival hold budget exhausted; retry later");
    } else {
      // The block outraced this shard's own SHARD_EXEC: park it, its
      // payload pinned in the reader, until create() applies it.
      held_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
      parked_.push_back(Parked{id, src, block, payload_bytes,
                               std::chrono::steady_clock::now() + config_.exchange_timeout,
                               std::move(reply)});
      return;
    }
  }
  if (session == nullptr) {
    reply.send(make_error_frame(reply.request_id(), refused));
    return;
  }
  land(*session, src, block, std::move(reply));
}

void ShardSessionRegistry::land(ShardSession& session, std::uint32_t src,
                                const WordsView& block, Reactor::Reply reply) {
  const Status accepted = session.accept_block(src, block);
  if (!accepted.is_ok()) {
    reply.send(make_error_frame(reply.request_id(), accepted));
    return;
  }
  blocks_.fetch_add(1, std::memory_order_relaxed);
  reply.send(make_ok_frame(reply.request_id(), MsgKind::kShardXchgOk, {}));
}

void ShardSessionRegistry::erase(std::uint64_t id, Status why) {
  std::shared_ptr<ShardSession> victim;
  std::vector<Parked> orphans;  // stays empty: a live id has no parked blocks
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    victim = std::move(it->second);
    sessions_.erase(it);
    tombstone_locked(id, orphans);
  }
  // A block still arriving for this session sees it closed.
  victim->abort(std::move(why));
}

void ShardSessionRegistry::tick(std::chrono::steady_clock::time_point now) {
  std::vector<Parked> expired;
  std::vector<std::uint64_t> overdue;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    unpark_locked([now](const Parked& p) { return now >= p.deadline; }, expired);
    for (const auto& [id, session] : sessions_) {
      if (now >= session->deadline()) overdue.push_back(id);
    }
  }
  for (Parked& p : expired) p.reply.send(make_error_frame(p.reply.request_id(), no_such_session()));
  for (const std::uint64_t id : overdue) {
    erase(id, Status(StatusCode::kUnavailable,
                     "shard exchange timed out waiting for peer blocks"));
  }
}

void ShardSessionRegistry::tombstone_locked(std::uint64_t id, std::vector<Parked>& orphans) {
  unpark_locked([id](const Parked& p) { return p.id == id; }, orphans);
  if (!tombstones_.insert(id).second) return;
  tombstone_order_.push_back(id);
  if (tombstone_order_.size() > kMaxTombstones) {
    tombstones_.erase(tombstone_order_.front());
    tombstone_order_.pop_front();
  }
}

void ShardSessionRegistry::unpark_locked(const std::function<bool(const Parked&)>& take,
                                         std::vector<Parked>& out) {
  const auto kept = std::partition(parked_.begin(), parked_.end(),
                                   [&](const Parked& p) { return !take(p); });
  for (auto it = kept; it != parked_.end(); ++it) {
    held_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
    out.push_back(std::move(*it));
  }
  parked_.erase(kept, parked_.end());
}

std::size_t ShardSessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace hmm::net
