#pragma once
/// \file distributed.hpp
/// \brief The coordinator side of a distributed PERMUTE: fan a request's
///        element array out to shard permd instances as SHARD_EXEC
///        bands (an even split of n), and gather the band responses for
///        a zero-copy relay.
///
/// The engine is deliberately router-agnostic: it takes a list of shard
/// targets (address + an opaque caller index) and the request's wire
/// bytes, and reports per-target transport failures through a callback
/// so the caller (the router) can feed its per-backend health state.
/// The cross-shard exchange itself is peer-to-peer — the coordinator
/// only ships each band once and reads each band back once, so its
/// network cost is one pass over the data regardless of the shard
/// count.
///
/// The offline phase runs here too, once per plan and shard count:
/// `compile` builds every shard's pack and merge tables in O(n) on the
/// pool, straight into their SHARD_PLAN payloads
/// (runtime::BandExchange::compile_into), and a shard primed with its
/// payload runs SHARD_EXEC with no compile of its own. (A shard that was
/// never primed runs the same compile itself when the plan was
/// registered with it by SUBMIT_PLAN.)
///
/// Failure discipline: distribution is all-or-nothing. Once SHARD_EXEC
/// frames are in flight there is no single-node fallback — a shard that
/// dies mid-exchange fails the whole request typed (kUnavailable), the
/// surviving shards abort their sessions on their own exchange
/// deadlines, and every pooled buffer byte is released (tests verify
/// via pool-stats deltas). Falling back would re-run a half-exchanged
/// permutation and double the load exactly when the fleet is degraded.

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/frame_io.hpp"
#include "perm/permutation.hpp"
#include "runtime/distributed.hpp"
#include "runtime/status.hpp"
#include "util/aligned_vector.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::net {

/// One shard of a distributed execution. `caller_index` is opaque to the
/// engine — the router stores the backend index there so transport
/// failures can be attributed.
struct ShardTarget {
  std::string host;
  std::uint16_t port = 0;
  std::size_t caller_index = 0;
};

class DistributedPermuter {
 public:
  struct Config {
    /// Response cap when reading SHARD_EXEC_OK frames.
    std::uint32_t max_payload_bytes = 0;
    /// Per-shard connect and I/O budgets. The I/O budget must cover the
    /// shard's whole execution including the exchange, not just the
    /// frame transfer.
    std::chrono::milliseconds connect_timeout{1'000};
    std::chrono::milliseconds io_timeout{30'000};
  };

  /// One gathered band response: the pooled frame storage plus the band
  /// element bytes borrowed from it (wire order, relayed verbatim).
  struct Band {
    util::PooledBuffer storage;
    std::span<const std::uint8_t> bytes;
    std::uint64_t elements = 0;
    std::uint64_t digest = 0;  ///< the checksum of `bytes`
  };

  struct Result {
    std::vector<Band> bands;  ///< shard order; concatenation = output
    std::uint64_t total_elements = 0;
  };

  /// The connections of one execution: `send(s, payload)` writes shard
  /// s's SHARD_EXEC, `receive(s, storage)` reads its answer there.
  struct Transport {
    std::function<runtime::Status(std::uint32_t, std::span<const ConstBuffer>)> send;
    std::function<runtime::StatusOr<FrameView>(std::uint32_t, util::PooledBuffer&)> receive;
  };

  /// The distributed offline phase: split `p`'s n elements into
  /// `shards` bands (runtime::BandPlan), size each band's SHARD_PLAN
  /// payload for plan id `plan_id` from the split, and compile every
  /// band's pack and merge tables in O(n) straight into its payload
  /// (one byte-swap pass on a big-endian host); the header follows from
  /// the block lengths. The bytes are `ShardPlanRequest::encode()`'s.
  /// Entry s primes shard s. Fails (kInvalidArgument) when n cannot be
  /// split `shards` ways.
  [[nodiscard]] static runtime::StatusOr<std::vector<util::uninit_vector<std::uint8_t>>>
  compile(const perm::Permutation& p, std::uint64_t plan_id, std::uint32_t shards);

  /// Execute the n = `data_bytes.size() / 4` elements of plan `plan_id`
  /// across `targets.size()` shards. `data_bytes` is the request's
  /// element region in wire order; band `s` is shipped as a borrowed
  /// subspan, never copied. `rows x cols` must equal n and is checked
  /// for nothing else: the split is of n, and the router passes (n, 1).
  /// The pair stays only because the end-to-end probe (bench/e2e)
  /// passes a matrix shape; the next revision of that benchmark drops
  /// it. `deadline_ms` (0 = none) rides to every shard.
  /// `on_transport_failure(i)` fires for each target whose failure was
  /// transport-level (connect/send/recv), not a typed answer. Runs on
  /// the calling thread, over one fresh connection per shard: writes
  /// every SHARD_EXEC, then reads every answer. On error the first
  /// failure (typed answers preferred over transport noise) is returned.
  [[nodiscard]] static runtime::StatusOr<Result> execute(
      const Config& config, std::uint64_t session_id, std::uint64_t plan_id,
      std::uint32_t deadline_ms, std::uint64_t rows, std::uint64_t cols,
      std::span<const std::uint8_t> data_bytes, std::span<const ShardTarget> targets,
      const std::function<void(std::size_t)>& on_transport_failure);
  /// The same execution over `transport`'s connections.
  [[nodiscard]] static runtime::StatusOr<Result> execute(
      const Transport& transport, std::uint64_t session_id, std::uint64_t plan_id,
      std::uint32_t deadline_ms, std::uint64_t rows, std::uint64_t cols,
      std::span<const std::uint8_t> data_bytes, std::span<const ShardTarget> targets,
      const std::function<void(std::size_t)>& on_transport_failure);
};

}  // namespace hmm::net
