#include "net/distributed.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

namespace {

/// Outcome of one shard.
struct ShardOutcome {
  Status status = Status::ok();
  bool transport = false;  ///< connect/send/recv failure vs typed answer
  DistributedPermuter::Band band;

  void transport_fail(Status why) {
    status = std::move(why);
    transport = true;
  }
};

/// Validate shard's answer — it comes once the shard finished its
/// exchange — read into `out.band.storage`.
void receive_shard(const StatusOr<FrameView>& response, std::uint64_t session_id,
                   std::uint64_t band_elems, ShardOutcome& out) {
  if (!response.ok()) return out.transport_fail(response.status());
  const FrameView& frame = response.value();
  if (static_cast<MsgKind>(frame.kind) == MsgKind::kError) {
    StatusOr<ErrorResponse> err = ErrorResponse::decode(frame.payload);
    out.status = err.ok() ? err.value().to_status()
                          : Status(StatusCode::kUnavailable,
                                   "malformed ERROR frame from shard");
    out.transport = !err.ok();
    return;
  }
  if (static_cast<MsgKind>(frame.kind) != MsgKind::kShardExecOk ||
      frame.request_id != session_id) {
    return out.transport_fail(
        Status(StatusCode::kUnavailable, "shard response does not answer SHARD_EXEC"));
  }
  StatusOr<WordsResponseView> band = WordsResponseView::decode(frame.payload, band_elems);
  if (!band.ok()) return out.transport_fail(band.status());
  if (band.value().data.count != band_elems) {
    return out.transport_fail(
        Status(StatusCode::kUnavailable, "shard returned a band of the wrong size"));
  }
  // The verified frame checksum with the count peeled off: no re-read.
  out.band.bytes = band.value().data.bytes;
  out.band.elements = band_elems;
  out.band.digest = checksum_combine(checksum_bytes(frame.payload.first(8)), frame.checksum,
                                     out.band.bytes.size());
}

}  // namespace

StatusOr<std::vector<util::uninit_vector<std::uint8_t>>> DistributedPermuter::compile(
    const perm::Permutation& p, std::uint64_t plan_id, std::uint32_t shards) {
  StatusOr<runtime::BandPlan> bands = runtime::BandPlan::build(p.size(), shards);
  if (!bands.ok()) return bands.status();
  // Each payload is sized from the band geometry; its tables are
  // compiled straight into it, and its header written once the block
  // lengths are known.
  const std::size_t header = ShardPlanRequest::header_bytes(shards);
  std::vector<util::uninit_vector<std::uint8_t>> payloads(shards);
  std::vector<std::uint32_t*> pack(shards), merge(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t band = bands.value().band_elements(s);
    payloads[s].resize(header + 2 * band * sizeof(std::uint32_t));
    pack[s] = reinterpret_cast<std::uint32_t*>(payloads[s].data() + header);
    merge[s] = pack[s] + band;
  }
  StatusOr<std::vector<runtime::BandExchange::Counts>> recv =
      runtime::BandExchange::compile_into(p, bands.value(), pack, merge);
  if (!recv.ok()) return recv.status();
  for (std::uint32_t s = 0; s < shards; ++s) {
    runtime::BandExchange::Counts send(shards);
    for (std::uint32_t d = 0; d < shards; ++d) send[d] = recv.value()[d][s];
    const std::vector<std::uint8_t> head =
        ShardPlanRequest::encode_header(plan_id, bands.value(), s, send, recv.value()[s]);
    std::copy(head.begin(), head.end(), payloads[s].begin());
    if constexpr (std::endian::native == std::endian::big) {
      // The tables went in as host words; the wire is little-endian.
      for (std::uint32_t& w : std::span(pack[s], 2 * bands.value().band_elements(s))) {
        w = __builtin_bswap32(w);
      }
    }
  }
  return payloads;
}

StatusOr<DistributedPermuter::Result> DistributedPermuter::execute(
    const Config& config, std::uint64_t session_id, std::uint64_t plan_id,
    std::uint32_t deadline_ms, std::uint64_t rows, std::uint64_t cols,
    std::span<const std::uint8_t> data_bytes, std::span<const ShardTarget> targets,
    const std::function<void(std::size_t)>& on_transport_failure) {
  std::vector<TcpStream> streams(targets.size());
  const Transport fresh{
      .send = [&](std::uint32_t s, std::span<const ConstBuffer> payload) -> Status {
        StatusOr<TcpStream> conn =
            tcp_connect(targets[s].host, targets[s].port, config.connect_timeout);
        if (!conn.ok()) return conn.status();
        streams[s] = std::move(conn).value();
        (void)streams[s].set_io_timeout(config.io_timeout, config.io_timeout);
        return write_frame_parts(streams[s], static_cast<std::uint16_t>(MsgKind::kShardExec),
                                 session_id, payload);
      },
      .receive = [&](std::uint32_t s, util::PooledBuffer& storage) {
        StatusOr<FrameView> answer = read_frame_view(streams[s], util::BufferPool::global(),
                                                     storage, config.max_payload_bytes);
        streams[s].close();
        return answer;
      }};
  return execute(fresh, session_id, plan_id, deadline_ms, rows, cols, data_bytes, targets,
                 on_transport_failure);
}

StatusOr<DistributedPermuter::Result> DistributedPermuter::execute(
    const Transport& transport, std::uint64_t session_id, std::uint64_t plan_id,
    std::uint32_t deadline_ms, std::uint64_t rows, std::uint64_t cols,
    std::span<const std::uint8_t> data_bytes, std::span<const ShardTarget> targets,
    const std::function<void(std::size_t)>& on_transport_failure) {
  const std::uint64_t n = data_bytes.size() / kElemBytes;
  if (data_bytes.size() % kElemBytes != 0 || cols == 0 || n % cols != 0 || rows != n / cols) {
    return Status(StatusCode::kInvalidArgument,
                  "distributed permute: rows x cols does not match the element count");
  }
  const auto shards = static_cast<std::uint32_t>(targets.size());
  StatusOr<runtime::BandPlan> bands_or = runtime::BandPlan::build(n, shards);
  if (!bands_or.ok()) return bands_or.status();
  const runtime::BandPlan& bands = bands_or.value();

  ShardExecRequest header;
  header.session_id = session_id;
  header.plan_id = plan_id;
  header.deadline_ms = deadline_ms;
  header.n = n;
  header.peers.reserve(shards);
  for (const ShardTarget& t : targets) header.peers.push_back(ShardPeer{t.host, t.port});

  // Every SHARD_EXEC is written before any answer is read: the shards
  // rendezvous with each other mid-request, so each must hold its band
  // before the first answer can come. No shard's progress waits on
  // these reads, so reading the answers in shard order cannot deadlock.
  std::vector<ShardOutcome> outcomes(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    header.shard_index = s;
    const std::uint64_t band_elems = bands.band_elements(s);
    const std::vector<std::uint8_t> prefix = header.encode_prefix(band_elems);
    const ConstBuffer payload[] = {
        {prefix.data(), prefix.size()},
        {data_bytes.data() + bands.band_offset(s) * kElemBytes, band_elems * kElemBytes}};
    if (Status sent = transport.send(s, payload); !sent.is_ok()) {
      outcomes[s].transport_fail(std::move(sent));
    }
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (outcomes[s].status.is_ok()) {
      receive_shard(transport.receive(s, outcomes[s].band.storage), session_id,
                    bands.band_elements(s), outcomes[s]);
    }
  }

  // Prefer a typed shard answer over transport noise: when one shard
  // dies, its peers' timeouts are a *consequence* — the root cause is
  // the transport failure, but a typed kInvalidArgument (bad plan,
  // shape mismatch) from any shard explains the failure better than
  // "peer unreachable" collateral. The same holds among typed answers:
  // a shard that refuses its session makes its peers abort typed
  // kUnavailable, so the refusal wins whichever band it holds.
  Status first_transport = Status::ok();
  Status first_typed = Status::ok();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const Status& st = outcomes[s].status;
    if (st.is_ok()) continue;
    if (outcomes[s].transport) {
      on_transport_failure(targets[s].caller_index);
      if (first_transport.is_ok()) first_transport = st;
    } else if (first_typed.is_ok() || (first_typed.code() == StatusCode::kUnavailable &&
                                       st.code() != StatusCode::kUnavailable)) {
      first_typed = st;
    }
  }
  if (!first_typed.is_ok() || !first_transport.is_ok()) {
    if (!first_typed.is_ok() && first_typed.code() != StatusCode::kUnavailable) {
      return first_typed;
    }
    Status root = !first_transport.is_ok() ? first_transport : first_typed;
    return Status(StatusCode::kUnavailable,
                  "distributed permute failed: " + root.message());
  }

  Result result;
  result.bands.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    result.total_elements += outcomes[s].band.elements;
    result.bands.push_back(std::move(outcomes[s].band));
  }
  return result;
}

}  // namespace hmm::net
