#include "net/frame_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "net/protocol.hpp"

namespace hmm::net {

using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

namespace {

Status protocol_error(FrameError e) {
  return Status(StatusCode::kInvalidArgument, "frame: " + std::string(to_string(e)));
}

/// The header of a payload scattered over `parts`: its total length
/// and, unless it is `known`, the checksum streamed across the parts.
StatusOr<FrameHeader> header_over(std::uint16_t kind, std::uint64_t request_id,
                                  std::span<const ConstBuffer> parts,
                                  std::optional<std::uint64_t> known = std::nullopt) {
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = checksum_seed();
  for (const ConstBuffer& part : parts) {
    payload_len += part.len;
    if (!known) {
      checksum = checksum_extend(
          checksum, {static_cast<const std::uint8_t*>(part.data), part.len});
    }
  }
  if (payload_len > UINT32_MAX) {
    return Status(StatusCode::kInvalidArgument, "frame payload exceeds the u32 length field");
  }
  return FrameHeader{.kind = kind,
                     .request_id = request_id,
                     .payload_len = static_cast<std::uint32_t>(payload_len),
                     .checksum = known.value_or(checksum)};
}

StatusOr<FrameHeader> read_header(TcpStream& stream, std::uint32_t max_payload) {
  std::array<std::uint8_t, kHeaderBytes> bytes{};
  if (Status s = stream.recv_all(bytes.data(), bytes.size()); !s.is_ok()) return s;
  FrameHeader header;
  if (const FrameError e = parse_header(bytes, max_payload, header); e != FrameError::kOk) {
    return protocol_error(e);
  }
  return header;
}

/// Receive the payload `h` announces into `parts`, in order, one
/// kChecksumChunk at a time, checksumming each chunk while it is still
/// in cache: verification ends with the last byte.
Status recv_payload(TcpStream& stream, const FrameHeader& h,
                    std::initializer_list<std::span<std::uint8_t>> parts) {
  std::uint64_t crc = checksum_seed();
  bool mid_frame = false;  // an EOF before the first payload byte reads as a close
  for (const std::span<std::uint8_t> into : parts) {
    for (std::size_t got = 0; got < into.size(); mid_frame = true) {
      const std::size_t chunk = std::min(kChecksumChunk, into.size() - got);
      if (Status s = stream.recv_all(into.data() + got, chunk, mid_frame); !s.is_ok()) return s;
      crc = checksum_extend(crc, into.subspan(got, chunk));
      got += chunk;
    }
  }
  return crc == h.checksum ? Status::ok() : protocol_error(FrameError::kBadChecksum);
}

/// Grow-only reuse: the storage a connection hands back in keeps
/// serving until a larger frame arrives, so a steady request stream
/// settles into zero pool traffic (and zero heap traffic) per read.
Status reserve_payload(util::BufferPool& pool, util::PooledBuffer& storage,
                       std::uint32_t payload_len) {
  if (storage.valid() && storage.capacity() >= payload_len) return Status::ok();
  storage.reset();
  storage = pool.try_acquire(payload_len);
  if (!storage.valid()) {
    return Status(StatusCode::kResourceExhausted, "buffer pool refused the frame payload");
  }
  return Status::ok();
}

}  // namespace

Status write_frame_parts(TcpStream& stream, std::uint16_t kind, std::uint64_t request_id,
                         std::span<const ConstBuffer> parts) {
  StatusOr<FrameHeader> header = header_over(kind, request_id, parts);
  if (!header.ok()) return header.status();
  std::array<std::uint8_t, kHeaderBytes> header_bytes{};
  encode_header(header.value(), header_bytes);

  std::vector<ConstBuffer> vec;
  vec.reserve(parts.size() + 1);
  vec.push_back(ConstBuffer{header_bytes.data(), header_bytes.size()});
  vec.insert(vec.end(), parts.begin(), parts.end());
  return stream.send_vectored(vec);
}

StatusOr<FrameView> read_frame_view(TcpStream& stream, util::BufferPool& pool,
                                    util::PooledBuffer& storage, std::uint32_t max_payload,
                                    const PayloadSink* sink) {
  StatusOr<FrameHeader> header = read_header(stream, max_payload);
  if (!header.ok()) return header.status();
  const FrameHeader& h = header.value();

  const bool sunk = sink != nullptr && h.kind == sink->kind &&
                    h.payload_len == sink->head.size() + sink->body.size();
  if (!sunk) {
    if (Status s = reserve_payload(pool, storage, h.payload_len); !s.is_ok()) return s;
  }
  const std::span<std::uint8_t> head =
      sunk ? sink->head : std::span(storage.data(), h.payload_len);
  const std::span<std::uint8_t> body = sunk ? sink->body : std::span<std::uint8_t>();
  if (Status s = recv_payload(stream, h, {head, body}); !s.is_ok()) return s;
  return FrameView{
      .kind = h.kind, .request_id = h.request_id, .payload = head, .checksum = h.checksum};
}

StatusOr<bool> FrameReader::poll(TcpStream& stream) {
  for (;;) {
    switch (state_) {
      case State::kHeader: {
        StatusOr<std::size_t> n = stream.recv_some(header_.data() + have_,
                                                   kHeaderBytes - have_);
        if (!n.ok()) return n.status();
        if (n.value() == 0) return false;
        have_ += n.value();
        if (have_ < kHeaderBytes) break;  // keep pulling while data lasts

        if (const FrameError e = parse_header(header_, max_payload_, frame_);
            e != FrameError::kOk) {
          return protocol_error(e);
        }
        if (frame_.payload_len > 0) {
          if (Status s = reserve_payload(*pool_, storage_, frame_.payload_len); !s.is_ok()) {
            return s;
          }
        }
        have_ = 0;
        crc_ = checksum_seed();
        state_ = State::kPayload;
        break;
      }
      case State::kPayload: {
        if (have_ < frame_.payload_len) {
          std::uint8_t* const at = storage_.data() + have_;
          StatusOr<std::size_t> n = stream.recv_some(
              at, std::min<std::size_t>(kChecksumChunk, frame_.payload_len - have_));
          if (!n.ok()) return n.status();
          if (n.value() == 0) return false;
          crc_ = checksum_extend(crc_, {at, n.value()});
          have_ += n.value();
          if (have_ < frame_.payload_len) break;
        }
        if (crc_ != frame_.checksum) return protocol_error(FrameError::kBadChecksum);
        state_ = State::kReady;
        return true;
      }
      case State::kReady:
        return true;  // caller has not consumed the previous frame yet
    }
  }
}

FrameView FrameReader::view() const noexcept {
  FrameView view;
  view.kind = frame_.kind;
  view.request_id = frame_.request_id;
  view.payload = {frame_.payload_len > 0 ? storage_.data() : nullptr, frame_.payload_len};
  view.checksum = frame_.checksum;
  return view;
}

void FrameReader::consume() noexcept {
  state_ = State::kHeader;
  have_ = 0;
  frame_.payload_len = 0;
}

StatusOr<OutboundFrame> make_outbound_frame(std::uint16_t kind, std::uint64_t request_id,
                                            std::span<const std::uint8_t> inline_payload,
                                            std::vector<OutboundFrame::Segment> segments,
                                            std::vector<std::uint8_t> owned,
                                            std::optional<std::uint64_t> checksum) {
  OutboundFrame frame;
  if (inline_payload.size() > frame.prefix.size() - kHeaderBytes) {
    return Status(StatusCode::kInvalidArgument, "inline payload exceeds the prefix slot");
  }
  std::vector<ConstBuffer> parts;
  parts.reserve(segments.size() + 2);
  parts.push_back({inline_payload.data(), inline_payload.size()});
  for (const OutboundFrame::Segment& segment : segments) {
    parts.push_back({segment.buffer.data() + segment.offset, segment.len});
  }
  parts.push_back({owned.data(), owned.size()});
  StatusOr<FrameHeader> header = header_over(kind, request_id, parts, checksum);
  if (!header.ok()) return header.status();
  encode_header(header.value(), std::span(frame.prefix).first<kHeaderBytes>());
  if (!inline_payload.empty()) {
    std::memcpy(frame.prefix.data() + kHeaderBytes, inline_payload.data(),
                inline_payload.size());
  }
  frame.prefix_len = kHeaderBytes + inline_payload.size();
  frame.size = frame.prefix_len + header.value().payload_len - inline_payload.size();
  frame.segments = std::move(segments);
  frame.owned = std::move(owned);
  frame.tag = static_cast<MsgKind>(kind) == MsgKind::kError ? OutboundFrame::kTagError
                                                             : OutboundFrame::kTagOk;
  return frame;
}

StatusOr<bool> FrameWriter::flush(TcpStream& stream, CompletionFn on_complete, void* ctx) {
  while (!queue_.empty()) {
    OutboundFrame& frame = queue_.front();
    // Rebuild the remaining parts from the offset each round: a few
    // subtractions against one syscall, and no iovec state to persist.
    // Parts past the socket layer's iovec cap go out in a later round.
    std::array<ConstBuffer, 16> parts;
    std::size_t count = 0;
    std::size_t skip = frame.offset;
    const auto remainder = [&](const std::uint8_t* data, std::size_t len) {
      if (skip >= len) {
        skip -= len;
        return;
      }
      if (count < parts.size()) parts[count++] = ConstBuffer{data + skip, len - skip};
      skip = 0;
    };
    remainder(frame.prefix.data(), frame.prefix_len);
    for (const OutboundFrame::Segment& segment : frame.segments) {
      remainder(segment.buffer.data() + segment.offset, segment.len);
    }
    remainder(frame.owned.data(), frame.owned.size());

    if (count > 0) {
      StatusOr<std::size_t> n = stream.send_some({parts.data(), count});
      if (!n.ok()) return n.status();
      if (n.value() == 0) return false;
      frame.offset += n.value();
    }
    if (frame.offset < frame.total()) continue;  // partial — try the socket again
    if (on_complete != nullptr) on_complete(ctx, frame);
    queue_.pop_front();
  }
  return true;
}

}  // namespace hmm::net
