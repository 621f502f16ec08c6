#pragma once
/// Whole HMMP payloads and frames for the networked test suites, built
/// the way every sender builds them: an encoder's prefix
/// (net/protocol.hpp), then the element words in wire order; a frame's
/// 28-byte header from `net::encode_header`.

#include <cstdint>
#include <span>
#include <vector>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/distributed.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"

namespace hmm::test {

/// `prefix` (an encoder's output), then `words`.
template <typename Prefix>
std::vector<std::uint8_t> payload_of(const Prefix& prefix,
                                     std::span<const std::uint32_t> words = {}) {
  std::vector<std::uint8_t> out(prefix.data(), prefix.data() + prefix.size());
  std::vector<std::uint8_t> staging;
  const std::span<const std::uint8_t> bytes = net::wire_words(words, staging);
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

/// A SHARD_PLAN payload priming `band` of plan `plan_id`.
inline std::vector<std::uint8_t> shard_plan_payload(std::uint64_t plan_id,
                                                    const runtime::BandExchange& band) {
  std::vector<std::uint8_t> out = payload_of(
      net::encode_shard_plan(plan_id, band.bands(), band.shard(), band.send(), band.recv()),
      band.pack());
  const std::vector<std::uint8_t> merge = payload_of(std::vector<std::uint8_t>{}, band.merge());
  out.insert(out.end(), merge.begin(), merge.end());
  return out;
}

/// The words a decoded view borrows, copied out.
inline std::vector<std::uint32_t> words_of(const net::WordsView& words) {
  std::vector<std::uint32_t> out(words.count);
  words.copy_to(out);
  return out;
}

/// `frame` as wire bytes: its header, then its payload. For fakes that
/// write raw bytes (or tamper with them) instead of sending a frame.
inline std::vector<std::uint8_t> frame_bytes(const net::Frame& frame) {
  std::vector<std::uint8_t> out(net::kHeaderBytes);
  net::encode_header({.kind = frame.kind,
                      .request_id = frame.request_id,
                      .payload_len = static_cast<std::uint32_t>(frame.payload.size()),
                      .checksum = net::checksum_bytes(frame.payload)},
                     std::span(out).first<net::kHeaderBytes>());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

/// Send `frame` through the stream sender every peer uses.
inline runtime::Status send_frame(net::TcpStream& stream, const net::Frame& frame) {
  const net::ConstBuffer part{frame.payload.data(), frame.payload.size()};
  return net::write_frame_parts(stream, frame.kind, frame.request_id, {&part, 1});
}

/// Receive one frame through the stream receiver every peer uses, its
/// payload copied out of the pooled storage.
inline runtime::StatusOr<net::Frame> recv_frame(
    net::TcpStream& stream, std::uint32_t max_payload = net::kDefaultMaxPayload) {
  util::BufferPool pool;
  util::PooledBuffer storage;
  runtime::StatusOr<net::FrameView> view =
      net::read_frame_view(stream, pool, storage, max_payload);
  if (!view.ok()) return view.status();
  return net::Frame{.kind = view.value().kind,
                    .request_id = view.value().request_id,
                    .payload = {view.value().payload.begin(), view.value().payload.end()}};
}

}  // namespace hmm::test
