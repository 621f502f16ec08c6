/// Tests for the net layer: HMMP framing (round trip over a stream and
/// strict rejection of truncated / foreign / oversized / corrupt
/// frames by both stream readers), the typed payload codecs, the
/// Status<->wire-error bijection, and a loopback end-to-end suite
/// running `net::Server` and `net::Client` in-process — including the
/// deadline-exceeded and admission-reject paths and graceful drain
/// under load.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <random>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "cpu/dispatch.hpp"
#include "net/client.hpp"
#include "net/frame_io.hpp"
#include "net/plan_registry.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "net_payload.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/phase.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/buffer_pool.hpp"
#include "util/thread_pool.hpp"

// Heap allocations of at least this many bytes, counted process-wide
// by the replacement operator new below (the allocation-free client
// test reads it; every other test ignores it).
std::atomic<std::size_t> g_large_alloc_threshold{~std::size_t{0}};
std::atomic<std::uint64_t> g_large_allocs{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (size >= g_large_alloc_threshold.load(std::memory_order_relaxed)) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// All out of line, so the compiler never pairs an inlined malloc() or
// free() with a new- or delete-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hmm {
namespace {

using namespace std::chrono_literals;
using runtime::Status;
using runtime::StatusCode;

// ---------------------------------------------------------------- wire

net::Frame sample_frame() {
  net::Frame f;
  f.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  f.request_id = 0x1122334455667788ull;
  f.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  return f;
}

TEST(Wire, MagicBytesSpellHMMP) {
  const auto bytes = test::frame_bytes(sample_frame());
  EXPECT_EQ(bytes[0], 'H');
  EXPECT_EQ(bytes[1], 'M');
  EXPECT_EQ(bytes[2], 'M');
  EXPECT_EQ(bytes[3], 'P');
}

TEST(Wire, HeaderCodecRoundTripsAndWritesVersionTwo) {
  const net::FrameHeader in{.kind = 0x0203, .request_id = 0x0102030405060708ull,
                            .payload_len = 0x00abcdef, .checksum = 0xe3069283u};
  std::array<std::uint8_t, net::kHeaderBytes> bytes{};
  net::encode_header(in, bytes);
  EXPECT_EQ(bytes[4], 0x02);
  EXPECT_EQ(bytes[5], 0x00);
  EXPECT_EQ(bytes[20], 0x83);  // checksum LE, high half zero
  EXPECT_EQ(bytes[27], 0x00);
  net::FrameHeader out;
  ASSERT_EQ(net::parse_header(bytes, in.payload_len, out), net::FrameError::kOk);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload_len, in.payload_len);
  EXPECT_EQ(out.checksum, in.checksum);
  EXPECT_EQ(net::parse_header(bytes, in.payload_len - 1, out), net::FrameError::kOversized);
}

TEST(Wire, FrameErrorNamesAreStable) {
  EXPECT_EQ(net::to_string(net::FrameError::kOk), "ok");
  EXPECT_EQ(net::to_string(net::FrameError::kBadMagic), "bad magic");
  EXPECT_EQ(net::to_string(net::FrameError::kBadChecksum), "payload checksum mismatch");
}

TEST(Wire, ByteWriterIsLittleEndian) {
  net::ByteWriter w;
  w.put_u32(0x01020304u);
  w.put_u16(0xa0b0u);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
  EXPECT_EQ(b[4], 0xb0);
  EXPECT_EQ(b[5], 0xa0);
}

TEST(Wire, ByteReaderNeverOverReads) {
  const std::uint8_t raw[] = {0x01, 0x02};
  net::ByteReader r({raw, 2});
  std::uint32_t word = 0xcafef00d;
  EXPECT_FALSE(r.get_u32(word));       // only 2 bytes available
  EXPECT_EQ(word, 0xcafef00du);        // output untouched on failure
  std::uint16_t half = 0;
  EXPECT_TRUE(r.get_u16(half));
  EXPECT_EQ(half, 0x0201u);
  EXPECT_TRUE(r.exhausted());
  std::uint8_t byte = 0;
  EXPECT_FALSE(r.get_u8(byte));
}

TEST(Wire, WriterReaderRoundTripAllWidths) {
  net::ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_string("hmm");

  net::ByteReader r(w.bytes());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  ASSERT_TRUE(r.get_u8(u8));
  ASSERT_TRUE(r.get_u16(u16));
  ASSERT_TRUE(r.get_u32(u32));
  ASSERT_TRUE(r.get_u64(u64));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(r.rest_as_string(), "hmm");
  EXPECT_TRUE(r.exhausted());
}

// ------------------------------------------------------------ protocol

TEST(NetProtocol, StatusToWireIsABijection) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
      StatusCode::kPlanBuildFailed,  StatusCode::kCancelled,
      StatusCode::kUnavailable,
  };
  std::vector<std::uint32_t> images;
  for (StatusCode code : codes) {
    const net::WireError wire = net::to_wire(code);
    EXPECT_EQ(net::from_wire(static_cast<std::uint32_t>(wire)), code);
    images.push_back(static_cast<std::uint32_t>(wire));
  }
  std::sort(images.begin(), images.end());
  EXPECT_TRUE(std::adjacent_find(images.begin(), images.end()) == images.end())
      << "two StatusCodes share a wire code";
}

TEST(NetProtocol, ResourceExhaustedTravelsAsRetryLater) {
  EXPECT_EQ(net::to_wire(StatusCode::kResourceExhausted), net::WireError::kRetryLater);
  EXPECT_EQ(net::to_string(net::WireError::kRetryLater), "RETRY_LATER");
}

TEST(NetProtocol, UnknownWireCodeDecodesAsUnavailable) {
  EXPECT_EQ(net::from_wire(0xdeadu), StatusCode::kUnavailable);
}

TEST(NetProtocol, RequestKindsAreRecognized) {
  EXPECT_TRUE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kPing)));
  EXPECT_TRUE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kPermute)));
  EXPECT_FALSE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kPingOk)));
  EXPECT_FALSE(net::is_request_kind(static_cast<std::uint16_t>(net::MsgKind::kError)));
  EXPECT_FALSE(net::is_request_kind(0x0000));
}

TEST(NetProtocol, SubmitPlanRoundTrips) {
  const std::vector<std::uint32_t> mapping = {3, 1, 0, 2};
  const auto payload = test::payload_of(net::encode_submit_plan(mapping.size()), mapping);
  auto out = net::SubmitPlanRequestView::decode(payload, 16);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(test::words_of(out.value().mapping), mapping);
}

TEST(NetProtocol, SubmitPlanRejectsMalformedPayloads) {
  const std::vector<std::uint32_t> mapping = {3, 1, 0, 2};
  const auto payload = test::payload_of(net::encode_submit_plan(mapping.size()), mapping);

  // Truncated: count promises more words than the payload carries.
  const std::span<const std::uint8_t> torn(payload.data(), payload.size() - 2);
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(torn, 16).ok());

  // Trailing garbage after the mapping.
  auto padded = payload;
  padded.push_back(0x00);
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(padded, 16).ok());

  // Count above the receiver's element budget.
  EXPECT_EQ(net::SubmitPlanRequestView::decode(payload, 3).status().code(),
            StatusCode::kInvalidArgument);

  // Empty mapping.
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(net::encode_submit_plan(0), 16).ok());
}

TEST(NetProtocol, PermuteRequestRoundTrips) {
  const net::PermuteHeader header{0xfeedfacecafebeefull, 250};
  const std::vector<std::uint32_t> data = {10, 20, 30, 40, 50, 60, 70, 80};
  const auto payload = test::payload_of(net::encode_permute(header, data.size()), data);
  auto out = net::PermuteRequestView::decode(payload, 64);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value().plan_id, header.plan_id);
  EXPECT_EQ(out.value().deadline_ms, header.deadline_ms);
  EXPECT_EQ(test::words_of(out.value().data), data);
}

TEST(NetProtocol, PermuteRequestRejectsForeignElementWidth) {
  const std::vector<std::uint32_t> data = {1, 2};
  auto payload = test::payload_of(net::encode_permute({1, 0}, data.size()), data);
  // elem_bytes sits after plan_id (8) + deadline_ms (4), as a u32 LE.
  payload[12] = 8;
  const auto out = net::PermuteRequestView::decode(payload, 64);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, PermuteResponseRoundTrips) {
  const std::vector<std::uint32_t> data = {5, 4, 3, 2, 1};
  const auto payload = test::payload_of(net::encode_words_ok(data.size()), data);
  auto out = net::WordsResponseView::decode(net::MsgKind::kPermuteOk, payload, data.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(test::words_of(out.value().data), data);
}

TEST(NetProtocol, ErrorResponseRoundTripsAndMapsToStatus) {
  net::ErrorResponse in;
  in.code = static_cast<std::uint32_t>(net::WireError::kDeadlineExceeded);
  in.message = "queued past the request deadline";
  auto out = net::ErrorResponse::decode(in.encode());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().code, in.code);
  EXPECT_EQ(out.value().message, in.message);
  const Status s = out.value().to_status();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.to_string().find(in.message), std::string::npos);
}

// Regression (PR 4): the client used to cast deadline.count() straight
// to uint32_t, so values >= 2^32 ms wrapped around. The clamp saturates
// instead.
TEST(NetProtocol, ClampDeadlineSaturatesInsteadOfWrapping) {
  using std::chrono::milliseconds;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(net::clamp_deadline(milliseconds(-5)), 0u);
  EXPECT_EQ(net::clamp_deadline(milliseconds(0)), 0u);
  EXPECT_EQ(net::clamp_deadline(milliseconds(1)), 1u);
  EXPECT_EQ(net::clamp_deadline(milliseconds(kMax) - milliseconds(1)),
            kMax - 1);
  EXPECT_EQ(net::clamp_deadline(milliseconds(kMax)), kMax);
  // 2^32 + 1 ms used to wrap to 1 ms — the bug this clamp exists for.
  EXPECT_EQ(net::clamp_deadline(milliseconds((std::int64_t{1} << 32) + 1)),
            kMax);
  EXPECT_EQ(net::clamp_deadline(milliseconds(std::int64_t{1} << 40)), kMax);
}

TEST(NetProtocol, MakeErrorFrameCarriesTypedStatus) {
  const Status cause(StatusCode::kResourceExhausted, "admission bound reached");
  const net::Frame frame = net::make_error_frame(42, cause);
  EXPECT_EQ(frame.kind, static_cast<std::uint16_t>(net::MsgKind::kError));
  EXPECT_EQ(frame.request_id, 42u);
  auto decoded = net::ErrorResponse::decode(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().to_status().code(), StatusCode::kResourceExhausted);
}

// --------------------------------------------------------- golden bytes
// Each message kind's bytes, written field by field from the layouts in
// docs/PROTOCOL.md §3 — not from the encoders they pin. Every encoder
// must reproduce its fixture, and every decoder must read back the
// fields the fixture was written from.

constexpr std::uint64_t kGoldenPlan = 0x0123456789abcdefull;
constexpr std::uint64_t kGoldenSession = 0x1122334455667788ull;
constexpr std::uint32_t kGoldenDeadline = 250;
const std::vector<std::uint32_t> kGoldenWords = {0xdeadbeefu, 7};
const std::vector<runtime::ProgramOp> kGoldenOps = {
    {runtime::ProgramOpCode::kPermute, kGoldenPlan}, {runtime::ProgramOpCode::kRotate, 5}};

// SUBMIT_PLAN of the 4-element mapping {3, 1, 0, 2}.
const std::vector<std::uint32_t> kGoldenMapping = {3, 1, 0, 2};
const std::vector<std::uint8_t> kGoldenSubmitPlan = {
    0x04, 0, 0, 0, 0, 0, 0, 0,                                 // u64 n
    0x03, 0, 0, 0, 0x01, 0, 0, 0, 0x00, 0, 0, 0, 0x02, 0, 0, 0,  // u32 mapping[4]
};

const std::vector<std::uint8_t> kGoldenPlanOk = {
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64 plan_id
};

const std::vector<std::uint8_t> kGoldenPermute = {
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64 plan_id
    0xfa, 0, 0, 0,                                   // u32 deadline_ms = 250
    0x04, 0, 0, 0,                                   // u32 elem_bytes
    0x02, 0, 0, 0, 0, 0, 0, 0,                       // u64 count
    0xef, 0xbe, 0xad, 0xde, 0x07, 0, 0, 0,           // data
};

// PERMUTE_OK, PROGRAM_OK and SHARD_EXEC_OK alike.
const std::vector<std::uint8_t> kGoldenWordsOk = {
    0x02, 0, 0, 0, 0, 0, 0, 0,              // u64 count
    0xef, 0xbe, 0xad, 0xde, 0x07, 0, 0, 0,  // data
};

const std::vector<std::uint8_t> kGoldenExecuteProgram = {
    0xfa, 0, 0, 0,  // u32 deadline_ms = 250
    0x04, 0, 0, 0,  // u32 elem_bytes
    0x00, 0, 0, 0,  // u32 flags
    0x02, 0, 0, 0,  // u32 op_count
    0x01, 0, 0, 0, 0, 0, 0, 0,                        // op 1: PERMUTE, reserved,
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  //   arg = plan id
    0x08, 0, 0, 0, 0, 0, 0, 0,                        // op 2: ROTATE, reserved,
    0x05, 0, 0, 0, 0, 0, 0, 0,                        //   arg = shift 5
    0x02, 0, 0, 0, 0, 0, 0, 0,                        // u64 count
    0xef, 0xbe, 0xad, 0xde, 0x07, 0, 0, 0,            // data
};

// Band 1 of 2 of a 4-element plan; peers "a":7001 and "bb":7002.
const std::vector<std::uint8_t> kGoldenShardExec = {
    0x03, 0, 0, 0,                                   // u32 version
    0x04, 0, 0, 0,                                   // u32 elem_bytes
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64 session_id
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64 plan_id
    0xfa, 0, 0, 0,                                   // u32 deadline_ms
    0x01, 0, 0, 0,                                   // u32 shard_index
    0x02, 0, 0, 0,                                   // u32 shard_count
    0x00, 0, 0, 0,                                   // u32 reserved
    0x04, 0, 0, 0, 0, 0, 0, 0,                       // u64 n
    0x59, 0x1b, 0x01, 0x00, 'a',                     // peer 0: port, host_len, host
    0x5a, 0x1b, 0x02, 0x00, 'b', 'b',                // peer 1
    0, 0, 0, 0, 0,                                   // pad to offset 64
    0x02, 0, 0, 0, 0, 0, 0, 0,                       // u64 count
    0xef, 0xbe, 0xad, 0xde, 0x07, 0, 0, 0,           // band
};

const std::vector<std::uint8_t> kGoldenShardXchg = {
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64 session_id
    0x00, 0, 0, 0,                                   // u32 reserved
    0x01, 0, 0, 0,                                   // u32 src_shard
    0x02, 0, 0, 0, 0, 0, 0, 0,                       // u64 count
    0xef, 0xbe, 0xad, 0xde, 0x07, 0, 0, 0,           // block
};

// Band 0 of 2 of a 4-element plan: one element stays, one leaves.
const std::vector<std::uint64_t> kGoldenSend = {1, 1};
const std::vector<std::uint64_t> kGoldenRecv = {1, 1};
const std::vector<std::uint32_t> kGoldenPack = {1, 0};
const std::vector<std::uint32_t> kGoldenMerge = {0, 1};
const std::vector<std::uint8_t> kGoldenShardPlan = {
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64 plan_id
    0x00, 0, 0, 0,                                   // u32 shard_index
    0x02, 0, 0, 0,                                   // u32 shard_count
    0x04, 0, 0, 0, 0, 0, 0, 0,                       // u64 n
    0x01, 0, 0, 0, 0, 0, 0, 0,                       // u64 send[0]
    0x01, 0, 0, 0, 0, 0, 0, 0,                       // u64 send[1]
    0x01, 0, 0, 0, 0, 0, 0, 0,                       // u64 recv[0]
    0x01, 0, 0, 0, 0, 0, 0, 0,                       // u64 recv[1]
    0x01, 0, 0, 0, 0x00, 0, 0, 0,                    // u32 pack[2]
    0x00, 0, 0, 0, 0x01, 0, 0, 0,                    // u32 merge[2]
};

const std::vector<std::uint8_t> kGoldenError = {
    0x02, 0, 0, 0,       // u32 code = DEADLINE_EXCEEDED
    'l', 'a', 't', 'e',  // message
};

std::vector<std::uint8_t> concat(std::span<const std::uint8_t> head,
                                 std::span<const std::uint8_t> tail) {
  std::vector<std::uint8_t> out(head.begin(), head.end());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

TEST(NetProtocol, GoldenSubmitPlan) {
  EXPECT_EQ(test::payload_of(net::encode_submit_plan(4), kGoldenMapping), kGoldenSubmitPlan);
  auto view = net::SubmitPlanRequestView::decode(kGoldenSubmitPlan, 4);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(test::words_of(view.value().mapping), kGoldenMapping);
}

TEST(NetProtocol, GoldenPlanOk) {
  const net::Head8 head = net::encode_plan_ok(kGoldenPlan);
  EXPECT_TRUE(std::ranges::equal(head, kGoldenPlanOk));
  auto plan = net::decode_plan_ok(kGoldenPlanOk);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan.value(), kGoldenPlan);
}

TEST(NetProtocol, GoldenPermute) {
  const std::array<std::uint8_t, 24> head =
      net::encode_permute({kGoldenPlan, kGoldenDeadline}, 2);
  EXPECT_EQ(test::payload_of(head, kGoldenWords), kGoldenPermute);
  auto view = net::PermuteRequestView::decode(kGoldenPermute, 2);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().plan_id, kGoldenPlan);
  EXPECT_EQ(view.value().deadline_ms, kGoldenDeadline);
  EXPECT_EQ(test::words_of(view.value().data), kGoldenWords);
}

TEST(NetProtocol, GoldenWordsOk) {
  EXPECT_EQ(test::payload_of(net::encode_words_ok(2), kGoldenWords), kGoldenWordsOk);
  for (const net::MsgKind kind :
       {net::MsgKind::kPermuteOk, net::MsgKind::kProgramOk, net::MsgKind::kShardExecOk}) {
    SCOPED_TRACE(net::to_string(kind));
    auto view = net::WordsResponseView::decode(kind, kGoldenWordsOk, 2);
    ASSERT_TRUE(view.ok()) << view.status().to_string();
    EXPECT_EQ(test::words_of(view.value().data), kGoldenWords);
    // A refusal names the kind it decoded.
    auto wrong = net::WordsResponseView::decode(kind, kGoldenWordsOk, 3);
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().message(),
              std::string(net::to_string(kind)) + ": element count does not match the request");
  }
}

TEST(NetProtocol, GoldenExecuteProgram) {
  auto prefix = net::encode_execute_program(kGoldenDeadline, kGoldenOps, 2);
  ASSERT_TRUE(prefix.ok()) << prefix.status().to_string();
  EXPECT_EQ(test::payload_of(prefix.value(), kGoldenWords), kGoldenExecuteProgram);
  auto view = net::ExecuteProgramRequestView::decode(kGoldenExecuteProgram, 2);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().deadline_ms, kGoldenDeadline);
  EXPECT_EQ(view.value().ops, kGoldenOps);
  EXPECT_EQ(test::words_of(view.value().data), kGoldenWords);
  // The encoder refuses what the decoder would.
  EXPECT_EQ(net::encode_execute_program(0, {}, 2).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<runtime::ProgramOp> deep(runtime::kMaxProgramOps + 1, kGoldenOps[1]);
  EXPECT_EQ(net::encode_execute_program(0, deep, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetProtocol, GoldenShardExec) {
  const net::ShardExecHeader header{kGoldenSession, kGoldenPlan, kGoldenDeadline, 1, 4,
                                    {{"a", 7001}, {"bb", 7002}}};
  EXPECT_EQ(test::payload_of(net::encode_shard_exec(header, 2), kGoldenWords),
            kGoldenShardExec);
  auto view = net::ShardExecRequestView::decode(kGoldenShardExec, 2);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().session_id, kGoldenSession);
  EXPECT_EQ(view.value().plan_id, kGoldenPlan);
  EXPECT_EQ(view.value().deadline_ms, kGoldenDeadline);
  EXPECT_EQ(view.value().shard_index, 1u);
  EXPECT_EQ(view.value().n, 4u);
  ASSERT_EQ(view.value().shard_count(), 2u);
  EXPECT_EQ(view.value().peers[0].host, "a");
  EXPECT_EQ(view.value().peers[0].port, 7001);
  EXPECT_EQ(view.value().peers[1].host, "bb");
  EXPECT_EQ(view.value().peers[1].port, 7002);
  EXPECT_EQ(test::words_of(view.value().band), kGoldenWords);
}

TEST(NetProtocol, GoldenShardXchg) {
  const std::array<std::uint8_t, 24> head = net::encode_shard_xchg({kGoldenSession, 1}, 2);
  EXPECT_EQ(test::payload_of(head, kGoldenWords), kGoldenShardXchg);
  auto view = net::ShardXchgRequestView::decode(kGoldenShardXchg, 2);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().session_id, kGoldenSession);
  EXPECT_EQ(view.value().src_shard, 1u);
  EXPECT_EQ(test::words_of(view.value().block), kGoldenWords);
}

TEST(NetProtocol, GoldenShardPlan) {
  auto bands = runtime::BandPlan::build(4, 2);
  ASSERT_TRUE(bands.ok()) << bands.status().to_string();
  const std::vector<std::uint8_t> header =
      net::encode_shard_plan(kGoldenPlan, bands.value(), 0, kGoldenSend, kGoldenRecv);
  ASSERT_EQ(header.size(), net::shard_plan_header_bytes(2));
  EXPECT_EQ(test::payload_of(test::payload_of(header, kGoldenPack), kGoldenMerge),
            kGoldenShardPlan);
  auto plan = net::ShardPlanRequest::decode(kGoldenShardPlan);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan.value().plan_id, kGoldenPlan);
  const runtime::BandExchange& band = plan.value().band;
  EXPECT_EQ(band.shard(), 0u);
  EXPECT_EQ(band.bands().shards(), 2u);
  EXPECT_EQ(band.bands().elements(), 4u);
  EXPECT_TRUE(std::ranges::equal(band.send(), kGoldenSend));
  EXPECT_TRUE(std::ranges::equal(band.recv(), kGoldenRecv));
  EXPECT_TRUE(std::ranges::equal(band.pack(), kGoldenPack));
  EXPECT_TRUE(std::ranges::equal(band.merge(), kGoldenMerge));
}

TEST(NetProtocol, GoldenError) {
  const net::Frame frame =
      net::make_error_frame(1, Status(StatusCode::kDeadlineExceeded, "late"));
  EXPECT_EQ(frame.payload, kGoldenError);
  auto err = net::ErrorResponse::decode(kGoldenError);
  ASSERT_TRUE(err.ok()) << err.status().to_string();
  EXPECT_EQ(err.value().code, static_cast<std::uint32_t>(net::WireError::kDeadlineExceeded));
  EXPECT_EQ(err.value().message, "late");
}

// What `Client` puts on the wire is the fixture: a one-connection
// listener records each request payload and answers it — PLAN_OK with
// the fingerprint of the mapping it decoded, an element answer echoing
// the request's words.
TEST(NetProtocol, ClientSendsTheGoldenBytes) {
  auto bound = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok()) << bound.status().to_string();
  net::TcpListener listener = std::move(bound).value();
  std::vector<std::vector<std::uint8_t>> captured;
  std::thread listen([&] {
    auto accepted = listener.accept(5'000ms);
    if (!accepted.ok()) return;
    for (;;) {
      auto frame = test::recv_frame(accepted.value());
      if (!frame.ok()) return;
      const std::vector<std::uint8_t>& payload = frame.value().payload;
      captured.push_back(payload);
      std::vector<std::uint8_t> answer;
      switch (static_cast<net::MsgKind>(frame.value().kind)) {
        case net::MsgKind::kSubmitPlan: {
          auto plan = net::SubmitPlanRequestView::decode(payload, 1 << 20);
          const std::vector<std::uint32_t> mapping =
              plan.ok() ? test::words_of(plan.value().mapping) : std::vector<std::uint32_t>{};
          const net::Head8 id =
              net::encode_plan_ok(runtime::fingerprint_mapping(mapping).value);
          answer.assign(id.begin(), id.end());
          break;
        }
        case net::MsgKind::kPermute:
        case net::MsgKind::kExecuteProgram:
          // The data is the payload's tail, after its 8-byte count.
          answer = concat(net::encode_words_ok(kGoldenWords.size()),
                          std::span(payload).last(4 * kGoldenWords.size()));
          break;
        default:
          return;
      }
      if (!test::send_frame(accepted.value(),
                            net::Frame{static_cast<std::uint16_t>(frame.value().kind | 0x80u),
                                       frame.value().request_id, std::move(answer)})
               .is_ok()) {
        return;
      }
    }
  });
  net::Client::Config cc;
  cc.port = listener.port();
  cc.max_retries = 0;
  util::aligned_vector<std::uint32_t> mapping(kGoldenMapping.begin(), kGoldenMapping.end());
  const perm::Permutation p(std::move(mapping));
  // A mapping of any length leaves the same way.
  const perm::Permutation big = perm::by_name("random", 10007, 11);
  std::optional<runtime::StatusOr<std::uint64_t>> plan, big_plan;
  Status permuted, programmed;
  std::vector<std::uint32_t> permute_out(2), program_out(2);
  {
    net::Client client(cc);
    plan = client.submit_plan(p);
    big_plan = client.submit_plan(big);
    const auto deadline = std::chrono::milliseconds(kGoldenDeadline);
    permuted = client.permute(kGoldenPlan, kGoldenWords, permute_out, deadline);
    programmed = client.execute_program(kGoldenOps, kGoldenWords, program_out, deadline);
  }
  listen.join();
  ASSERT_TRUE(plan->ok()) << plan->status().to_string();
  EXPECT_EQ(plan->value(), runtime::fingerprint_permutation(p).value);
  ASSERT_TRUE(big_plan->ok()) << big_plan->status().to_string();
  EXPECT_EQ(big_plan->value(), runtime::fingerprint_permutation(big).value);
  ASSERT_TRUE(permuted.is_ok()) << permuted.to_string();
  EXPECT_EQ(permute_out, kGoldenWords);
  ASSERT_TRUE(programmed.is_ok()) << programmed.to_string();
  EXPECT_EQ(program_out, kGoldenWords);

  ASSERT_EQ(captured.size(), 4u);
  EXPECT_EQ(captured[0], kGoldenSubmitPlan);
  EXPECT_EQ(captured[1], test::payload_of(net::encode_submit_plan(big.size()), big.data()));
  EXPECT_EQ(captured[2], kGoldenPermute);
  EXPECT_EQ(captured[3], kGoldenExecuteProgram);
}

// The seed corpus of a decoder fuzzer: every strict prefix of each
// golden fixture, and the fixture with one byte appended, is refused
// typed by its decoder — never accepted, never a crash.
TEST(NetProtocol, MalformedGoldenPayloadsAreRefusedTyped) {
  using Decode = std::function<Status(std::span<const std::uint8_t>)>;
  const auto status_of = [](const auto& decoded) { return decoded.status(); };
  using Fixture = std::tuple<const char*, const std::vector<std::uint8_t>*, Decode>;
  const std::vector<Fixture> fixtures = {
      {"SUBMIT_PLAN", &kGoldenSubmitPlan,
       [&](auto p) { return status_of(net::SubmitPlanRequestView::decode(p, 1 << 20)); }},
      {"PLAN_OK", &kGoldenPlanOk, [&](auto p) { return status_of(net::decode_plan_ok(p)); }},
      {"PERMUTE", &kGoldenPermute,
       [&](auto p) { return status_of(net::PermuteRequestView::decode(p, 1 << 20)); }},
      {"PERMUTE_OK", &kGoldenWordsOk,
       [&](auto p) {
         return status_of(net::WordsResponseView::decode(net::MsgKind::kPermuteOk, p, 2));
       }},
      {"EXECUTE_PROGRAM", &kGoldenExecuteProgram,
       [&](auto p) { return status_of(net::ExecuteProgramRequestView::decode(p, 1 << 20)); }},
      {"SHARD_EXEC", &kGoldenShardExec,
       [&](auto p) { return status_of(net::ShardExecRequestView::decode(p, 1 << 20)); }},
      {"SHARD_XCHG", &kGoldenShardXchg,
       [&](auto p) { return status_of(net::ShardXchgRequestView::decode(p, 1 << 20)); }},
      {"SHARD_PLAN", &kGoldenShardPlan,
       [&](auto p) { return status_of(net::ShardPlanRequest::decode(p)); }},
  };
  for (const auto& [kind, fixture, decode] : fixtures) {
    SCOPED_TRACE(kind);
    ASSERT_TRUE(decode(*fixture).is_ok()) << decode(*fixture).to_string();
    for (std::size_t len = 0; len < fixture->size(); ++len) {
      const Status s = decode(std::span(*fixture).first(len));
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << len << " bytes: " << s.to_string();
    }
    std::vector<std::uint8_t> longer = *fixture;
    longer.push_back(0);
    const Status s = decode(longer);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "one byte over: " << s.to_string();
  }
}

// ------------------------------------------------------------ loopback

/// One in-process server over a fresh RobustPermuteService, bound to an
/// ephemeral loopback port.
struct Loopback {
  runtime::RobustPermuteService service;
  net::Server server;

  explicit Loopback(runtime::RobustPermuteService::Config service_config =
                        runtime::RobustPermuteService::Config{},
                    net::Server::Config server_config = net::Server::Config{})
      : service(util::ThreadPool::global(), service_config),
        server(service, std::move(server_config)) {
    const Status started = server.start();
    EXPECT_TRUE(started.is_ok()) << started.to_string();
  }

  [[nodiscard]] net::Client::Config client_config() const {
    net::Client::Config c;
    c.host = "127.0.0.1";
    c.port = server.port();
    c.connect_timeout = 2'000ms;
    c.io_timeout = 10'000ms;
    return c;
  }
};

TEST(NetLoopback, PingEchoes) {
  Loopback loop;
  net::Client client(loop.client_config());
  const Status s = client.ping();
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  // The reactor counts the response once the kernel has taken its last
  // byte, which can land after the client has already read it.
  const auto settle_by = std::chrono::steady_clock::now() + 2s;
  while (loop.server.counters().requests_served() < 1 &&
         std::chrono::steady_clock::now() < settle_by) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(loop.server.counters().requests_served(), 1u);
}

// Regression (PR 4): `requests_served` used to count ERROR responses
// (and even responses whose write failed) as served requests. The
// split counters attribute each delivered response to exactly one of
// ok/error.
TEST(NetLoopback, CountersSplitOkFromErrorResponses) {
  Loopback loop;
  net::Client client(loop.client_config());
  ASSERT_TRUE(client.ping().is_ok());
  ASSERT_TRUE(client.ping().is_ok());

  // Unknown plan id -> a delivered ERROR frame.
  std::vector<std::uint32_t> a(64, 1), b(64, 0);
  const Status s = client.permute(/*plan_id=*/0xdeadbeef, {a.data(), a.size()},
                                  {b.data(), b.size()});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // The reactor counts a response once the kernel has taken its last
  // byte, which can land after the client has already read it: wait for
  // the third count before comparing.
  const auto settle_by = std::chrono::steady_clock::now() + 2s;
  while (loop.server.counters().requests_served() < 3 &&
         std::chrono::steady_clock::now() < settle_by) {
    std::this_thread::sleep_for(1ms);
  }
  const net::Server::Counters counters = loop.server.counters();
  EXPECT_EQ(counters.requests_ok, 2u);
  EXPECT_EQ(counters.requests_error, 1u);
  EXPECT_EQ(counters.requests_served(), 3u);
}

// Regression (PR 4): Client::permute cast deadline.count() straight to
// uint32_t, so a deadline of 2^32+1 ms wrapped to 1 ms and a perfectly
// relaxed request died with DEADLINE_EXCEEDED.
TEST(NetLoopback, HugeDeadlineDoesNotWrapToATinyBudget) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const auto huge = std::chrono::milliseconds((std::int64_t{1} << 32) + 1);
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n}, huge);
  ASSERT_TRUE(s.is_ok()) << "huge deadline wrapped: " << s.to_string();
  EXPECT_EQ(b, expect);
}

TEST(NetLoopback, StatsIncludePhaseBreakdown) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());
  std::vector<std::uint32_t> a(n, 1), b(n, 0);
  ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());

  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"phases\""), std::string::npos);

  const std::vector<runtime::PhaseScrape> phases = runtime::scrape_phases_json(stats.value());
  ASSERT_FALSE(phases.empty());
  const auto count_of = [&phases](std::string_view label) -> std::uint64_t {
    for (const runtime::PhaseScrape& row : phases) {
      if (row.label == label) return row.count;
    }
    return 0;
  };
  // One permute ran end to end: the request-path phases must each have
  // at least one sample in the wire-visible snapshot.
  EXPECT_GE(count_of("admission_wait"), 1u);
  EXPECT_GE(count_of("queue_wait"), 1u);
  EXPECT_GE(count_of("plan_lookup"), 1u);
  EXPECT_GE(count_of("plan_build"), 1u);
  // The serialize span is recorded after the response is written, so
  // the PERMUTE's own serialize sample may postdate this STATS read —
  // but the SUBMIT_PLAN and PERMUTE responses already landed.
  EXPECT_GE(count_of("serialize"), 1u);
}

TEST(NetLoopback, PermuteMatchesLocalApply) {
  Loopback loop;
  net::Client client(loop.client_config());

  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);
}

TEST(NetLoopback, ResubmittingAPlanDeduplicates) {
  Loopback loop;
  net::Client client(loop.client_config());
  const perm::Permutation p = perm::by_name("shuffle", 512, 3);
  auto first = client.submit_plan(p);
  auto second = client.submit_plan(p);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(loop.server.plans(), 1u);
}

// A forged id that names a registered plan but another mapping — a
// 64-bit collision — is refused typed. The registry keeps the first
// plan, which still serves oracle-exact through a server.
TEST(PlanRegistry, CollidingMappingIsRefusedAndTheFirstPlanKept) {
  const std::uint64_t n = 1024;
  const auto first = std::make_shared<const perm::Permutation>(perm::by_name("random", n, 4));
  const auto other = std::make_shared<const perm::Permutation>(perm::by_name("random", n, 5));
  const std::uint64_t id = runtime::fingerprint_permutation(*first).value;
  net::PlanRegistry registry(2);
  ASSERT_TRUE(registry.insert(id, first).is_ok());
  EXPECT_TRUE(registry.insert(id, std::make_shared<const perm::Permutation>(*first)).is_ok())
      << "the same mapping again is a duplicate, not a collision";
  const Status collision = registry.insert(id, other);
  EXPECT_EQ(collision.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(collision.message().find("plan id collision"), std::string::npos)
      << collision.to_string();
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_NE(registry.find(id), nullptr);
  EXPECT_EQ(*registry.find(id), *first);
  // The bound still holds: one more plan fits, a third does not.
  EXPECT_TRUE(registry.insert(runtime::fingerprint_permutation(*other).value, other).is_ok());
  const auto third = std::make_shared<const perm::Permutation>(perm::by_name("random", n, 6));
  EXPECT_EQ(registry.insert(runtime::fingerprint_permutation(*third).value, third).code(),
            StatusCode::kResourceExhausted);

  Loopback loop;
  net::Client client(loop.client_config());
  auto plan = client.submit_plan(*registry.find(id));
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan.value(), id);
  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);
  first->apply<std::uint32_t>({a.data(), n}, {expect.data(), n});
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(b, expect);
}

TEST(NetLoopback, UnknownPlanIsInvalidArgument) {
  Loopback loop;
  net::Client client(loop.client_config());
  std::vector<std::uint32_t> a(64, 1), b(64, 0);
  const Status s = client.permute(0xdeadbeefull, {a.data(), 64}, {b.data(), 64});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NetLoopback, CountMismatchIsInvalidArgument) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 512;
  const perm::Permutation p = perm::by_name("rotation", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());
  std::vector<std::uint32_t> a(n / 2, 1), b(n / 2, 0);
  const Status s = client.permute(plan.value(), {a.data(), n / 2}, {b.data(), n / 2});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NetLoopback, NonBijectiveMappingIsRejected) {
  Loopback loop;
  // The typed client only sends valid Permutations; speak raw HMMP to
  // deliver a mapping with a repeated image.
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream stream = std::move(conn).value();

  const std::vector<std::uint32_t> bad = {0, 1, 2, 2};  // 2 appears twice, 3 never
  net::Frame request;
  request.kind = static_cast<std::uint16_t>(net::MsgKind::kSubmitPlan);
  request.request_id = 9;
  request.payload = test::payload_of(net::encode_submit_plan(bad.size()), bad);
  ASSERT_TRUE(test::send_frame(stream, request).is_ok());

  auto response = test::recv_frame(stream, net::kDefaultMaxPayload);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().kind, static_cast<std::uint16_t>(net::MsgKind::kError));
  EXPECT_EQ(response.value().request_id, 9u);
  auto err = net::ErrorResponse::decode(response.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument);
}

TEST(NetLoopback, GarbageBytesGetAnErrorFrameNotAHangup) {
  Loopback loop;
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok());
  net::TcpStream stream = std::move(conn).value();

  // A full header's worth of non-HMMP bytes: the server answers with a
  // best-effort ERROR frame, then closes the connection.
  std::vector<std::uint8_t> junk(net::kHeaderBytes, 0x5a);
  ASSERT_TRUE(stream.send_all(junk.data(), junk.size()).is_ok());

  auto response = test::recv_frame(stream, net::kDefaultMaxPayload);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().kind, static_cast<std::uint16_t>(net::MsgKind::kError));
  auto err = net::ErrorResponse::decode(response.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument);

  // The connection is closed afterwards...
  auto next = test::recv_frame(stream, net::kDefaultMaxPayload);
  EXPECT_FALSE(next.ok());
  // ...and the process is fine: a fresh connection still serves.
  net::Client client(loop.client_config());
  EXPECT_TRUE(client.ping().is_ok());
  EXPECT_GE(loop.server.counters().protocol_errors, 1u);
}

TEST(NetLoopback, StatsReturnsMetricsJson) {
  Loopback loop;
  net::Client client(loop.client_config());
  auto stats = client.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"cache\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"executor\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"phases\""), std::string::npos);
}

TEST(NetLoopback, DeadlineExceededSurfacesTyped) {
  Loopback loop;
  net::Client client(loop.client_config());
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  // Stall every execution 300 ms; a 50 ms budget cannot survive that.
  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 300;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::vector<std::uint32_t> a(n, 1), b(n, 0);
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n}, 50ms);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(NetLoopback, AdmissionRejectSurfacesAsRetryLater) {
  runtime::RobustPermuteService::Config service_config;
  service_config.executor.max_in_flight = 1;
  service_config.executor.admission = runtime::Executor::Admission::kReject;
  Loopback loop(service_config);

  const std::uint64_t n = 4096;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  net::Client setup(loop.client_config());
  auto plan = setup.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  // Stall the single admitted slot so a concurrent request must bounce.
  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 500;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::thread occupant([&] {
    net::Client client(loop.client_config());
    std::vector<std::uint32_t> a(n, 1), b(n, 0);
    // Outcome does not matter; this request exists to hold the slot.
    (void)client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  });

  // Wait until the occupant's request is actually admitted (in flight),
  // then send: with max_in_flight=1 this request must be bounced.
  bool occupied = false;
  for (int spin = 0; spin < 400 && !occupied; ++spin) {
    occupied = loop.service.executor().in_flight() > 0;
    if (!occupied) std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(occupied) << "occupant request never reached the executor";

  net::Client client(loop.client_config());
  std::vector<std::uint32_t> a(n, 1), b(n, 0);
  const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  occupant.join();
  ASSERT_FALSE(s.is_ok()) << "request admitted past a full admission bound";
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
      << "expected RETRY_LATER, got " << s.to_string();
}

TEST(NetLoopback, GracefulStopAnswersTheInFlightRequest) {
  auto loop = std::make_unique<Loopback>();
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  net::Client client(loop->client_config());
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok());

  // Stretch the request so stop() overlaps it.
  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 200;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::vector<std::uint32_t> a(n), b(n, 0), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  Status result(StatusCode::kUnavailable, "not run");
  std::thread request([&] {
    result = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
  });
  std::this_thread::sleep_for(50ms);  // let the request reach the executor
  loop->server.stop();                // must drain, not drop
  request.join();

  EXPECT_TRUE(result.is_ok()) << result.to_string();
  EXPECT_EQ(b, expect);
  EXPECT_FALSE(loop->server.running());
}

// ------------------------------------------------------- client backoff

TEST(NetClient, RetryBackoffGrowsAndSaturatesAtTheCap) {
  net::Client::Config config;
  config.retry_backoff_base = 20ms;
  config.retry_backoff_cap = 160ms;

  // Attempt 0 is the initial try — never delayed.
  EXPECT_EQ(net::Client::retry_backoff(config, 0).count(), 0);

  for (int attempt = 1; attempt <= 24; ++attempt) {
    const auto delay = net::Client::retry_backoff(config, attempt);
    const auto base_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             config.retry_backoff_base)
                             .count();
    const auto cap_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            config.retry_backoff_cap)
                            .count();
    const std::int64_t raw =
        std::min(base_us << std::min(attempt - 1, 20), cap_us);
    // Jitter lives in [0, raw): total in [raw, 2*raw).
    EXPECT_GE(delay.count(), raw) << "attempt " << attempt;
    EXPECT_LT(delay.count(), 2 * raw) << "attempt " << attempt;
    // Determinism: same config + attempt -> same pause (chaos replay).
    EXPECT_EQ(delay.count(), net::Client::retry_backoff(config, attempt).count());
  }

  // Disabled backoff keeps the legacy immediate-retry behaviour.
  net::Client::Config off = config;
  off.retry_backoff_base = 0ms;
  EXPECT_EQ(net::Client::retry_backoff(off, 5).count(), 0);
}

// Regression (PR 4): retries used to reconnect in a hot zero-delay
// loop. Against a dead port (connect fails instantly with
// ECONNREFUSED) the retries must now consume at least the scheduled
// backoff time.
TEST(NetClient, RetriesAgainstDeadPortPaceThemselves) {
  // Grab an ephemeral port, then close the listener so connects are
  // refused immediately.
  auto listener = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();
  const std::uint16_t dead_port = listener.value().port();
  listener.value().close();

  net::Client::Config config;
  config.host = "127.0.0.1";
  config.port = dead_port;
  config.connect_timeout = 250ms;
  config.max_retries = 2;
  config.retry_backoff_base = 30ms;
  config.retry_backoff_cap = 120ms;
  net::Client client(config);

  std::chrono::microseconds scheduled{0};
  for (int attempt = 1; attempt <= config.max_retries; ++attempt) {
    scheduled += net::Client::retry_backoff(config, attempt);
  }
  ASSERT_GT(scheduled.count(), 0);

  const auto started = std::chrono::steady_clock::now();
  const Status s = client.ping();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(s.is_ok());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(),
            scheduled.count());
}

TEST(NetLoopback, ClientReconnectsAfterClose) {
  Loopback loop;
  net::Client client(loop.client_config());
  ASSERT_TRUE(client.ping().is_ok());
  client.close();
  EXPECT_FALSE(client.connected());
  // The next request reconnects lazily.
  EXPECT_TRUE(client.ping().is_ok());
  EXPECT_TRUE(client.connected());
}

TEST(NetLoopback, IdleConnectionsAreClosedAndCounted) {
  net::Server::Config server_config;
  server_config.idle_timeout = 100ms;
  server_config.poll_interval = 10ms;
  Loopback loop({}, server_config);

  // A slow-loris peer: connects, sends nothing, holds a slot.
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream idle = std::move(conn).value();
  ASSERT_TRUE(idle.set_io_timeout(5'000ms, 5'000ms).is_ok());

  // The server closes it quietly (no ERROR frame): the read sees EOF.
  auto got = test::recv_frame(idle, net::kDefaultMaxPayload);
  EXPECT_FALSE(got.ok());
  EXPECT_GE(loop.server.counters().idle_closed, 1u);

  // An active connection is unaffected: requests reset the idle clock.
  net::Client client(loop.client_config());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client.ping().is_ok());
    std::this_thread::sleep_for(40ms);
  }
  EXPECT_TRUE(client.connected());
}

// Regression: the server's pre-frame connection-cap rejection is an
// ERROR frame addressed to request id 0. The client used to classify
// it as "response id does not match the request" (UNAVAILABLE) — a
// protocol violation — instead of the typed RETRY_LATER it is.
TEST(NetLoopback, ConnectionCapRejectionSurfacesTypedRetryLater) {
  net::Server::Config server_config;
  server_config.max_connections = 1;
  Loopback loop({}, server_config);

  // Occupy the only slot, and prove it is held by completing a request.
  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream occupant = std::move(conn).value();
  net::Frame ping;
  ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  ping.request_id = 1;
  ping.payload = {'h', 'i'};
  ASSERT_TRUE(test::send_frame(occupant, ping).is_ok());
  ASSERT_TRUE(test::recv_frame(occupant, net::kDefaultMaxPayload).ok());

  net::Client::Config config = loop.client_config();
  config.max_retries = 0;  // surface the first answer, no backoff loop
  net::Client client(config);
  const Status s = client.ping();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
      << "expected typed RETRY_LATER, got " << s.to_string();
  EXPECT_GE(loop.server.counters().connections_rejected, 1u);
}

TEST(NetLoopback, ServerStartStopIsIdempotent) {
  Loopback loop;
  loop.server.stop();
  loop.server.stop();  // second stop is a no-op
  EXPECT_FALSE(loop.server.running());
}

// ------------------------------------------------------ zero-copy wire

TEST(WireZeroCopy, ChecksumExtendMatchesChecksumOverConcatenation) {
  // Two 24 KiB blocks (three 8 KiB streams each), three 768 B blocks
  // (three 256 B streams each) and a 5-byte tail on the crc32 path:
  // splits inside a stream, on a stream or block edge, and across two
  // blocks must all compose.
  std::vector<std::uint8_t> bytes(2 * 24576 + 3 * 768 + 5);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 11);
  }
  const std::uint64_t whole = net::checksum_bytes(bytes);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{17}, std::size_t{767},
                            std::size_t{768}, std::size_t{8191}, std::size_t{8192},
                            std::size_t{12345}, std::size_t{16385}, std::size_t{24575},
                            std::size_t{24576}, std::size_t{24577}, std::size_t{30000},
                            std::size_t{49152}, bytes.size() - 3, bytes.size()}) {
    std::uint64_t state = net::checksum_seed();
    state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).first(split));
    state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).subspan(split));
    EXPECT_EQ(state, whole) << "split at " << split;
  }
  // Three-way split, including an empty middle part.
  std::uint64_t state = net::checksum_seed();
  state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).first(100));
  state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).subspan(100, 0));
  state = net::checksum_extend(state, std::span<const std::uint8_t>(bytes).subspan(100));
  EXPECT_EQ(state, whole);
}

std::uint64_t checksum_of(std::string_view s) {
  return net::checksum_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

TEST(WireChecksum, Crc32cKnownAnswers) {
  // RFC 3720 §B.4 test vectors, plus the CRC catalogue check value.
  std::vector<std::uint8_t> bytes(32, 0x00);
  EXPECT_EQ(net::checksum_bytes(bytes), 0x8A9136AAu);
  std::fill(bytes.begin(), bytes.end(), 0xFF);
  EXPECT_EQ(net::checksum_bytes(bytes), 0x62A8AB43u);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(net::checksum_bytes(bytes), 0x46DD794Eu);
  EXPECT_EQ(checksum_of("123456789"), 0xE3069283u);
  EXPECT_EQ(checksum_of(""), net::checksum_seed());
}

TEST(WireChecksum, InstructionMatchesTableBitForBit) {
  // The kernels' scalar variant selects the table CRC; every SIMD tier
  // requires SSE4.2 and PCLMULQDQ and selects the three-stream crc32
  // path: 3 x 8 KiB blocks, then 3 x 256 B blocks, then one chain.
  const cpu::KernelVariant active = cpu::kernel_variant();
  if (cpu::best_kernel_variant() == cpu::KernelVariant::kScalar) {
    GTEST_SKIP() << "no SSE4.2 crc32 path on this CPU or build";
  }
  std::vector<std::uint8_t> bytes((1u << 20) + 13 + 8);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  // (offset, length): every length to 4 KiB from every start modulo 8,
  // both sides of the short and long block sizes, and a 1 MiB payload
  // from an odd start that crosses every stage.
  std::vector<std::pair<std::size_t, std::size_t>> cases;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) cases.emplace_back(offset, len);
    for (std::size_t len : {767u, 768u, 769u, 24575u, 24576u, 24577u}) {
      cases.emplace_back(offset, len);
    }
  }
  cases.emplace_back(3, (1u << 20) + 13);
  std::vector<std::uint64_t> table, hardware;
  for (const bool use_table : {true, false}) {
    cpu::set_kernel_variant(use_table ? cpu::KernelVariant::kScalar
                                      : cpu::best_kernel_variant());
    std::vector<std::uint64_t>& out = use_table ? table : hardware;
    for (const auto& [offset, len] : cases) {
      out.push_back(net::checksum_bytes(std::span<const std::uint8_t>(bytes).subspan(offset, len)));
    }
  }
  cpu::set_kernel_variant(active);
  ASSERT_EQ(table.size(), hardware.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    ASSERT_EQ(table[i], hardware[i]) << "offset " << cases[i].first << " length "
                                     << cases[i].second;
  }
}

// ------------------------------------------------ checksums on arrival

/// `len` bytes of a fixed pseudo-random stream.
std::vector<std::uint8_t> noise(std::size_t len, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(len);
  std::mt19937_64 rng(seed);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng() >> 56);
  return bytes;
}

/// The kernel tiers whose checksum paths differ: the table, and the
/// crc32 instruction where the CPU has it.
std::vector<cpu::KernelVariant> checksum_tiers() {
  std::vector<cpu::KernelVariant> tiers = {cpu::KernelVariant::kScalar};
  if (cpu::best_kernel_variant() != cpu::KernelVariant::kScalar) {
    tiers.push_back(cpu::best_kernel_variant());
  }
  return tiers;
}

TEST(Wire, ChecksumCombineMatchesTheConcatenationOnEveryTier) {
  const std::vector<std::uint8_t> bytes = noise((4u << 20) + 3, 48);
  const std::span<const std::uint8_t> all(bytes);
  const cpu::KernelVariant active = cpu::kernel_variant();
  for (const cpu::KernelVariant tier : checksum_tiers()) {
    cpu::set_kernel_variant(tier);
    const auto check = [](std::span<const std::uint8_t> whole, std::uint64_t crc_whole,
                          std::size_t split) {
      const auto a = whole.first(split);
      const auto b = whole.subspan(split);
      EXPECT_EQ(net::checksum_combine(net::checksum_bytes(a), net::checksum_bytes(b), b.size()),
                crc_whole)
          << "length " << whole.size() << " split at " << split;
    };
    const std::uint64_t crc_all = net::checksum_bytes(all);
    check(all, crc_all, 0);           // empty a
    check(all, crc_all, all.size());  // empty b
    std::mt19937_64 rng(7);
    for (int i = 0; i < 6; ++i) check(all, crc_all, rng() % all.size());
    for (std::size_t len = 1; len <= 15; ++len) {
      const auto small = all.subspan(len * 31, len);
      for (std::size_t split = 0; split <= len; ++split) {
        check(small, net::checksum_bytes(small), split);
      }
    }
  }
  cpu::set_kernel_variant(active);
}

TEST(Wire, ChecksumCombinePeelsAKnownPrefix) {
  const std::vector<std::uint8_t> bytes = noise((1u << 20) + 11, 49);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint64_t crc_all = net::checksum_bytes(all);
  for (const std::size_t prefix : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                   std::size_t{13}, std::size_t{65536}, all.size()}) {
    const auto b = all.subspan(prefix);
    EXPECT_EQ(net::checksum_combine(net::checksum_bytes(all.first(prefix)), crc_all, b.size()),
              net::checksum_bytes(b))
        << "prefix " << prefix;
  }
}

/// A connected loopback pair: `sender` writes, `receiver` reads.
struct SocketPair {
  net::TcpStream sender;
  net::TcpStream receiver;

  SocketPair() {
    auto bound = net::TcpListener::bind("127.0.0.1", 0);
    EXPECT_TRUE(bound.ok()) << bound.status().to_string();
    auto connecting = net::tcp_connect("127.0.0.1", bound.value().port(), 2'000ms);
    EXPECT_TRUE(connecting.ok()) << connecting.status().to_string();
    sender = std::move(connecting).value();
    auto accepted = bound.value().accept(2'000ms);
    EXPECT_TRUE(accepted.ok()) << accepted.status().to_string();
    receiver = std::move(accepted).value();
    (void)receiver.set_io_timeout(10'000ms, 10'000ms);
  }
};

/// What a reader made of one frame.
struct ReadBack {
  Status status = Status::ok();
  std::uint16_t kind = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
  std::uint64_t checksum = 0;

  void take(const net::FrameView& view) {
    kind = view.kind;
    request_id = view.request_id;
    payload.assign(view.payload.begin(), view.payload.end());
    checksum = view.checksum;
  }
};

/// `wire` through a FrameReader, sent in pieces of `piece()` bytes, then
/// the sender closes (bytes short of a frame read as a torn one).
ReadBack through_frame_reader(std::span<const std::uint8_t> wire,
                              const std::function<std::size_t()>& piece) {
  SocketPair pair;
  EXPECT_TRUE(pair.receiver.set_nonblocking(true).is_ok());
  std::thread feeder([&] {
    for (std::size_t at = 0; at < wire.size();) {
      const std::size_t n = std::min(piece(), wire.size() - at);
      if (!pair.sender.send_all(wire.data() + at, n).is_ok()) return;
      at += n;
    }
    pair.sender = net::TcpStream();
  });
  util::BufferPool pool;
  net::FrameReader reader(pool);
  ReadBack out;
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  for (;;) {
    runtime::StatusOr<bool> ready = reader.poll(pair.receiver);
    if (!ready.ok()) {
      out.status = ready.status();
      break;
    }
    if (ready.value()) {
      out.take(reader.view());
      break;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      out.status = Status(StatusCode::kDeadlineExceeded, "frame never completed");
      break;
    }
    (void)pair.receiver.poll_readable(10ms);
  }
  feeder.join();
  return out;
}

/// `wire` through read_frame_view, sent in one piece, then the sender
/// closes.
ReadBack through_read_frame_view(std::span<const std::uint8_t> wire,
                                 std::uint32_t max_payload = net::kDefaultMaxPayload) {
  SocketPair pair;
  std::thread feeder([&] {
    (void)pair.sender.send_all(wire.data(), wire.size());
    pair.sender = net::TcpStream();
  });
  util::BufferPool pool;
  util::PooledBuffer storage;
  ReadBack out;
  auto view = net::read_frame_view(pair.receiver, pool, storage, max_payload);
  if (view.ok()) {
    out.take(view.value());
  } else {
    out.status = view.status();
  }
  feeder.join();
  return out;
}

/// `wire` through both stream readers: a FrameReader fed in pieces of a
/// few bytes, and read_frame_view.
std::vector<ReadBack> through_both_readers(std::span<const std::uint8_t> wire) {
  std::mt19937 rng(static_cast<std::uint32_t>(wire.size()));
  return {through_frame_reader(wire, [&] { return 1 + rng() % 7; }),
          through_read_frame_view(wire)};
}

/// Both readers refuse `wire` as a protocol error naming `error`.
void expect_refused(std::span<const std::uint8_t> wire, net::FrameError error) {
  for (const ReadBack& read : through_both_readers(wire)) {
    EXPECT_EQ(read.status.code(), StatusCode::kInvalidArgument) << read.status.to_string();
    EXPECT_NE(read.status.message().find(net::to_string(error)), std::string::npos)
        << read.status.to_string();
  }
}

/// Both readers see `wire` end mid-frame: the peer is gone, torn.
void expect_torn(std::span<const std::uint8_t> wire) {
  for (const ReadBack& read : through_both_readers(wire)) {
    EXPECT_EQ(read.status.code(), StatusCode::kUnavailable) << read.status.to_string();
  }
}

TEST(Wire, FrameRoundTrip) {
  SocketPair pair;
  const net::Frame in = sample_frame();
  ASSERT_TRUE(test::send_frame(pair.sender, in).is_ok());
  auto out = test::recv_frame(pair.receiver);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out.value().kind, in.kind);
  EXPECT_EQ(out.value().request_id, in.request_id);
  EXPECT_EQ(out.value().payload, in.payload);
}

TEST(Wire, EmptyPayloadRoundTrips) {
  net::Frame in;
  in.kind = static_cast<std::uint16_t>(net::MsgKind::kStats);
  in.request_id = 7;
  const auto bytes = test::frame_bytes(in);
  ASSERT_EQ(bytes.size(), net::kHeaderBytes);
  for (const ReadBack& read : through_both_readers(bytes)) {
    ASSERT_TRUE(read.status.is_ok()) << read.status.to_string();
    EXPECT_EQ(read.kind, in.kind);
    EXPECT_EQ(read.request_id, in.request_id);
    EXPECT_TRUE(read.payload.empty());
  }
}

TEST(Wire, ShortHeaderIsATornFrame) {
  const auto bytes = test::frame_bytes(sample_frame());
  expect_torn(std::span(bytes).first(net::kHeaderBytes - 1));
}

TEST(Wire, BadMagicIsRejected) {
  auto bytes = test::frame_bytes(sample_frame());
  bytes[0] ^= 0xff;
  expect_refused(bytes, net::FrameError::kBadMagic);
}

TEST(Wire, UnknownVersionIsRejected) {
  auto bytes = test::frame_bytes(sample_frame());
  bytes[4] = 0x7f;  // version lives at offset 4, LE
  expect_refused(bytes, net::FrameError::kBadVersion);
}

TEST(Wire, VersionOneFrameIsRefusedAsBadVersion) {
  // A v1 peer (FNV-1a checksums) must get a typed framing error, not a
  // checksum mismatch: the version is checked before the payload.
  auto bytes = test::frame_bytes(sample_frame());
  bytes[4] = 0x01;
  bytes[5] = 0x00;
  net::FrameHeader header;
  EXPECT_EQ(net::parse_header(std::span<const std::uint8_t>(bytes).first<net::kHeaderBytes>(),
                              net::kDefaultMaxPayload, header),
            net::FrameError::kBadVersion);
  expect_refused(bytes, net::FrameError::kBadVersion);
}

TEST(Wire, PayloadOverBudgetIsRejectedBeforeRead) {
  const net::Frame in = sample_frame();
  const auto bytes = test::frame_bytes(in);
  const auto budget = static_cast<std::uint32_t>(in.payload.size() - 1);
  // The header alone is sent: the refusal cannot have waited for the
  // payload.
  const ReadBack read =
      through_read_frame_view(std::span(bytes).first(net::kHeaderBytes), budget);
  EXPECT_EQ(read.status.code(), StatusCode::kInvalidArgument) << read.status.to_string();
  EXPECT_NE(read.status.message().find(net::to_string(net::FrameError::kOversized)),
            std::string::npos)
      << read.status.to_string();
}

TEST(Wire, TruncatedPayloadIsRejected) {
  const auto bytes = test::frame_bytes(sample_frame());
  expect_torn(std::span(bytes).first(bytes.size() - 1));
}

TEST(Wire, CorruptPayloadFailsChecksum) {
  auto bytes = test::frame_bytes(sample_frame());
  bytes[net::kHeaderBytes + 2] ^= 0x01;  // flip one payload bit
  expect_refused(bytes, net::FrameError::kBadChecksum);
}

TEST(Wire, FrameReaderVerifiesTheSameFrameHoweverItArrives) {
  // A small frame, fed even one byte at a time, and one that spans two
  // checksum chunks.
  for (const std::size_t len : {std::size_t{5000}, net::kChecksumChunk + 4097}) {
    net::Frame frame;
    frame.kind = static_cast<std::uint16_t>(net::MsgKind::kPermuteOk);
    frame.request_id = 0xfeed0000u + len;
    frame.payload = noise(len, len);
    const std::vector<std::uint8_t> wire = test::frame_bytes(frame);
    const std::uint64_t crc = net::checksum_bytes(frame.payload);

    std::mt19937 rng(static_cast<std::uint32_t>(len));
    std::vector<ReadBack> reads;
    reads.push_back(through_frame_reader(wire, [&] { return wire.size(); }));
    reads.push_back(through_frame_reader(wire, [&] { return 1 + rng() % 9000; }));
    if (len < net::kChecksumChunk) {
      reads.push_back(through_frame_reader(wire, [] { return 1; }));
    }
    reads.push_back(through_read_frame_view(wire));
    for (const ReadBack& read : reads) {
      ASSERT_TRUE(read.status.is_ok()) << read.status.to_string();
      EXPECT_EQ(read.kind, frame.kind);
      EXPECT_EQ(read.request_id, frame.request_id);
      EXPECT_EQ(read.payload, frame.payload);
      EXPECT_EQ(read.checksum, crc);
    }
  }
}

TEST(Wire, FlippedByteInTheFirstOrLastChunkIsABadChecksumOnBothReaders) {
  net::Frame frame;
  frame.kind = static_cast<std::uint16_t>(net::MsgKind::kShardExecOk);
  frame.request_id = 9;
  frame.payload = noise(2 * net::kChecksumChunk + 5, 50);
  const std::vector<std::uint8_t> clean = test::frame_bytes(frame);
  for (const std::size_t at : {std::size_t{3}, frame.payload.size() - 2}) {
    std::vector<std::uint8_t> wire = clean;
    wire[net::kHeaderBytes + at] ^= 0x10;
    std::mt19937 rng(static_cast<std::uint32_t>(at));
    for (const ReadBack& read :
         {through_frame_reader(wire, [&] { return 1 + rng() % 70000; }),
          through_read_frame_view(wire)}) {
      EXPECT_EQ(read.status.code(), StatusCode::kInvalidArgument) << read.status.to_string();
      EXPECT_NE(read.status.message().find(net::to_string(net::FrameError::kBadChecksum)),
                std::string::npos)
          << read.status.to_string();
    }
  }
}

TEST(WireZeroCopy, WriteFramePartsRoundTripsThroughReadFrame) {
  auto bound = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok()) << bound.status().to_string();
  net::TcpListener listener = std::move(bound).value();
  auto connecting = net::tcp_connect("127.0.0.1", listener.port(), 2'000ms);
  ASSERT_TRUE(connecting.ok());
  net::TcpStream sender = std::move(connecting).value();
  auto accepted = listener.accept(2'000ms);
  ASSERT_TRUE(accepted.ok());
  net::TcpStream receiver = std::move(accepted).value();

  // A payload scattered across three non-contiguous parts (one empty):
  // the receiver must see one contiguous checksum-valid frame.
  const std::vector<std::uint8_t> head = {0x01, 0x02, 0x03};
  const std::vector<std::uint32_t> elems = {0xdeadbeefu, 0x01020304u, 0x0badf00du};
  const net::ConstBuffer parts[] = {
      {head.data(), head.size()},
      {nullptr, 0},
      {elems.data(), elems.size() * sizeof(std::uint32_t)},
  };
  const Status sent = net::write_frame_parts(
      sender, static_cast<std::uint16_t>(net::MsgKind::kPing), 77, parts);
  ASSERT_TRUE(sent.is_ok()) << sent.to_string();

  auto got = test::recv_frame(receiver);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got.value().kind, static_cast<std::uint16_t>(net::MsgKind::kPing));
  EXPECT_EQ(got.value().request_id, 77u);
  ASSERT_EQ(got.value().payload.size(), head.size() + elems.size() * sizeof(std::uint32_t));
  EXPECT_EQ(0, std::memcmp(got.value().payload.data(), head.data(), head.size()));
  EXPECT_EQ(0, std::memcmp(got.value().payload.data() + head.size(), elems.data(),
                           elems.size() * sizeof(std::uint32_t)));
}

TEST(WireZeroCopy, ReadFrameViewReusesPooledStorageAcrossFrames) {
  auto bound = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok());
  net::TcpListener listener = std::move(bound).value();
  auto connecting = net::tcp_connect("127.0.0.1", listener.port(), 2'000ms);
  ASSERT_TRUE(connecting.ok());
  net::TcpStream sender = std::move(connecting).value();
  auto accepted = listener.accept(2'000ms);
  ASSERT_TRUE(accepted.ok());
  net::TcpStream receiver = std::move(accepted).value();

  util::BufferPool pool;
  util::PooledBuffer storage;
  net::Frame f = sample_frame();
  const std::uint8_t* storage_data = nullptr;
  for (int i = 0; i < 5; ++i) {
    f.request_id = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(test::send_frame(sender, f).is_ok());
    auto view = net::read_frame_view(receiver, pool, storage);
    ASSERT_TRUE(view.ok()) << view.status().to_string();
    EXPECT_EQ(view.value().request_id, static_cast<std::uint64_t>(i));
    ASSERT_EQ(view.value().payload.size(), f.payload.size());
    EXPECT_EQ(0, std::memcmp(view.value().payload.data(), f.payload.data(), f.payload.size()));
    if (i == 0) {
      storage_data = storage.data();
    } else {
      // Same-size frames: the storage block must be reused, not
      // reacquired (the steady-state zero-allocation property).
      EXPECT_EQ(storage.data(), storage_data);
    }
  }
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(WireZeroCopy, PermuteRequestViewBorrowsThePayload) {
  const net::PermuteHeader header{0x1122334455667788ull, 250};
  const std::vector<std::uint32_t> data = {5, 4, 3, 2, 1, 0, 9, 8};
  const std::vector<std::uint8_t> payload =
      test::payload_of(net::encode_permute(header, data.size()), data);

  auto view = net::PermuteRequestView::decode(payload, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().plan_id, header.plan_id);
  EXPECT_EQ(view.value().deadline_ms, header.deadline_ms);
  ASSERT_EQ(view.value().data.count, data.size());

  std::vector<std::uint32_t> copied(view.value().data.count);
  view.value().data.copy_to({copied.data(), copied.size()});
  EXPECT_EQ(copied, data);

  const std::span<const std::uint32_t> in_place = view.value().data.in_place();
  if (!in_place.empty()) {
    // Borrowed, not copied: the span must point into the payload bytes.
    EXPECT_EQ(static_cast<const void*>(in_place.data()),
              static_cast<const void*>(view.value().data.bytes.data()));
    EXPECT_TRUE(std::equal(in_place.begin(), in_place.end(), copied.begin()));
  }
}

TEST(WireZeroCopy, ViewDecodersRejectMalformedPayloads) {
  const std::vector<std::uint32_t> data = {1, 2, 3, 4};
  const std::vector<std::uint8_t> payload =
      test::payload_of(net::encode_permute({9, 0}, data.size()), data);

  // Truncated element region, truncated header, over-budget count.
  for (std::size_t cut : {payload.size() - 1, std::size_t{5}}) {
    const std::span<const std::uint8_t> bad(payload.data(), cut);
    EXPECT_FALSE(net::PermuteRequestView::decode(bad, 1 << 20).ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(net::PermuteRequestView::decode(payload, 2).ok());

  const std::vector<std::uint32_t> mapping = {1, 0, 3, 2};
  const std::vector<std::uint8_t> plan_payload =
      test::payload_of(net::encode_submit_plan(mapping.size()), mapping);
  EXPECT_TRUE(net::SubmitPlanRequestView::decode(plan_payload, 1 << 20).ok());
  EXPECT_FALSE(
      net::SubmitPlanRequestView::decode(
          std::span<const std::uint8_t>(plan_payload.data(), plan_payload.size() - 2), 1 << 20)
          .ok());
  EXPECT_FALSE(net::SubmitPlanRequestView::decode(plan_payload, 2).ok());
}

TEST(WireZeroCopy, MakeOkFrameMovesThePayload) {
  std::vector<std::uint8_t> payload(1024, 0xab);
  const std::uint8_t* bytes = payload.data();
  const net::Frame frame =
      net::make_ok_frame(7, net::MsgKind::kPermuteOk, std::move(payload));
  // Moved, not copied: the frame owns the very same allocation.
  EXPECT_EQ(frame.payload.data(), bytes);
  EXPECT_EQ(frame.request_id, 7u);
}

// ------------------------------------------------- hot-path loopback

TEST(NetLoopback, SteadyStatePermuteIsPoolMissFree) {
  // The wire-level zero-allocation acceptance check: after warmup, 100
  // PERMUTEs over one connection must never miss the buffer pool — the
  // request payload, response elements, and executor scratch all come
  // from warmed size classes.
  const std::uint64_t n = 1 << 13;
  Loopback loop;
  net::Client client(loop.client_config());
  const perm::Permutation p = perm::bit_reversal(n);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i ^ 0x55);
  for (int r = 0; r < 8; ++r) {  // warmup
    ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());
  }
  const std::uint64_t misses_before = loop.service.metrics().snapshot().pool_misses;
  for (int r = 0; r < 100; ++r) {
    ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());
  }
  EXPECT_EQ(loop.service.metrics().snapshot().pool_misses, misses_before);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);
}

TEST(NetLoopback, ConcurrentClientsMatchLocalApply) {
  // Four concurrent clients on one plan: every output must match the
  // local apply per client.
  const std::uint64_t n = 1 << 13;
  Loopback loop;
  const perm::Permutation p = perm::bit_reversal(n);

  std::uint64_t plan_id = 0;
  {
    net::Client setup(loop.client_config());
    auto plan = setup.submit_plan(p);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    plan_id = plan.value();
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<Status> outcomes(kClients, Status::ok());
  std::vector<std::vector<std::uint32_t>> inputs(kClients), outputs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    inputs[c].resize(n);
    outputs[c].resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      inputs[c][i] = static_cast<std::uint32_t>(i * (c + 1));
    }
    clients.emplace_back([&, c] {
      net::Client client(loop.client_config());
      for (int r = 0; r < kRounds; ++r) {
        const Status s = client.permute(plan_id, {inputs[c].data(), n}, {outputs[c].data(), n});
        if (!s.is_ok()) {
          outcomes[c] = s;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(outcomes[c].is_ok()) << "client " << c << ": " << outcomes[c].to_string();
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(outputs[c][p(i)], inputs[c][i]) << "client " << c << " diverged at " << i;
    }
  }
}

// --------------------------------------------- reactor connection scale

/// Raise the process fd soft limit so the high-connection tests can run
/// (each loopback connection costs two fds). Returns false when even the
/// hard limit cannot carry `want`.
bool raise_fd_limit(rlim_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur >= want) return true;
  if (lim.rlim_max != RLIM_INFINITY && lim.rlim_max < want) return false;
  lim.rlim_cur = want;
  return ::setrlimit(RLIMIT_NOFILE, &lim) == 0;
}

/// The two front-ends on the one reactor core: a server, or a router
/// over one backend server. The reactor tests run against both, with
/// the knobs they turn applied to the front-end under test.
enum class Frontend { kServer, kRouter };

struct FrontendLoop {
  struct Knobs {
    std::uint32_t max_connections = 256;
    std::chrono::milliseconds io_timeout{30'000};
    std::chrono::milliseconds poll_interval{50};
  };

  static net::Server::Config server_config(Frontend kind, const Knobs& knobs) {
    net::Server::Config config;
    if (kind == Frontend::kServer) {
      config.max_connections = knobs.max_connections;
      config.io_timeout = knobs.io_timeout;
      config.poll_interval = knobs.poll_interval;
    }
    return config;
  }

  FrontendLoop(Frontend kind, const Knobs& knobs) : backend({}, server_config(kind, knobs)) {
    if (kind != Frontend::kRouter) return;
    net::Router::Config config;
    config.backends.push_back(net::BackendAddress{"127.0.0.1", backend.server.port()});
    config.max_connections = knobs.max_connections;
    config.io_timeout = knobs.io_timeout;
    config.poll_interval = knobs.poll_interval;
    router = std::make_unique<net::Router>(std::move(config));
    const Status started = router->start();
    EXPECT_TRUE(started.is_ok()) << started.to_string();
  }

  [[nodiscard]] std::uint16_t port() const {
    return router ? router->port() : backend.server.port();
  }
  [[nodiscard]] std::uint64_t accepted() const {
    return router ? router->snapshot().connections_accepted
                  : backend.server.counters().connections_accepted;
  }
  [[nodiscard]] std::uint64_t rejected() const {
    return router ? router->snapshot().connections_rejected
                  : backend.server.counters().connections_rejected;
  }
  [[nodiscard]] net::Client::Config client_config() const {
    net::Client::Config c = backend.client_config();
    c.port = port();
    return c;
  }

  Loopback backend;
  std::unique_ptr<net::Router> router;  // declared last: stops first
};

class NetReactorFrontends : public ::testing::TestWithParam<Frontend> {};

/// The process's thread count, from /proc/self/status (0 if unreadable).
std::uint64_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoull(line.substr(8));
  }
  return 0;
}

// The tentpole acceptance check at test scale: a thousand idle
// connections cost the reactor a map entry each, not a thread each,
// and a request threaded past all of them is answered promptly.
TEST_P(NetReactorFrontends, ThousandIdleConnectionsAreCarriedAndServed) {
  constexpr std::size_t kIdle = 1000;
  if (!raise_fd_limit(4096)) GTEST_SKIP() << "fd hard limit too low for 1k connections";

  FrontendLoop loop(GetParam(), {.max_connections = kIdle + 64});
  const std::uint64_t threads_before = process_threads();

  std::vector<net::TcpStream> idle;
  idle.reserve(kIdle);
  for (std::size_t i = 0; i < kIdle; ++i) {
    auto conn = net::tcp_connect("127.0.0.1", loop.port(), 2'000ms);
    ASSERT_TRUE(conn.ok()) << "connection " << i << ": " << conn.status().to_string();
    idle.push_back(std::move(conn).value());
  }

  // With a thousand idle peers parked on the epoll set, a live client
  // still gets served, and quickly.
  const auto started = std::chrono::steady_clock::now();
  net::Client client(loop.client_config());
  const Status s = client.ping();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_LT(elapsed, 5s) << "ping stalled behind idle connections";
  EXPECT_LT(process_threads(), threads_before + 64) << "idle connections cost threads";

  // The idle connections are still live too: a late request on one of
  // them is served like any other.
  net::Frame ping;
  ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  ping.request_id = 42;
  ping.payload = {'u', 'p', '?'};
  for (std::size_t i : {std::size_t{0}, kIdle / 2, kIdle - 1}) {
    ASSERT_TRUE(idle[i].set_io_timeout(5'000ms, 5'000ms).is_ok());
    ASSERT_TRUE(test::send_frame(idle[i], ping).is_ok()) << "connection " << i;
    auto resp = test::recv_frame(idle[i], net::kDefaultMaxPayload);
    ASSERT_TRUE(resp.ok()) << "connection " << i << ": " << resp.status().to_string();
    EXPECT_EQ(resp.value().payload, ping.payload);
  }
  EXPECT_GE(loop.accepted(), kIdle + 1);
}

// Open/close storm: connections that vanish instantly, mid-header, or
// after a served request must all be reaped without wedging the
// reactor or leaking conn slots.
TEST(NetReactor, ConnectionChurnStormLeavesTheServerServing) {
  Loopback loop;
  constexpr int kStorm = 300;
  const std::uint8_t half_header[] = {'H', 'M', 'M', 'P', 0x01, 0x00};
  for (int i = 0; i < kStorm; ++i) {
    auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(conn.ok()) << "connection " << i << ": " << conn.status().to_string();
    net::TcpStream stream = std::move(conn).value();
    if (i % 3 == 1) {
      (void)stream.send_all(half_header, sizeof(half_header));  // torn header, then gone
    } else if (i % 3 == 2) {
      net::Frame ping;
      ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
      ping.request_id = static_cast<std::uint64_t>(i);
      ASSERT_TRUE(test::send_frame(stream, ping).is_ok());
      // Close without reading the response: the flush hits a dead peer.
    }
    stream.close();
  }

  // The server is still fully in business afterwards.
  net::Client client(loop.client_config());
  EXPECT_TRUE(client.ping().is_ok());
  EXPECT_GE(loop.server.counters().connections_accepted,
            static_cast<std::uint64_t>(kStorm));
}

// A slow-loris peer that trickles half a header and stalls is closed by
// the io_timeout stall scan — the resumable decoder holds the partial
// header, the reactor's clock bounds how long.
TEST_P(NetReactorFrontends, SlowLorisPartialHeaderIsClosedByIoTimeout) {
  FrontendLoop loop(GetParam(), {.io_timeout = 150ms, .poll_interval = 10ms});

  auto conn = net::tcp_connect("127.0.0.1", loop.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream loris = std::move(conn).value();
  ASSERT_TRUE(loris.set_io_timeout(5'000ms, 5'000ms).is_ok());
  const std::uint8_t torn[] = {'H', 'M', 'M', 'P', 0x01, 0x00, 0x01, 0x00, 0x07};
  ASSERT_TRUE(loris.send_all(torn, sizeof(torn)).is_ok());

  // Quiet close (EOF), not an ERROR frame, and well before the 5s
  // blocking-read budget: the stall scan fired.
  const auto started = std::chrono::steady_clock::now();
  auto got = test::recv_frame(loris, net::kDefaultMaxPayload);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << got.status().to_string();
  EXPECT_LT(elapsed, 3s) << "mid-frame stall outlived io_timeout";
}

// Graceful drain under concurrency: stop() lands while several requests
// are mid-execution; every one of them must still get its full
// response flushed before the reactors exit.
TEST(NetReactor, GracefulDrainFlushesAllInFlightResponses) {
  auto loop = std::make_unique<Loopback>();
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::by_name("bit-reversal", n, 1);
  std::uint64_t plan_id = 0;
  {
    net::Client setup(loop->client_config());
    auto plan = setup.submit_plan(p);
    ASSERT_TRUE(plan.ok());
    plan_id = plan.value();
  }

  runtime::FaultInjector::Config faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.rate = 1.0;
  faults.stall_ms = 200;
  faults.sites = std::string(runtime::fault_sites::kExecutorStall);
  runtime::ScopedFaultInjection chaos(faults);

  std::vector<std::uint32_t> expect(n);
  constexpr int kInFlight = 4;
  std::vector<std::vector<std::uint32_t>> inputs(kInFlight), outputs(kInFlight);
  std::vector<Status> outcomes(kInFlight, Status(StatusCode::kUnavailable, "not run"));
  std::vector<std::thread> requests;
  requests.reserve(kInFlight);
  for (int c = 0; c < kInFlight; ++c) {
    inputs[c].assign(n, 0);
    outputs[c].assign(n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      inputs[c][i] = static_cast<std::uint32_t>(i + static_cast<std::uint64_t>(c) * n);
    }
    requests.emplace_back([&, c] {
      net::Client client(loop->client_config());
      outcomes[c] =
          client.permute(plan_id, {inputs[c].data(), n}, {outputs[c].data(), n});
    });
  }
  std::this_thread::sleep_for(80ms);  // let the requests reach the executor
  loop->server.stop();                // must drain all four, not drop them
  for (std::thread& t : requests) t.join();

  for (int c = 0; c < kInFlight; ++c) {
    ASSERT_TRUE(outcomes[c].is_ok()) << "request " << c << ": " << outcomes[c].to_string();
    p.apply<std::uint32_t>({inputs[c].data(), n}, {expect.data(), n});
    EXPECT_EQ(outputs[c], expect) << "request " << c << " got a torn response";
  }
  EXPECT_FALSE(loop->server.running());
}

// Regression: the over-cap RETRY_LATER frame used to be written
// synchronously by the accept thread under the full io_timeout, so one
// hostile over-cap peer could freeze admission for everyone. The frame
// is now flushed by an io thread under Reactor::kRejectWriteBudget;
// the accept thread never writes.
TEST_P(NetReactorFrontends, CapRejectionIsFlushedOffTheAcceptPath) {
  // 30 s io_timeout: the old bug's worst-case stall, per peer.
  FrontendLoop loop(GetParam(), {.max_connections = 1, .io_timeout = 30'000ms});

  // Occupy the only slot and prove it serves.
  auto conn = net::tcp_connect("127.0.0.1", loop.port(), 2'000ms);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  net::TcpStream occupant = std::move(conn).value();
  ASSERT_TRUE(occupant.set_io_timeout(5'000ms, 5'000ms).is_ok());
  net::Frame ping;
  ping.kind = static_cast<std::uint16_t>(net::MsgKind::kPing);
  ping.request_id = 1;
  ASSERT_TRUE(test::send_frame(occupant, ping).is_ok());
  ASSERT_TRUE(test::recv_frame(occupant, net::kDefaultMaxPayload).ok());

  // Hostile over-cap peers: connect and never read a byte. Under the
  // old code each would have parked the accept thread in a blocking
  // write with the whole io_timeout as budget.
  std::vector<net::TcpStream> hostile;
  for (int i = 0; i < 3; ++i) {
    auto h = net::tcp_connect("127.0.0.1", loop.port(), 2'000ms);
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    hostile.push_back(std::move(h).value());
  }

  // A polite over-cap client right behind them must still get its typed
  // rejection promptly — the accept path cannot be head-of-line blocked.
  const auto started = std::chrono::steady_clock::now();
  net::Client::Config config = loop.client_config();
  config.max_retries = 0;
  net::Client late(config);
  const Status s = late.ping();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
      << "expected typed RETRY_LATER, got " << s.to_string();
  EXPECT_LT(elapsed, 2s) << "rejection was head-of-line blocked behind hostile peers";
  EXPECT_GE(loop.rejected(), 4u);

  // And the occupant, who owns the one real slot, is unaffected.
  ASSERT_TRUE(test::send_frame(occupant, ping).is_ok());
  EXPECT_TRUE(test::recv_frame(occupant, net::kDefaultMaxPayload).ok());
}

INSTANTIATE_TEST_SUITE_P(NetReactor, NetReactorFrontends,
                         ::testing::Values(Frontend::kServer, Frontend::kRouter),
                         [](const ::testing::TestParamInfo<Frontend>& tested) {
                           return tested.param == Frontend::kServer ? "server" : "router";
                         });

// Regression (PR 9): a peer spraying SHARD_XCHG blocks at sessions that
// never materialize used to pin each block's pooled payload for the
// full exchange timeout with no bound. The holds now run under
// max_shard_hold_bytes: excess blocks answer typed RETRY_LATER, and
// every pinned byte is released once the waits resolve.
TEST(NetReactor, EarlyArrivalShardHoldsAreBoundedAndReleased) {
  const std::uint64_t baseline = util::BufferPool::global().stats().outstanding_bytes;

  net::Server::Config server_config;
  server_config.shard_exchange_timeout = 300ms;
  server_config.poll_interval = 10ms;
  server_config.max_shard_hold_bytes = 4096;  // fits one 3KiB block, not two
  {
    Loopback loop({}, server_config);

    const std::vector<std::uint32_t> block(768, 7);  // 3072 payload bytes
    const auto xchg = [&block](std::uint64_t session_id) {
      return test::payload_of(net::encode_shard_xchg({session_id, 0}, block.size()), block);
    };

    // First orphan block: admitted under the hold budget, parks waiting
    // for a session that will never exist.
    auto first = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    net::TcpStream parked = std::move(first).value();
    ASSERT_TRUE(parked.set_io_timeout(5'000ms, 5'000ms).is_ok());
    net::Frame frame;
    frame.kind = static_cast<std::uint16_t>(net::MsgKind::kShardXchg);
    frame.request_id = 1;
    frame.payload = xchg(0xfeed0001);
    ASSERT_TRUE(test::send_frame(parked, frame).is_ok());
    std::this_thread::sleep_for(50ms);  // let it park

    // Second orphan block: over the hold budget -> immediate typed
    // RETRY_LATER, not a second pinned payload.
    auto second = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
    ASSERT_TRUE(second.ok()) << second.status().to_string();
    net::TcpStream rejected = std::move(second).value();
    ASSERT_TRUE(rejected.set_io_timeout(5'000ms, 5'000ms).is_ok());
    frame.request_id = 2;
    frame.payload = xchg(0xfeed0002);
    const auto started = std::chrono::steady_clock::now();
    ASSERT_TRUE(test::send_frame(rejected, frame).is_ok());
    auto bounced = test::recv_frame(rejected, net::kDefaultMaxPayload);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    ASSERT_TRUE(bounced.ok()) << bounced.status().to_string();
    ASSERT_EQ(static_cast<net::MsgKind>(bounced.value().kind), net::MsgKind::kError);
    auto err = net::ErrorResponse::decode(bounced.value().payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().to_status().code(), StatusCode::kResourceExhausted)
        << err.value().to_status().to_string();
    EXPECT_LT(elapsed, 2s) << "over-budget hold waited instead of bouncing";

    // The parked block resolves typed (no such session) once the
    // exchange timeout passes, releasing its hold.
    auto resolved = test::recv_frame(parked, net::kDefaultMaxPayload);
    ASSERT_TRUE(resolved.ok()) << resolved.status().to_string();
    ASSERT_EQ(static_cast<net::MsgKind>(resolved.value().kind), net::MsgKind::kError);
    auto parked_err = net::ErrorResponse::decode(resolved.value().payload);
    ASSERT_TRUE(parked_err.ok());
    EXPECT_EQ(parked_err.value().to_status().code(), StatusCode::kUnavailable);

    EXPECT_GE(loop.server.counters().shard_hold_rejections, 1u);
  }
  // Server gone: every pooled byte the hostile blocks pinned is back.
  EXPECT_EQ(util::BufferPool::global().stats().outstanding_bytes, baseline);
}

// The client's borrowed-storage contract: the request leaves from the
// caller's span and the response lands in grow-only pooled storage, so
// once warm a 1 MiB round trip takes nothing new from the pool and no
// payload-sized block from the heap, on either side of the socket.
TEST(Client, PermuteRoundTripReusesStorage) {
  const std::uint64_t n = 256 << 10;
  Loopback loop;
  net::Client client(loop.client_config());
  const perm::Permutation p = perm::by_name("random", n, 5);
  auto plan = client.submit_plan(p);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::uint32_t> a(n), b(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 7 + 1);
  for (int r = 0; r < 4; ++r) {  // warmup: plan compile, pool classes, client storage
    ASSERT_TRUE(client.permute(plan.value(), {a.data(), n}, {b.data(), n}).is_ok());
  }
  const std::uint64_t misses_before = util::BufferPool::global().stats().misses;
  const std::uint64_t allocs_before = g_large_allocs.load();
  g_large_alloc_threshold.store(n * sizeof(std::uint32_t) / 2);
  for (int r = 0; r < 100; ++r) {
    const Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n});
    if (!s.is_ok()) {
      g_large_alloc_threshold.store(~std::size_t{0});
      FAIL() << s.to_string();
    }
  }
  g_large_alloc_threshold.store(~std::size_t{0});
  EXPECT_EQ(util::BufferPool::global().stats().misses, misses_before);
  EXPECT_EQ(g_large_allocs.load(), allocs_before) << "payload-sized heap allocations";
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]) << i;
}

// Regression (PR 9): a server that dies (or hits its drain deadline)
// *inside* a response frame used to surface as a generic transport
// error, which the retry loop resent blindly — even though the request
// may have executed. It now surfaces as kCancelled and is never
// auto-retried.
TEST(NetClient, MidFrameCloseSurfacesCancelledAndIsNotRetried) {
  auto bound = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok()) << bound.status().to_string();
  net::TcpListener listener = std::move(bound).value();

  // A fake server that answers with a torn frame: a complete header
  // promising 8 payload bytes, 2 delivered, then EOF.
  std::thread fake([&listener] {
    auto accepted = listener.accept(5'000ms);
    if (!accepted.ok()) return;
    net::TcpStream conn = std::move(accepted).value();
    auto request = test::recv_frame(conn, net::kDefaultMaxPayload);
    if (!request.ok()) return;
    net::Frame response;
    response.kind = request.value().kind | 0x80u;
    response.request_id = request.value().request_id;
    response.payload = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<std::uint8_t> bytes = test::frame_bytes(response);
    (void)conn.send_all(bytes.data(), net::kHeaderBytes + 2);
    conn.close();
  });

  net::Client::Config config;
  config.host = "127.0.0.1";
  config.port = listener.port();
  config.connect_timeout = 2'000ms;
  config.io_timeout = 5'000ms;
  config.max_retries = 3;  // must NOT be spent on a torn response
  config.retry_backoff_base = 0ms;
  net::Client client(config);
  const Status s = client.ping();
  fake.join();

  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s.to_string();
  EXPECT_EQ(client.reconnects(), 0u) << "client retried a request with unknown outcome";
}

// -------------------------------------------- client answers, byte by byte

/// A one-connection server that answers the first request with the
/// bytes `answer` builds for it, then hangs up when `hang_up` is set,
/// else waits for the client to.
class FakeServer {
 public:
  using Answer = std::function<std::vector<std::uint8_t>(const net::Frame& request)>;

  FakeServer(Answer answer, bool hang_up) {
    auto bound = net::TcpListener::bind("127.0.0.1", 0);
    EXPECT_TRUE(bound.ok()) << bound.status().to_string();
    listener_ = std::move(bound).value();
    thread_ = std::thread([this, answer = std::move(answer), hang_up] {
      auto accepted = listener_.accept(5'000ms);
      if (!accepted.ok()) return;
      net::TcpStream conn = std::move(accepted).value();
      auto request = test::recv_frame(conn);
      if (!request.ok()) return;
      const std::vector<std::uint8_t> bytes = answer(request.value());
      if (!conn.send_all(bytes.data(), bytes.size()).is_ok() || hang_up) return;
      (void)conn.poll_readable(10'000ms);
    });
  }
  ~FakeServer() { thread_.join(); }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  /// A client that never retries, so each case sees one answer.
  [[nodiscard]] net::Client::Config client_config() const {
    net::Client::Config config;
    config.host = "127.0.0.1";
    config.port = listener_.port();
    config.io_timeout = 5'000ms;
    config.max_retries = 0;
    return config;
  }

 private:
  net::TcpListener listener_;
  std::thread thread_;
};

/// A "u64 count + words" payload.
std::vector<std::uint8_t> words_payload(std::uint64_t count,
                                        std::span<const std::uint32_t> words) {
  return test::payload_of(net::encode_words_ok(count), words);
}

/// A frame answering `request` with `kind` and `payload`.
std::vector<std::uint8_t> answer_bytes(const net::Frame& request, net::MsgKind kind,
                                       std::vector<std::uint8_t> payload) {
  return test::frame_bytes(net::Frame{.kind = static_cast<std::uint16_t>(kind),
                                      .request_id = request.request_id,
                                      .payload = std::move(payload)});
}

struct ClientCase {
  const char* name;
  FakeServer::Answer answer;
  bool hang_up;
  StatusCode code;
  const char* message;  ///< a substring of the status message
  bool stays_connected;
};

TEST(NetClient, PermuteAnswersKeepTheirStatusAndConnection) {
  constexpr std::uint64_t n = 1000;
  std::vector<std::uint32_t> words(n);
  for (std::uint64_t i = 0; i < n; ++i) words[i] = static_cast<std::uint32_t>(i * 2654435761u);
  const auto ok = [&](std::uint64_t count, std::size_t elems) {
    return [&, count, elems](const net::Frame& request) {
      return answer_bytes(request, net::MsgKind::kPermuteOk,
                          words_payload(count, std::span(words).first(elems)));
    };
  };
  const std::vector<ClientCase> cases = {
      {"the answer", ok(n, n), false, StatusCode::kOk, "", true},
      {"an ERROR", [](const net::Frame& request) {
         return test::frame_bytes(net::make_error_frame(
             request.request_id, Status(StatusCode::kInvalidArgument, "no such plan")));
       }, false, StatusCode::kInvalidArgument, "no such plan", true},
      // The count check that decode_into made: a count off by one, at
      // the expected length and at the count's own length.
      {"a wrong count", ok(n + 1, n), false, StatusCode::kUnavailable,
       "malformed PERMUTE_OK payload: PERMUTE_OK: element count does not match", true},
      {"a short answer", ok(n - 1, n - 1), false, StatusCode::kUnavailable,
       "malformed PERMUTE_OK payload: PERMUTE_OK: element count does not match", true},
      {"a torn payload", [&](const net::Frame& request) {
         std::vector<std::uint8_t> bytes = ok(n, n)(request);
         bytes.resize(net::kHeaderBytes + 8 + 2 * n);
         return bytes;
       }, true, StatusCode::kCancelled, "mid-response", false},
      {"a header alone", [&](const net::Frame& request) {
         std::vector<std::uint8_t> bytes = ok(n, n)(request);
         bytes.resize(net::kHeaderBytes);
         return bytes;
       }, true, StatusCode::kUnavailable, "connection closed", false},
      {"a bad checksum", [&](const net::Frame& request) {
         std::vector<std::uint8_t> bytes = ok(n, n)(request);
         bytes[net::kHeaderBytes + 8 + 4 * (n / 2)] ^= 0x01;
         return bytes;
       }, false, StatusCode::kInvalidArgument, "payload checksum mismatch", false},
      {"a PROGRAM_OK", [&](const net::Frame& request) {
         return answer_bytes(request, net::MsgKind::kProgramOk, words_payload(n, words));
       }, false, StatusCode::kUnavailable, "response kind does not answer", false},
  };
  for (const ClientCase& c : cases) {
    SCOPED_TRACE(c.name);
    FakeServer server(c.answer, c.hang_up);
    net::Client client(server.client_config());
    std::vector<std::uint32_t> in(n, 1), out(n, 0);
    const Status s = client.permute(7, in, out);
    EXPECT_EQ(s.code(), c.code) << s.to_string();
    EXPECT_NE(s.message().find(c.message), std::string::npos) << s.to_string();
    EXPECT_EQ(client.connected(), c.stays_connected);
    EXPECT_EQ(client.reconnects(), 0u);
    if (c.code == StatusCode::kOk) {
      EXPECT_EQ(out, words);
    }
  }
}

TEST(NetClient, ProgramAnswersLandInTheCallersSpan) {
  constexpr std::uint64_t n = 4096;
  std::vector<std::uint32_t> words(n);
  for (std::uint64_t i = 0; i < n; ++i) words[i] = static_cast<std::uint32_t>(~i * 40503u);
  const runtime::ProgramOp ops[] = {{runtime::ProgramOpCode::kReverse, 0}};
  for (const std::uint64_t count : {n, n + 1}) {
    FakeServer server(
        [&](const net::Frame& request) {
          return answer_bytes(request, net::MsgKind::kProgramOk, words_payload(count, words));
        },
        false);
    net::Client client(server.client_config());
    std::vector<std::uint32_t> in(n, 3), out(n, 0);
    const Status s = client.execute_program(ops, in, out);
    EXPECT_TRUE(client.connected());
    if (count == n) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      EXPECT_EQ(out, words);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable);
      EXPECT_NE(s.message().find(
                    "malformed PROGRAM_OK payload: PROGRAM_OK: element count does not match"),
                std::string::npos)
          << s.to_string();
    }
  }
}

}  // namespace
}  // namespace hmm
