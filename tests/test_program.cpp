/// Tests for the PROGRAM subsystem: the op-chain IR and its validating
/// resolver (every hostile shape is a typed rejection, never an abort),
/// the fusion compiler's algebra (fused == sequential, inverse chains
/// fold to the identity, composition associates), the service-level
/// paths (identity fast-path, composite-cache repeats, single-flight
/// first submissions), and the EXECUTE_PROGRAM loopback surface —
/// including a hostile-frame battery proving a malformed program can
/// never take the server down.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "net_payload.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/program.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using runtime::Fingerprint;
using runtime::Program;
using runtime::ProgramOp;
using runtime::ProgramOpCode;
using runtime::Status;
using runtime::StatusCode;

/// Resolver over an in-test registry, the same shape the server binds.
class Registry {
 public:
  std::uint64_t add(perm::Permutation p) {
    auto plan = std::make_shared<const perm::Permutation>(std::move(p));
    const std::uint64_t id = runtime::fingerprint_permutation(*plan).value;
    plans_[id] = std::move(plan);
    return id;
  }

  [[nodiscard]] runtime::PlanResolver resolver() const {
    return [this](std::uint64_t fp) -> std::shared_ptr<const perm::Permutation> {
      const auto it = plans_.find(fp);
      return it == plans_.end() ? nullptr : it->second;
    };
  }

 private:
  std::map<std::uint64_t, std::shared_ptr<const perm::Permutation>> plans_;
};

perm::Permutation random_perm(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return perm::random(n, rng);
}

/// Apply the chain stage by stage — the semantic ground truth the
/// fused path must reproduce bit for bit.
template <class T>
std::vector<T> apply_chain(const std::vector<perm::Permutation>& chain,
                           const std::vector<T>& input) {
  std::vector<T> cur = input;
  std::vector<T> next(input.size());
  for (const perm::Permutation& p : chain) {
    p.apply<T>({cur.data(), cur.size()}, {next.data(), next.size()});
    cur.swap(next);
  }
  return cur;
}

template <class T>
std::vector<T> make_input(std::uint64_t n) {
  std::vector<T> a(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    a[i] = static_cast<T>(static_cast<std::uint32_t>(i * 2654435761u) % 100003u);
  }
  return a;
}

// ------------------------------------------------------- fingerprints

TEST(ProgramFingerprint, OrderAndSizeSensitive) {
  const std::vector<ProgramOp> ab = {{ProgramOpCode::kShuffle, 0},
                                     {ProgramOpCode::kRotate, 3}};
  const std::vector<ProgramOp> ba = {{ProgramOpCode::kRotate, 3},
                                     {ProgramOpCode::kShuffle, 0}};
  const Fingerprint f_ab = runtime::program_fingerprint({ab.data(), ab.size()}, 256);
  const Fingerprint f_ba = runtime::program_fingerprint({ba.data(), ba.size()}, 256);
  const Fingerprint f_ab2 = runtime::program_fingerprint({ab.data(), ab.size()}, 256);
  const Fingerprint f_ab_512 = runtime::program_fingerprint({ab.data(), ab.size()}, 512);
  EXPECT_EQ(f_ab.value, f_ab2.value);       // deterministic
  EXPECT_NE(f_ab.value, f_ba.value);        // composition does not commute
  EXPECT_NE(f_ab.value, f_ab_512.value);    // n is part of the identity
}

TEST(ProgramFingerprint, ArgIsPartOfTheIdentity) {
  const std::vector<ProgramOp> r3 = {{ProgramOpCode::kRotate, 3}};
  const std::vector<ProgramOp> r4 = {{ProgramOpCode::kRotate, 4}};
  EXPECT_NE(runtime::program_fingerprint({r3.data(), 1}, 64).value,
            runtime::program_fingerprint({r4.data(), 1}, 64).value);
}

// --------------------------------------------------------- resolution

TEST(ProgramResolve, RejectsStructurallyInvalidChainsTyped) {
  Registry reg;
  const runtime::PlanResolver resolver = reg.resolver();

  const auto reject = [&](Program program, std::uint64_t n) {
    const auto r = runtime::resolve_program(program, n, resolver);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status().to_string();
  };

  reject(Program{}, 64);                                          // empty chain
  reject(Program{{{ProgramOpCode::kShuffle, 0}}}, 0);             // n == 0
  Program too_deep;
  too_deep.ops.assign(runtime::kMaxProgramOps + 1, {ProgramOpCode::kRotate, 1});
  reject(too_deep, 64);                                           // over the op cap
  reject(Program{{{static_cast<ProgramOpCode>(99), 0}}}, 64);     // unknown opcode
  reject(Program{{{ProgramOpCode::kShuffle, 7}}}, 64);            // nonzero generator arg
  reject(Program{{{ProgramOpCode::kShuffle, 0}}}, 100);           // non-pow2 shuffle
  reject(Program{{{ProgramOpCode::kReverse, 0}}}, 100);           // non-pow2 reverse
  reject(Program{{{ProgramOpCode::kBitReversal, 0}}}, 96);        // non-pow2 bit-reversal
  reject(Program{{{ProgramOpCode::kTranspose, 0}}}, 128);         // non-square transpose
  reject(Program{{{ProgramOpCode::kPermute, 0xdeadbeefull}}}, 64);  // unregistered plan
}

TEST(ProgramResolve, MismatchedSizePlanRejectedBeforeCompose) {
  // The critical gate: a registered 64-element plan referenced by a
  // 128-element program must be a typed rejection — compose()'s own
  // size check is a process abort, and hostile input must never reach
  // it. Chain it *after* a valid op so the failure happens mid-chain.
  Registry reg;
  const std::uint64_t small_id = reg.add(random_perm(64, 7));
  Program program;
  program.ops = {{ProgramOpCode::kShuffle, 0}, {ProgramOpCode::kPermute, small_id}};
  const auto r = runtime::resolve_program(program, 128, reg.resolver());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("does not match"), std::string::npos)
      << r.status().message();
}

TEST(ProgramResolve, ResolvesPlansInversesAndGenerators) {
  Registry reg;
  const std::uint64_t n = 256;
  const perm::Permutation p = random_perm(n, 11);
  const std::uint64_t id = reg.add(p);

  Program program;
  program.ops = {{ProgramOpCode::kPermute, id},
                 {ProgramOpCode::kInverse, id},
                 {ProgramOpCode::kShuffle, 0},
                 {ProgramOpCode::kRotate, 1000}};  // shift taken mod n
  const auto r = runtime::resolve_program(program, n, reg.resolver());
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_EQ(r.value().stages.size(), 4u);
  EXPECT_EQ(*r.value().stages[0], p);
  EXPECT_EQ(*r.value().stages[1], p.inverse());
  EXPECT_EQ(*r.value().stages[2], perm::shuffle(n));
  EXPECT_EQ(*r.value().stages[3], perm::rotation(n, 1000 % n));
}

// -------------------------------------------------------------- fusion

TEST(ProgramFuse, FusedMatchesSequentialApplication) {
  const std::uint64_t n = 512;
  Registry reg;
  util::Xoshiro256 rng(99);
  for (std::uint64_t depth = 2; depth <= 6; ++depth) {
    Program program;
    std::vector<perm::Permutation> chain;
    for (std::uint64_t d = 0; d < depth; ++d) {
      perm::Permutation p = perm::random(n, rng);
      program.ops.push_back({ProgramOpCode::kPermute, reg.add(p)});
      chain.push_back(std::move(p));
    }
    const auto resolved = runtime::resolve_program(program, n, reg.resolver());
    ASSERT_TRUE(resolved.ok());
    const auto fused = runtime::fuse_program(resolved.value());
    ASSERT_TRUE(fused.ok()) << fused.status().to_string();

    const std::vector<std::uint32_t> input = make_input<std::uint32_t>(n);
    const std::vector<std::uint32_t> expect = apply_chain(chain, input);
    std::vector<std::uint32_t> got(n);
    fused.value().apply<std::uint32_t>({input.data(), n}, {got.data(), n});
    EXPECT_EQ(got, expect) << "depth " << depth;
  }
}

TEST(ProgramFuse, InverseChainFoldsToIdentity) {
  const std::uint64_t n = 256;
  Registry reg;
  const std::uint64_t id = reg.add(random_perm(n, 5));
  Program program;
  program.ops = {{ProgramOpCode::kPermute, id}, {ProgramOpCode::kInverse, id}};
  const auto resolved = runtime::resolve_program(program, n, reg.resolver());
  ASSERT_TRUE(resolved.ok());
  const auto fused = runtime::fuse_program(resolved.value());
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(fused.value().is_identity());
}

TEST(ProgramFuse, CompositionAssociates) {
  // fuse(P1,P2,P3) must equal fuse(fuse(P1,P2), P3): the program
  // algebra inherits associativity from permutation composition, so
  // splitting a chain at any point yields the same composite.
  const std::uint64_t n = 128;
  Registry reg;
  std::vector<std::uint64_t> ids;
  std::vector<perm::Permutation> chain;
  for (int i = 0; i < 3; ++i) {
    perm::Permutation p = random_perm(n, 100 + static_cast<std::uint64_t>(i));
    ids.push_back(reg.add(p));
    chain.push_back(std::move(p));
  }
  const auto fuse_ids = [&](const std::vector<std::uint64_t>& which) {
    Program program;
    for (std::uint64_t id : which) program.ops.push_back({ProgramOpCode::kPermute, id});
    const auto resolved = runtime::resolve_program(program, n, reg.resolver());
    EXPECT_TRUE(resolved.ok());
    auto fused = runtime::fuse_program(resolved.value());
    EXPECT_TRUE(fused.ok());
    return std::move(fused).value();
  };

  const perm::Permutation whole = fuse_ids({ids[0], ids[1], ids[2]});
  const std::uint64_t prefix_id = reg.add(fuse_ids({ids[0], ids[1]}));
  const perm::Permutation split = fuse_ids({prefix_id, ids[2]});
  EXPECT_EQ(whole, split);
}

// ------------------------------------------------------ service paths

runtime::RobustPermuteService::Config quiet_config() {
  runtime::RobustPermuteService::Config config;
  config.max_build_retries = 0;
  return config;
}

template <class T>
void expect_fused_sequential_identical(std::uint64_t n, std::uint64_t depth,
                                       std::uint64_t seed) {
  runtime::RobustPermuteService service(util::ThreadPool::global(), quiet_config());
  Registry reg;
  Program program;
  std::vector<perm::Permutation> chain;
  util::Xoshiro256 rng(seed);
  for (std::uint64_t d = 0; d < depth; ++d) {
    perm::Permutation p = perm::random(n, rng);
    program.ops.push_back({ProgramOpCode::kPermute, reg.add(p)});
    chain.push_back(std::move(p));
  }
  const std::vector<T> input = make_input<T>(n);
  const std::vector<T> expect = apply_chain(chain, input);

  std::vector<T> fused_out(n);
  auto fused = service.submit_program<T>(program, reg.resolver(), {input.data(), n},
                                         {fused_out.data(), n});
  ASSERT_TRUE(fused.ok()) << fused.status().to_string();
  ASSERT_TRUE(fused.value().get().is_ok());

  // Bit-identical to the sequential ground truth.
  EXPECT_EQ(fused_out, expect);

  const runtime::MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.programs_executed, 1u);
  EXPECT_EQ(snap.programs_fused, 1u);
  EXPECT_EQ(snap.program_stages_max, depth);
}

TEST(ServiceProgram, FusedSequentialIdenticalU32) {
  for (std::uint64_t depth = 2; depth <= 6; ++depth) {
    expect_fused_sequential_identical<std::uint32_t>(1 << 10, depth, 40 + depth);
  }
}

TEST(ServiceProgram, FusedSequentialIdenticalFloat) {
  expect_fused_sequential_identical<float>(1 << 10, 3, 77);
}

TEST(ServiceProgram, FusedSequentialIdenticalDouble) {
  expect_fused_sequential_identical<double>(1 << 10, 4, 78);
}

TEST(ServiceProgram, IdentityFastPathSkipsThePlanTier) {
  const std::uint64_t n = 1 << 12;
  runtime::RobustPermuteService service(util::ThreadPool::global(), quiet_config());
  Registry reg;
  const std::uint64_t id = reg.add(random_perm(n, 3));
  Program program;
  program.ops = {{ProgramOpCode::kPermute, id}, {ProgramOpCode::kInverse, id}};

  const std::vector<std::uint32_t> input = make_input<std::uint32_t>(n);
  std::vector<std::uint32_t> out(n, 0);
  auto submitted = service.submit_program<std::uint32_t>(program, reg.resolver(),
                                                         {input.data(), n}, {out.data(), n});
  ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
  ASSERT_TRUE(submitted.value().get().is_ok());
  EXPECT_EQ(out, input);  // P then P^-1 echoes the input bit for bit

  const runtime::MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.programs_identity, 1u);
  EXPECT_EQ(snap.programs_executed, 1u);
  EXPECT_EQ(snap.plan_builds, 0u);   // no composite plan was ever compiled
  EXPECT_EQ(snap.lookups, 0u);       // the plan cache was never consulted
}

TEST(ServiceProgram, RepeatedProgramHitsTheCompositeCache) {
  const std::uint64_t n = 1 << 10;
  runtime::RobustPermuteService service(util::ThreadPool::global(), quiet_config());
  Registry reg;
  Program program;
  std::vector<perm::Permutation> chain;
  util::Xoshiro256 rng(123);
  for (int d = 0; d < 3; ++d) {
    perm::Permutation p = perm::random(n, rng);
    program.ops.push_back({ProgramOpCode::kPermute, reg.add(p)});
    chain.push_back(std::move(p));
  }
  const std::vector<std::uint32_t> input = make_input<std::uint32_t>(n);
  const std::vector<std::uint32_t> expect = apply_chain(chain, input);

  std::vector<std::uint32_t> out(n);
  for (int round = 0; round < 2; ++round) {
    auto submitted = service.submit_program<std::uint32_t>(program, reg.resolver(),
                                                           {input.data(), n}, {out.data(), n});
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted.value().get().is_ok());
    EXPECT_EQ(out, expect);
  }

  const runtime::MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.programs_fused, 2u);
  // One composite, compiled once: the second run was a pure cache hit
  // (the composite memo skips re-resolution, the plan cache skips the
  // rebuild).
  EXPECT_EQ(snap.plan_builds, 1u);
  EXPECT_GE(snap.hits, 1u);
}

TEST(ServiceProgram, ConcurrentFirstSubmissionsSingleFlight) {
  const std::uint64_t n = 1 << 10;
  runtime::RobustPermuteService service(util::ThreadPool::global(), quiet_config());
  Registry reg;
  Program program;
  std::vector<perm::Permutation> chain;
  util::Xoshiro256 rng(321);
  for (int d = 0; d < 3; ++d) {
    perm::Permutation p = perm::random(n, rng);
    program.ops.push_back({ProgramOpCode::kPermute, reg.add(p)});
    chain.push_back(std::move(p));
  }
  const std::vector<std::uint32_t> input = make_input<std::uint32_t>(n);
  const std::vector<std::uint32_t> expect = apply_chain(chain, input);

  constexpr int kThreads = 8;
  std::vector<std::vector<std::uint32_t>> outs(kThreads, std::vector<std::uint32_t>(n));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto submitted = service.submit_program<std::uint32_t>(
          program, reg.resolver(), {input.data(), n}, {outs[t].data(), n});
      if (!submitted.ok() || !submitted.value().get().is_ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(outs[t], expect);

  // The plan cache single-flights the composite build: one compile no
  // matter how many first submissions raced.
  const runtime::MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.plan_builds, 1u);
  EXPECT_EQ(snap.programs_fused, static_cast<std::uint64_t>(kThreads));
}

TEST(ServiceProgram, MismatchedChainRejectedSynchronouslyTyped) {
  const std::uint64_t n = 256;
  runtime::RobustPermuteService service(util::ThreadPool::global(), quiet_config());
  Registry reg;
  const std::uint64_t small_id = reg.add(random_perm(64, 9));
  Program program;
  program.ops = {{ProgramOpCode::kRotate, 1}, {ProgramOpCode::kPermute, small_id}};

  const std::vector<std::uint32_t> input = make_input<std::uint32_t>(n);
  std::vector<std::uint32_t> out(n);
  auto submitted = service.submit_program<std::uint32_t>(program, reg.resolver(),
                                                         {input.data(), n}, {out.data(), n});
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.metrics().snapshot().programs_executed, 0u);
}

// ---------------------------------------------------------- loopback

struct Loopback {
  runtime::RobustPermuteService service;
  net::Server server;

  Loopback()
      : service(util::ThreadPool::global(), quiet_config()), server(service) {
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

TEST(NetProgram, ExecuteProgramEndToEnd) {
  const std::uint64_t n = 1 << 10;
  Loopback loop;
  net::Client client(loop.client_config());

  const perm::Permutation p = random_perm(n, 17);
  const auto plan_id = client.submit_plan(p);
  ASSERT_TRUE(plan_id.ok()) << plan_id.status().to_string();

  const std::vector<ProgramOp> ops = {{ProgramOpCode::kPermute, plan_id.value()},
                                      {ProgramOpCode::kShuffle, 0},
                                      {ProgramOpCode::kRotate, 5}};
  const std::vector<perm::Permutation> chain = {p, perm::shuffle(n), perm::rotation(n, 5)};
  const std::vector<std::uint32_t> input = make_input<std::uint32_t>(n);
  const std::vector<std::uint32_t> expect = apply_chain(chain, input);

  std::vector<std::uint32_t> fused_out(n);
  const Status s = client.execute_program({ops.data(), ops.size()}, {input.data(), n},
                                          {fused_out.data(), n});
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(fused_out, expect);

  const runtime::MetricsSnapshot snap = loop.service.metrics().snapshot();
  EXPECT_EQ(snap.programs_fused, 1u);
  EXPECT_GT(snap.phase(runtime::Phase::kProgramCompile).count, 0u);
}

TEST(NetProgram, ProgramEqualsKSeparatePermutes) {
  // The tentpole claim at the wire level: one EXECUTE_PROGRAM round
  // trip produces exactly what k sequential PERMUTE round trips (each
  // feeding the next) produce.
  const std::uint64_t n = 1 << 10;
  Loopback loop;
  net::Client client(loop.client_config());

  std::vector<std::uint64_t> ids;
  std::vector<ProgramOp> ops;
  util::Xoshiro256 rng(31);
  for (int d = 0; d < 4; ++d) {
    const auto id = client.submit_plan(perm::random(n, rng));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
    ops.push_back({ProgramOpCode::kPermute, id.value()});
  }

  const std::vector<std::uint32_t> input = make_input<std::uint32_t>(n);
  std::vector<std::uint32_t> program_out(n);
  ASSERT_TRUE(client.execute_program({ops.data(), ops.size()}, {input.data(), n},
                                     {program_out.data(), n})
                  .is_ok());

  std::vector<std::uint32_t> cur = input, next(n);
  for (std::uint64_t id : ids) {
    ASSERT_TRUE(client.permute(id, {cur.data(), n}, {next.data(), n}).is_ok());
    cur.swap(next);
  }
  EXPECT_EQ(program_out, cur);
}

/// Send one raw EXECUTE_PROGRAM payload and expect a typed ERROR
/// response carrying INVALID_ARGUMENT.
void expect_program_rejected(net::TcpStream& stream, std::vector<std::uint8_t> payload,
                             const char* what) {
  static std::uint64_t next_id = 7000;
  net::Frame request;
  request.kind = static_cast<std::uint16_t>(net::MsgKind::kExecuteProgram);
  request.request_id = next_id++;
  request.payload = std::move(payload);
  ASSERT_TRUE(net::write_frame(stream, request).is_ok()) << what;
  auto response = net::read_frame(stream, net::kDefaultMaxPayload);
  ASSERT_TRUE(response.ok()) << what;
  ASSERT_EQ(static_cast<net::MsgKind>(response.value().kind), net::MsgKind::kError) << what;
  auto err = net::ErrorResponse::decode(response.value().payload);
  ASSERT_TRUE(err.ok()) << what;
  EXPECT_EQ(err.value().to_status().code(), StatusCode::kInvalidArgument) << what;
}

TEST(NetProgram, HostileProgramsRejectedTypedAndServerSurvives) {
  const std::uint64_t n = 256;
  Loopback loop;
  net::Client client(loop.client_config());
  const auto small_id = client.submit_plan(random_perm(64, 1));  // 64 != n: mismatched chain
  ASSERT_TRUE(small_id.ok());

  auto conn = net::tcp_connect("127.0.0.1", loop.server.port(), 2'000ms);
  ASSERT_TRUE(conn.ok());
  net::TcpStream stream = std::move(conn).value();
  ASSERT_TRUE(stream.set_io_timeout(5'000ms, 5'000ms).is_ok());

  const std::vector<std::uint32_t> data = make_input<std::uint32_t>(n);
  // Field by field (docs/PROTOCOL.md §3.5): the encoder refuses the op
  // counts and flags some of these cases need.
  const auto encode_words = [](std::uint32_t flags, const std::vector<ProgramOp>& ops,
                               std::span<const std::uint32_t> words) {
    net::ByteWriter w;
    w.put_u32(0);  // deadline_ms
    w.put_u32(4);  // elem_bytes
    w.put_u32(flags);
    w.put_u32(static_cast<std::uint32_t>(ops.size()));
    for (const ProgramOp& op : ops) {
      w.put_u32(static_cast<std::uint32_t>(op.op));
      w.put_u32(0);  // reserved
      w.put_u64(op.arg);
    }
    w.put_u64(words.size());
    w.put_u32_span(words);
    return w.take();
  };
  const auto encode = [&](std::uint32_t flags, const std::vector<ProgramOp>& ops) {
    return encode_words(flags, ops, data);
  };

  expect_program_rejected(stream, encode(0, {}), "zero ops");
  expect_program_rejected(
      stream,
      encode(0, std::vector<ProgramOp>(runtime::kMaxProgramOps + 1,
                                       {ProgramOpCode::kRotate, 1})),
      "op count over the cap");
  expect_program_rejected(stream,
                          encode(0, {{static_cast<ProgramOpCode>(0xabu), 0}}),
                          "unknown opcode");
  expect_program_rejected(stream, encode(0x2, {{ProgramOpCode::kRotate, 1}}),
                          "unknown flag bits");
  expect_program_rejected(stream, encode(0x1, {{ProgramOpCode::kRotate, 1}}),
                          "reserved flag bit 0");
  expect_program_rejected(stream, encode(0, {{ProgramOpCode::kShuffle, 5}}),
                          "nonzero generator arg");
  expect_program_rejected(stream,
                          encode(0, {{ProgramOpCode::kPermute, 0x1234ull}}),
                          "unregistered fingerprint");
  expect_program_rejected(stream,
                          encode(0, {{ProgramOpCode::kPermute, small_id.value()}}),
                          "mismatched plan size");
  {
    // Generator precondition at the wire level: shuffle over a 100-
    // element (non-power-of-two) payload.
    const std::vector<std::uint32_t> hundred(100, 7u);
    expect_program_rejected(stream, encode_words(0, {{ProgramOpCode::kShuffle, 0}}, hundred),
                            "non-pow2 shuffle");
  }

  // Hand-rolled malformations the typed encoder cannot produce.
  {
    net::ByteWriter w;  // wrong element width
    w.put_u32(0);
    w.put_u32(8);
    w.put_u32(0);
    w.put_u32(1);
    w.put_u32(static_cast<std::uint32_t>(ProgramOpCode::kRotate));
    w.put_u32(0);
    w.put_u64(1);
    w.put_u64(4);
    w.put_u32_span(std::vector<std::uint32_t>{1, 2, 3, 4});
    expect_program_rejected(stream, w.take(), "elem_bytes != 4");
  }
  {
    net::ByteWriter w;  // nonzero reserved op field
    w.put_u32(0);
    w.put_u32(4);
    w.put_u32(0);
    w.put_u32(1);
    w.put_u32(static_cast<std::uint32_t>(ProgramOpCode::kRotate));
    w.put_u32(0xffffffffu);
    w.put_u64(1);
    w.put_u64(4);
    w.put_u32_span(std::vector<std::uint32_t>{1, 2, 3, 4});
    expect_program_rejected(stream, w.take(), "reserved op field nonzero");
  }
  {
    net::ByteWriter w;  // count disagrees with the payload length
    w.put_u32(0);
    w.put_u32(4);
    w.put_u32(0);
    w.put_u32(1);
    w.put_u32(static_cast<std::uint32_t>(ProgramOpCode::kRotate));
    w.put_u32(0);
    w.put_u64(1);
    w.put_u64(100);  // claims 100 elements...
    w.put_u32_span(std::vector<std::uint32_t>{1, 2, 3, 4});  // ...carries 4
    expect_program_rejected(stream, w.take(), "count/payload mismatch");
  }
  {
    net::ByteWriter w;  // truncated op list
    w.put_u32(0);
    w.put_u32(4);
    w.put_u32(0);
    w.put_u32(3);  // claims 3 ops, carries half of one
    w.put_u32(static_cast<std::uint32_t>(ProgramOpCode::kRotate));
    expect_program_rejected(stream, w.take(), "truncated op list");
  }

  // The server survived the whole battery: same connection still
  // serves, fresh connections still serve, and a valid program works.
  net::Client after(loop.client_config());
  EXPECT_TRUE(after.ping().is_ok());
  const auto good_id = after.submit_plan(random_perm(n, 2));
  ASSERT_TRUE(good_id.ok());
  const std::vector<ProgramOp> good = {{ProgramOpCode::kPermute, good_id.value()}};
  std::vector<std::uint32_t> out(n);
  EXPECT_TRUE(
      after.execute_program({good.data(), 1}, {data.data(), n}, {out.data(), n}).is_ok());
  EXPECT_EQ(loop.server.counters().protocol_errors, 0u);  // rejected, not garbled
}

TEST(NetProgram, WireCodecRoundTrip) {
  const std::vector<ProgramOp> ops = {{ProgramOpCode::kPermute, 0xfeedfacecafeull},
                                      {ProgramOpCode::kInverse, 0x1ull},
                                      {ProgramOpCode::kRotate, 42}};
  const std::vector<std::uint32_t> data = {10, 20, 30, 40, 50};
  auto prefix = net::encode_execute_program(1234, ops, data.size());
  ASSERT_TRUE(prefix.ok()) << prefix.status().to_string();
  const std::vector<std::uint8_t> bytes = test::payload_of(prefix.value(), data);

  // Layout check: the data offset must keep elements 4-byte aligned.
  EXPECT_EQ(bytes.size(), 24 + 16 * ops.size() + data.size() * 4);
  EXPECT_EQ((24 + 16 * ops.size()) % 8, 0u);

  const auto view = net::ExecuteProgramRequestView::decode(bytes, 1 << 20);
  ASSERT_TRUE(view.ok()) << view.status().to_string();
  EXPECT_EQ(view.value().deadline_ms, 1234u);
  EXPECT_EQ(view.value().ops, ops);
  EXPECT_EQ(view.value().data.count, data.size());
  EXPECT_EQ(test::words_of(view.value().data), data);
}

}  // namespace
}  // namespace hmm
