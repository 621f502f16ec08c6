/// \file permd_client.cpp
/// \brief Command-line HMMP client: probe a permd_serve instance, pull
///        its stats, or run a verified permute round-trip.
///
/// Commands (first positional argument):
///   ping      liveness probe (echo round-trip)
///   stats     print the server's ServiceMetrics snapshot JSON; against
///             a permd_router the fleet snapshot is rendered as a
///             per-backend table (state, breaker, forwards, failovers)
///             instead — `--json true` forces the raw JSON either way
///   phases    fetch the same snapshot and render the per-phase
///             latency breakdown as a table
///   permute   register a named permutation family, send `--count`
///             permute requests, and verify every response locally
///             against perm::Permutation::apply (the same ground truth
///             the test suite uses)
///   program   run an op *chain* in one EXECUTE_PROGRAM round trip and
///             verify the response against applying each op locally in
///             order. `--ops` is a comma-separated chain; tokens:
///               plan:<family>     SUBMIT_PLAN the family, then PERMUTE it
///               inverse:<family>  SUBMIT_PLAN the family, then INVERSE it
///               transpose | reverse | shuffle | unshuffle | bit-reversal
///               rotate:<shift>
///             `--staged true` forces the server's staged path (results
///             must be bit-identical to fused).
///   dpermute  distributed permute smoke against a permd_router: one
///             verified permute round-trip sized for the router's
///             --distributed-max-bytes threshold, then a before/after
///             scrape of the router's distributed counters.
///             `--require-distributed true` fails (exit 1) unless the
///             request was actually served by the sharded path.
///
/// Usage:
///   permd_client <ping|stats|phases|permute|program|dpermute> --port P
///                [--host 127.0.0.1] [--n 64K] [--family bit-reversal]
///                [--seed 42] [--count 4] [--deadline-ms 0]
///                [--timeout-ms 30000] [--ops plan:random,bit-reversal]
///                [--staged false] [--json false]
///                [--require-distributed false] [--max-payload-mb 64]
///
/// Exit code: 0 on success, 1 on any typed error or verification
/// failure, 2 on usage errors.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/phase.hpp"
#include "runtime/program.hpp"
#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

/// Pull `"key":<u64>` out of a JSON dump starting at `from`. Good
/// enough for the snapshots this tool itself requested.
bool scrape_u64(const std::string& json, std::string_view key, std::uint64_t& out,
                std::size_t from = 0) {
  const std::string needle = std::string("\"").append(key).append("\":");
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return false;
  const char* p = json.c_str() + at + needle.size();
  if (*p < '0' || *p > '9') return false;
  out = std::strtoull(p, nullptr, 10);
  return true;
}

/// Pull `"key":"<string>"` out of a JSON dump starting at `from`.
bool scrape_string(const std::string& json, std::string_view key, std::string& out,
                   std::size_t from = 0) {
  const std::string needle = std::string("\"").append(key).append("\":\"");
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find('"', begin);
  if (end == std::string::npos) return false;
  out = json.substr(begin, end - begin);
  return true;
}

bool scrape_bool(const std::string& json, std::string_view key, bool& out,
                 std::size_t from = 0) {
  const std::string needle = std::string("\"").append(key).append("\":");
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return false;
  out = json.compare(at + needle.size(), 4, "true") == 0;
  return true;
}

/// Render a router fleet snapshot as a per-backend table. Returns false
/// when `json` is not router-shaped (single-server ServiceMetrics).
bool print_router_stats(const std::string& json, std::ostream& os) {
  if (json.find("\"router\":{") == std::string::npos) return false;
  using hmm::util::format_count;
  std::uint64_t routed = 0, failovers = 0, shorted = 0, dist = 0, dist_failed = 0,
                dist_pushes = 0, dist_compiles = 0;
  (void)scrape_u64(json, "requests_total", routed);
  (void)scrape_u64(json, "failovers_total", failovers);
  (void)scrape_u64(json, "breaker_short_circuits", shorted);
  (void)scrape_u64(json, "distributed_requests", dist);
  (void)scrape_u64(json, "distributed_failures", dist_failed);
  (void)scrape_u64(json, "distributed_plan_pushes", dist_pushes);
  (void)scrape_u64(json, "distributed_plan_compiles", dist_compiles);
  os << "router: " << routed << " requests routed, " << failovers << " failovers, "
     << shorted << " breaker short-circuits";
  if (dist > 0 || dist_failed > 0) {
    os << ", " << dist << " distributed (" << dist_failed << " failed, " << dist_compiles
       << " plan compiles, " << dist_pushes << " plan pushes)";
  }
  os << "\n";

  hmm::util::Table t({"backend", "state", "breaker", "requests", "ok", "transport-fail",
                      "failovers-to", "plans-synced"});
  std::size_t at = json.find("\"backend\":\"");
  while (at != std::string::npos) {
    std::string label;
    bool healthy = true, breaker = false;
    std::uint64_t requests = 0, ok = 0, transport = 0, failovers_to = 0, synced = 0;
    (void)scrape_string(json, "backend", label, at);
    (void)scrape_bool(json, "healthy", healthy, at);
    (void)scrape_bool(json, "breaker_open", breaker, at);
    (void)scrape_u64(json, "requests", requests, at);
    (void)scrape_u64(json, "ok", ok, at);
    (void)scrape_u64(json, "transport_failures", transport, at);
    (void)scrape_u64(json, "failovers_to", failovers_to, at);
    (void)scrape_u64(json, "plans_synced", synced, at);
    t.add_row({label, healthy ? "healthy" : "EJECTED", breaker ? "open" : "closed",
               format_count(requests), format_count(ok), format_count(transport),
               format_count(failovers_to), format_count(synced)});
    at = json.find("\"backend\":\"", at + 1);
  }
  t.print(os);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmm;

  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"host", "port", "n", "family", "seed", "count", "deadline-ms",
                         "timeout-ms", "ops", "staged", "json", "require-distributed",
                         "max-payload-mb"},
                        std::cerr)) {
    return 2;
  }
  if (cli.positional().size() != 1) {
    std::cerr << "usage: permd_client <ping|stats|phases|permute|program|dpermute> "
                 "--port P [flags]\n";
    return 2;
  }
  const std::string command = cli.positional()[0];
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  if (port == 0) {
    std::cerr << "permd_client: --port is required\n";
    return 2;
  }

  net::ignore_sigpipe();
  net::Client::Config config;
  config.host = cli.get("host", "127.0.0.1");
  config.port = port;
  config.io_timeout = std::chrono::milliseconds(cli.get_int("timeout-ms", 30'000));
  config.max_payload_bytes =
      static_cast<std::uint32_t>(cli.get_int("max-payload-mb", 64) << 20);
  net::Client client(config);

  if (command == "ping") {
    util::Stopwatch sw;
    const runtime::Status s = client.ping();
    if (!s.is_ok()) {
      std::cerr << "permd_client: ping failed: " << s.to_string() << "\n";
      return 1;
    }
    std::cout << "pong from " << config.host << ":" << port << " in "
              << util::format_ms(sw.millis()) << " ms\n";
    return 0;
  }

  if (command == "stats") {
    const runtime::StatusOr<std::string> stats = client.stats_json();
    if (!stats.ok()) {
      std::cerr << "permd_client: stats failed: " << stats.status().to_string() << "\n";
      return 1;
    }
    // A router answers STATS with its fleet snapshot — render that as a
    // per-backend table; a plain server's ServiceMetrics stays raw JSON.
    if (cli.get_bool("json") || !print_router_stats(stats.value(), std::cout)) {
      std::cout << stats.value() << "\n";
    }
    return 0;
  }

  if (command == "dpermute") {
    const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 20));
    const std::string family = cli.get("family", "bit-reversal");
    const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const std::int64_t count = cli.get_int("count", 1);
    const std::int64_t deadline_ms = cli.get_int("deadline-ms", 0);
    const bool require_distributed = cli.get_bool("require-distributed");

    const runtime::StatusOr<std::string> before = client.stats_json();
    if (!before.ok()) {
      std::cerr << "permd_client: stats failed: " << before.status().to_string() << "\n";
      return 1;
    }
    std::uint64_t dist_before = 0;
    const bool is_router = scrape_u64(before.value(), "distributed_requests", dist_before);
    if (require_distributed && !is_router) {
      std::cerr << "permd_client: --require-distributed needs a permd_router target\n";
      return 1;
    }

    const perm::Permutation p = perm::by_name(family, n, seed);
    const runtime::StatusOr<std::uint64_t> plan = client.submit_plan(p);
    if (!plan.ok()) {
      std::cerr << "permd_client: submit_plan failed: " << plan.status().to_string() << "\n";
      return 1;
    }
    std::vector<std::uint32_t> a(n), b(n), expect(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);
    p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

    for (std::int64_t r = 0; r < count; ++r) {
      util::Stopwatch sw;
      const runtime::Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n},
                                               std::chrono::milliseconds(deadline_ms));
      if (!s.is_ok()) {
        std::cerr << "permd_client: dpermute " << r << " failed: " << s.to_string() << "\n";
        return 1;
      }
      if (b != expect) {
        std::cerr << "permd_client: dpermute " << r << " returned wrong data\n";
        return 1;
      }
      std::cout << "dpermute " << r << ": ok, verified, " << util::format_ms(sw.millis())
                << " ms\n";
    }

    const runtime::StatusOr<std::string> after = client.stats_json();
    std::uint64_t dist_after = 0;
    if (after.ok()) (void)scrape_u64(after.value(), "distributed_requests", dist_after);
    const std::uint64_t delta = dist_after - dist_before;
    std::cout << "distributed requests: " << delta << " of " << count
              << " served by the sharded path\n";
    if (require_distributed && delta == 0) {
      std::cerr << "permd_client: FAILED --require-distributed (the router served the "
                   "request single-node; check --distributed-max-bytes and fleet size)\n";
      return 1;
    }
    return 0;
  }

  if (command == "phases") {
    const runtime::StatusOr<std::string> stats = client.stats_json();
    if (!stats.ok()) {
      std::cerr << "permd_client: phases failed: " << stats.status().to_string() << "\n";
      return 1;
    }
    const std::vector<runtime::PhaseScrape> phases =
        runtime::scrape_phases_json(stats.value());
    if (phases.empty()) {
      std::cerr << "permd_client: server reported no phase breakdown\n";
      return 1;
    }
    util::Table t({"phase", "count", "p50", "p95", "max"});
    for (const runtime::PhaseScrape& row : phases) {
      t.add_row({row.label, util::format_count(row.count),
                 util::format_ms(static_cast<double>(row.p50) / 1e6) + " ms",
                 util::format_ms(static_cast<double>(row.p95) / 1e6) + " ms",
                 util::format_ms(static_cast<double>(row.max) / 1e6) + " ms"});
    }
    t.print(std::cout);
    return 0;
  }

  if (command == "program") {
    const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 64 << 10));
    const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const std::int64_t count = cli.get_int("count", 1);
    const std::int64_t deadline_ms = cli.get_int("deadline-ms", 0);
    const bool staged = cli.get_bool("staged", false);
    const std::string ops_spec = cli.get("ops", "plan:random,bit-reversal");

    // Parse the chain, registering plan:/inverse: families as we go and
    // building the same chain locally for ground-truth verification.
    std::vector<runtime::ProgramOp> ops;
    std::vector<perm::Permutation> local;
    std::size_t start = 0;
    while (start <= ops_spec.size()) {
      const std::size_t comma = ops_spec.find(',', start);
      const std::string token = ops_spec.substr(
          start, comma == std::string::npos ? std::string::npos : comma - start);
      start = comma == std::string::npos ? ops_spec.size() + 1 : comma + 1;
      if (token.empty()) continue;

      if (token.rfind("plan:", 0) == 0 || token.rfind("inverse:", 0) == 0) {
        const bool inverse = token[0] == 'i';
        const std::string family = token.substr(token.find(':') + 1);
        const perm::Permutation p = perm::by_name(family, n, seed);
        const runtime::StatusOr<std::uint64_t> plan = client.submit_plan(p);
        if (!plan.ok()) {
          std::cerr << "permd_client: submit_plan for '" << token
                    << "' failed: " << plan.status().to_string() << "\n";
          return 1;
        }
        ops.push_back({inverse ? runtime::ProgramOpCode::kInverse
                               : runtime::ProgramOpCode::kPermute,
                       plan.value()});
        local.push_back(inverse ? p.inverse() : p);
      } else if (token.rfind("rotate:", 0) == 0) {
        const std::uint64_t shift =
            static_cast<std::uint64_t>(std::stoll(token.substr(token.find(':') + 1)));
        ops.push_back({runtime::ProgramOpCode::kRotate, shift});
        local.push_back(perm::rotation(n, shift % n));
      } else if (token == "transpose") {
        std::uint64_t root = 0;
        while ((root + 1) * (root + 1) <= n) ++root;
        if (root * root != n) {
          std::cerr << "permd_client: transpose needs a perfect-square --n\n";
          return 2;
        }
        ops.push_back({runtime::ProgramOpCode::kTranspose, 0});
        local.push_back(perm::transpose(root, root));
      } else if (token == "reverse" || token == "shuffle" || token == "unshuffle" ||
                 token == "bit-reversal") {
        if (!util::is_pow2(n)) {
          std::cerr << "permd_client: '" << token << "' needs a power-of-two --n\n";
          return 2;
        }
        if (token == "reverse") {
          ops.push_back({runtime::ProgramOpCode::kReverse, 0});
          local.push_back(perm::bit_complement(n));
        } else if (token == "shuffle") {
          ops.push_back({runtime::ProgramOpCode::kShuffle, 0});
          local.push_back(perm::shuffle(n));
        } else if (token == "unshuffle") {
          ops.push_back({runtime::ProgramOpCode::kUnshuffle, 0});
          local.push_back(perm::unshuffle(n));
        } else {
          ops.push_back({runtime::ProgramOpCode::kBitReversal, 0});
          local.push_back(perm::bit_reversal(n));
        }
      } else {
        std::cerr << "permd_client: unknown op token '" << token << "'\n";
        return 2;
      }
    }
    if (ops.empty()) {
      std::cerr << "permd_client: --ops parsed to an empty chain\n";
      return 2;
    }

    // Ground truth: apply the chain locally, op by op.
    std::vector<std::uint32_t> a(n), b(n), expect(n), tmp(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);
    expect = a;
    for (const perm::Permutation& p : local) {
      p.apply<std::uint32_t>({expect.data(), n}, {tmp.data(), n});
      expect.swap(tmp);
    }

    std::cout << "program depth=" << ops.size() << " n=" << n
              << (staged ? " (staged)" : " (fused)") << "\n";
    for (std::int64_t r = 0; r < count; ++r) {
      util::Stopwatch sw;
      const runtime::Status s =
          client.execute_program({ops.data(), ops.size()}, {a.data(), n}, {b.data(), n},
                                 std::chrono::milliseconds(deadline_ms), staged);
      if (!s.is_ok()) {
        std::cerr << "permd_client: program " << r << " failed: " << s.to_string() << "\n";
        return 1;
      }
      if (b != expect) {
        std::cerr << "permd_client: program " << r << " returned wrong data\n";
        return 1;
      }
      std::cout << "program " << r << ": ok, verified, " << util::format_ms(sw.millis())
                << " ms\n";
    }
    return 0;
  }

  if (command != "permute") {
    std::cerr << "permd_client: unknown command '" << command << "'\n";
    return 2;
  }

  const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 64 << 10));
  const std::string family = cli.get("family", "bit-reversal");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::int64_t count = cli.get_int("count", 4);
  const std::int64_t deadline_ms = cli.get_int("deadline-ms", 0);

  const perm::Permutation p = perm::by_name(family, n, seed);
  const runtime::StatusOr<std::uint64_t> plan = client.submit_plan(p);
  if (!plan.ok()) {
    std::cerr << "permd_client: submit_plan failed: " << plan.status().to_string() << "\n";
    return 1;
  }
  std::cout << "plan " << family << " n=" << n << " registered as id 0x" << std::hex
            << plan.value() << std::dec << "\n";

  std::vector<std::uint32_t> a(n), b(n), expect(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<std::uint32_t>(i * 2654435761u);
  p.apply<std::uint32_t>({a.data(), n}, {expect.data(), n});

  for (std::int64_t r = 0; r < count; ++r) {
    util::Stopwatch sw;
    const runtime::Status s = client.permute(plan.value(), {a.data(), n}, {b.data(), n},
                                             std::chrono::milliseconds(deadline_ms));
    if (!s.is_ok()) {
      std::cerr << "permd_client: permute " << r << " failed: " << s.to_string() << "\n";
      return 1;
    }
    if (b != expect) {
      std::cerr << "permd_client: permute " << r << " returned wrong data\n";
      return 1;
    }
    std::cout << "permute " << r << ": ok, verified, " << util::format_ms(sw.millis())
              << " ms\n";
  }
  return 0;
}
