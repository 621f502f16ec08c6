/// \file permd_loadgen.cpp
/// \brief Closed-loop load generator for permd_serve: N concurrent
///        connections replaying a Zipf-distributed plan mix, with
///        client-side latency percentiles and a typed error taxonomy.
///
/// Each worker owns one connection (the protocol is request/response
/// per connection) and loops: sample a plan by Zipf rank, send a
/// PERMUTE carrying fresh data, verify the response against the local
/// ground truth, record the latency. Typed rejections the serving
/// stack is *supposed* to produce under pressure — RETRY_LATER,
/// DEADLINE_EXCEEDED — are counted, not failed: the run only fails on
/// garbled/hung connections (transport or framing errors), malformed
/// responses, or wrong data. That is exactly the acceptance bar for
/// chaos runs: every request gets a well-formed typed answer.
///
/// Usage:
///   permd_loadgen --port P [--host 127.0.0.1] [--connections 4]
///                 [--requests 100] [--duration-s 0] [--n 16K]
///                 [--perms 12] [--zipf 1.0] [--seed 42]
///                 [--deadline-ms 0] [--timeout-ms 30000] [--json]
///                 [--require-batching] [--program-depth 0]
///                 [--program-staged false] [--retry-later-max 0]
///                 [--router] [--distributed] [--max-payload-mb 64]
///
/// `--retry-later-max k` (k > 0) resends a request that came back
/// RETRY_LATER up to k times (exponential pause between attempts)
/// before recording the final outcome. Resends are tallied separately
/// (`retry_later retries`); the per-request taxonomy still counts one
/// final code per request. This is the knob chaos fleet runs use: a
/// router failing over around a killed backend may legitimately answer
/// RETRY_LATER for a beat, and the run should press on, not give up.
///
/// `--router` declares the target a permd_router, not a permd_serve:
/// the final STATS fetch is reported as the router's fleet snapshot
/// (failovers, breaker short-circuits, per-backend health) instead of
/// the single-server phase breakdown.
///
/// `--program-depth k` (k > 0) switches every request from PERMUTE to
/// EXECUTE_PROGRAM carrying a depth-k chain of Zipf-sampled registered
/// plans — one round trip does k permutations' work. Responses are
/// spot-verified against the chained ground truth (index-chasing
/// through each stage mapping: O(1) per checked index, no composed
/// table on the client). `--program-staged true` forces the server's
/// staged path.
///
/// `--requests` is per connection; `--duration-s` (if > 0) stops the
/// run early. The final report includes the server's own
/// ServiceMetrics::to_json() snapshot, so one loadgen run captures
/// both sides of the wire.
///
/// `--require-batching` turns the run into a batching smoke: it fails
/// (exit 1) unless the server's final STATS report shows at least one
/// fused batch executed AND a nonzero buffer-pool hit count — the CI
/// guard that the hot-path machinery is actually engaged, not silently
/// bypassed.
///
/// `--distributed` (implies --router) turns the run into a distributed
/// smoke: it fails (exit 1) unless the router's final STATS report a
/// nonzero `distributed_requests` — the guard that requests sized above
/// the router's --distributed-max-bytes actually took the sharded path
/// (SHARD_EXEC fan-out + peer exchange), not the single-node fallback.

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"
#include "runtime/metrics.hpp"
#include "runtime/phase.hpp"
#include "runtime/program.hpp"
#include "runtime/status.hpp"
#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hmm;

/// Same population shape as permd_replay: a few named hot families,
/// then a tail of independent random permutations.
perm::Permutation make_member(std::uint64_t rank, std::uint64_t n, std::uint64_t seed) {
  const bool even_log2 = util::log2_exact(n) % 2 == 0;
  static const std::vector<std::string> named = {"bit-reversal", "shuffle", "transpose",
                                                 "gray", "butterfly", "unshuffle"};
  if (rank < named.size()) {
    const std::string& family =
        (named[rank] == "butterfly" && !even_log2) ? "rotation" : named[rank];
    return perm::by_name(family, n, seed);
  }
  return perm::by_name("random", n, seed + rank);
}

/// Zipf(s) sampler over ranks [0, k) via inverse-CDF binary search.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t k, double s) : cdf_(k) {
    double total = 0;
    for (std::uint64_t r = 0; r < k; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  std::uint64_t operator()(util::Xoshiro256& rng) const {
    const double u = rng.uniform01();
    std::uint64_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::uint64_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

/// Shared tallies; one slot per StatusCode plus run-failing categories.
struct Tally {
  static constexpr int kCodes = 7;  // StatusCode values 0..6
  std::array<std::atomic<std::uint64_t>, kCodes> by_code{};
  std::atomic<std::uint64_t> verify_failures{0};
  /// Resends triggered by RETRY_LATER under --retry-later-max; kept
  /// out of by_code so each request still contributes exactly one
  /// final outcome to the taxonomy.
  std::atomic<std::uint64_t> retry_later_retries{0};
  runtime::LogHistogram latency_ns;

  void record(runtime::StatusCode code) {
    const int c = static_cast<int>(code);
    by_code[static_cast<std::size_t>(c < kCodes ? c : kCodes - 1)].fetch_add(
        1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count(runtime::StatusCode code) const {
    return by_code[static_cast<std::size_t>(code)].load(std::memory_order_relaxed);
  }
};

/// Pull `"key":<u64>` out of a flat JSON dump. Good enough for the
/// metrics snapshot this tool itself requested; not a JSON parser.
bool scrape_u64(const std::string& json, std::string_view key, std::uint64_t& out) {
  const std::string needle = std::string("\"").append(key).append("\":");
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const char* p = json.c_str() + at + needle.size();
  if (*p < '0' || *p > '9') return false;
  out = std::strtoull(p, nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"host", "port", "connections", "requests", "duration-s", "n", "perms",
                         "zipf", "seed", "deadline-ms", "timeout-ms", "json",
                         "require-batching", "program-depth", "program-staged",
                         "retry-later-max", "router", "distributed", "max-payload-mb"},
                        std::cerr)) {
    return 2;
  }
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  if (port == 0) {
    std::cerr << "permd_loadgen: --port is required\n";
    return 2;
  }
  const std::string host = cli.get("host", "127.0.0.1");
  const std::uint64_t connections = static_cast<std::uint64_t>(cli.get_int("connections", 4));
  const std::uint64_t requests_per_conn =
      static_cast<std::uint64_t>(cli.get_int("requests", 100));
  const std::int64_t duration_s = cli.get_int("duration-s", 0);
  const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 16 << 10));
  const std::uint64_t num_perms = static_cast<std::uint64_t>(cli.get_int("perms", 12));
  const double zipf_s = cli.get_double("zipf", 1.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::int64_t deadline_ms = cli.get_int("deadline-ms", 0);
  const std::int64_t timeout_ms = cli.get_int("timeout-ms", 30'000);
  const bool json = cli.get_bool("json");
  const bool require_batching = cli.get_bool("require-batching");
  const std::uint64_t program_depth =
      static_cast<std::uint64_t>(cli.get_int("program-depth", 0));
  const bool program_staged = cli.get_bool("program-staged");
  const std::int64_t retry_later_max = cli.get_int("retry-later-max", 0);
  const bool distributed = cli.get_bool("distributed");
  const bool router_mode = cli.get_bool("router") || distributed;

  if (program_depth > runtime::kMaxProgramOps) {
    std::cerr << "permd_loadgen: --program-depth exceeds the protocol op cap ("
              << runtime::kMaxProgramOps << ")\n";
    return 2;
  }

  if (!util::is_pow2(n) || n < 64) {
    std::cerr << "permd_loadgen: --n must be a power of two >= 64 (got " << n << ")\n";
    return 2;
  }
  if (connections == 0 || num_perms == 0) {
    std::cerr << "permd_loadgen: --connections and --perms must be positive\n";
    return 2;
  }

  net::ignore_sigpipe();

  net::Client::Config client_config;
  client_config.host = host;
  client_config.port = port;
  client_config.io_timeout = std::chrono::milliseconds(timeout_ms);
  client_config.max_payload_bytes =
      static_cast<std::uint32_t>(cli.get_int("max-payload-mb", 64) << 20);

  // Register the whole population once up front; workers share the ids
  // (and the server's PlanCache shares the compiled plans).
  std::vector<perm::Permutation> population;
  std::vector<std::uint64_t> plan_ids;
  population.reserve(num_perms);
  plan_ids.reserve(num_perms);
  {
    net::Client setup(client_config);
    for (std::uint64_t r = 0; r < num_perms; ++r) {
      population.push_back(make_member(r, n, seed));
      runtime::StatusOr<std::uint64_t> id = setup.submit_plan(population.back());
      if (!id.ok()) {
        std::cerr << "permd_loadgen: SUBMIT_PLAN " << r
                  << " failed: " << id.status().to_string() << "\n";
        return 1;
      }
      plan_ids.push_back(id.value());
    }
  }

  std::cout << "permd_loadgen: " << host << ":" << port << "  connections=" << connections
            << " requests/conn=" << requests_per_conn << " n=" << n << " perms=" << num_perms
            << " zipf=" << zipf_s;
  if (deadline_ms > 0) std::cout << " deadline=" << deadline_ms << "ms";
  if (program_depth > 0) {
    std::cout << " program-depth=" << program_depth << (program_staged ? " (staged)" : " (fused)");
  }
  std::cout << "\n";

  Tally tally;
  std::atomic<std::uint64_t> transport_failures{0};  // garbled/hung/torn connections
  std::atomic<bool> stop{false};
  const auto started = std::chrono::steady_clock::now();

  auto worker = [&](std::uint64_t worker_id) {
    // Per-worker trace prefix: the server's slow-request log can name
    // the connection a slow request came from.
    net::Client::Config worker_config = client_config;
    worker_config.trace_prefix = static_cast<std::uint32_t>(worker_id + 1);
    net::Client client(worker_config);
    util::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ull * (worker_id + 1)));
    ZipfSampler sample(num_perms, zipf_s);
    std::vector<std::uint32_t> a(n), b(n);

    std::vector<std::uint64_t> chain(program_depth);
    std::vector<runtime::ProgramOp> ops(program_depth);

    for (std::uint64_t r = 0; r < requests_per_conn && !stop.load(std::memory_order_relaxed);
         ++r) {
      const std::uint64_t rank = sample(rng);
      const auto stamp = static_cast<std::uint32_t>(rng.next());
      for (std::uint64_t i = 0; i < n; ++i) {
        a[i] = stamp + static_cast<std::uint32_t>(i);
      }
      util::Stopwatch sw;
      runtime::Status s = runtime::Status::ok();
      if (program_depth > 0) {
        // A depth-k chain of Zipf-sampled registered plans; one
        // EXECUTE_PROGRAM round trip does k permutations' work. Sampled
        // once per request, outside the RETRY_LATER loop: a resend is
        // the same request.
        for (std::uint64_t d = 0; d < program_depth; ++d) {
          chain[d] = sample(rng);
          ops[d] = {runtime::ProgramOpCode::kPermute, plan_ids[chain[d]]};
        }
      }
      for (std::int64_t attempt = 0;; ++attempt) {
        if (program_depth > 0) {
          s = client.execute_program({ops.data(), ops.size()}, {a.data(), n}, {b.data(), n},
                                     std::chrono::milliseconds(deadline_ms), program_staged);
        } else {
          s = client.permute(plan_ids[rank], {a.data(), n}, {b.data(), n},
                             std::chrono::milliseconds(deadline_ms));
        }
        if (s.code() != runtime::StatusCode::kResourceExhausted || attempt >= retry_later_max ||
            stop.load(std::memory_order_relaxed)) {
          break;
        }
        tally.retry_later_retries.fetch_add(1, std::memory_order_relaxed);
        // The server asked for "later": capped exponential pause, not a
        // hot resend loop.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1LL << std::min<std::int64_t>(attempt, 6)));
      }
      tally.latency_ns.record(static_cast<std::uint64_t>(sw.nanos()));
      tally.record(s.code());
      if (s.is_ok()) {
        // Spot-check the permuted image (full check would dominate).
        if (program_depth > 0) {
          // Chase each checked index through the chain: stage d moves
          // position idx to P_d(idx), so the final resting place of
          // a[i] is P_k(...P_1(i)...) — O(depth) per index, no composed
          // table needed client-side.
          for (std::uint64_t i = 0; i < n; i += 97) {
            std::uint64_t idx = i;
            for (std::uint64_t d = 0; d < program_depth; ++d) {
              idx = population[chain[d]](idx);
            }
            if (b[idx] != a[i]) {
              tally.verify_failures.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        } else {
          const perm::Permutation& p = population[rank];
          for (std::uint64_t i = 0; i < n; i += 97) {
            if (b[p(i)] != a[i]) {
              tally.verify_failures.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
      } else if (s.code() == runtime::StatusCode::kUnavailable ||
                 s.code() == runtime::StatusCode::kInvalidArgument) {
        // Typed pressure responses (RETRY_LATER, DEADLINE_EXCEEDED) are
        // expected under chaos; a dead/garbled connection or a request
        // the server calls malformed is a real failure.
        transport_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::uint64_t w = 0; w < connections; ++w) workers.emplace_back(worker, w);
  if (duration_s > 0) {
    while (std::chrono::steady_clock::now() - started < std::chrono::seconds(duration_s)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : workers) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

  using runtime::StatusCode;
  const std::uint64_t total = tally.latency_ns.count();
  const std::uint64_t ok = tally.count(StatusCode::kOk);

  util::Table report({"metric", "value"});
  report.add_row({"requests", util::format_count(total)});
  report.add_row({"throughput",
                  util::format_double(static_cast<double>(total) / wall_s, 1) + " req/s"});
  report.add_row({"latency p50",
                  util::format_ms(static_cast<double>(tally.latency_ns.quantile(0.5)) / 1e6) +
                      " ms"});
  report.add_row({"latency p99",
                  util::format_ms(static_cast<double>(tally.latency_ns.quantile(0.99)) / 1e6) +
                      " ms"});
  report.add_row({"latency max",
                  util::format_ms(static_cast<double>(tally.latency_ns.max()) / 1e6) + " ms"});
  report.add_separator();
  report.add_row({"ok", util::format_count(ok)});
  report.add_row({"retry_later", util::format_count(tally.count(StatusCode::kResourceExhausted))});
  if (retry_later_max > 0) {
    report.add_row({"retry_later retries",
                    util::format_count(tally.retry_later_retries.load())});
  }
  report.add_row({"deadline_exceeded",
                  util::format_count(tally.count(StatusCode::kDeadlineExceeded))});
  report.add_row({"plan_build_failed",
                  util::format_count(tally.count(StatusCode::kPlanBuildFailed))});
  report.add_row({"cancelled", util::format_count(tally.count(StatusCode::kCancelled))});
  report.add_row({"invalid_argument",
                  util::format_count(tally.count(StatusCode::kInvalidArgument))});
  report.add_row({"unavailable", util::format_count(tally.count(StatusCode::kUnavailable))});
  report.add_row({"transport/protocol failures",
                  util::format_count(transport_failures.load())});
  report.add_row({"verify failures", util::format_count(tally.verify_failures.load())});
  report.print(std::cout);

  // The server-side half of the story: the same metrics a scraper
  // would export, fetched over the wire it describes.
  net::Client stats_client(client_config);
  runtime::StatusOr<std::string> server_stats = stats_client.stats_json();
  if (server_stats.ok() && router_mode) {
    // Fleet-side half of the story: what the router did to keep the
    // run alive (failovers, breaker trips, lazy plan resyncs).
    std::uint64_t routed = 0, failovers = 0, shorted = 0, no_backend = 0, resyncs = 0;
    std::uint64_t dist = 0, dist_failed = 0;
    (void)scrape_u64(server_stats.value(), "requests_total", routed);
    (void)scrape_u64(server_stats.value(), "failovers_total", failovers);
    (void)scrape_u64(server_stats.value(), "breaker_short_circuits", shorted);
    (void)scrape_u64(server_stats.value(), "no_backend_available", no_backend);
    (void)scrape_u64(server_stats.value(), "plan_resyncs", resyncs);
    (void)scrape_u64(server_stats.value(), "distributed_requests", dist);
    (void)scrape_u64(server_stats.value(), "distributed_failures", dist_failed);
    std::cout << "\nrouter: routed " << routed << " requests, failovers " << failovers
              << ", breaker short-circuits " << shorted << ", no-backend " << no_backend
              << ", plan resyncs " << resyncs << ", distributed " << dist << " ("
              << dist_failed << " failed)\n";
    if (json) std::cout << server_stats.value() << "\n";
  } else if (server_stats.ok()) {
    // Where the server says the time went, phase by phase — the
    // breakdown that pairs with the client-side latency percentiles
    // above.
    const std::vector<runtime::PhaseScrape> phases =
        runtime::scrape_phases_json(server_stats.value());
    if (!phases.empty()) {
      std::cout << "\nserver-side phase breakdown:\n";
      util::Table phase_table({"phase", "count", "p50", "p95", "max"});
      for (const runtime::PhaseScrape& row : phases) {
        phase_table.add_row({row.label, util::format_count(row.count),
                             util::format_ms(static_cast<double>(row.p50) / 1e6) + " ms",
                             util::format_ms(static_cast<double>(row.p95) / 1e6) + " ms",
                             util::format_ms(static_cast<double>(row.max) / 1e6) + " ms"});
      }
      phase_table.print(std::cout);
    }
    if (json) std::cout << server_stats.value() << "\n";
  } else {
    std::cerr << "permd_loadgen: STATS fetch failed: " << server_stats.status().to_string()
              << "\n";
  }

  const bool failed = transport_failures.load() > 0 || tally.verify_failures.load() > 0 ||
                      !server_stats.ok() || total == 0;
  if (failed) {
    std::cerr << "permd_loadgen: FAILED (garbled/hung connections, wrong data, or no "
                 "requests completed)\n";
    return 1;
  }
  if (require_batching) {
    std::uint64_t batches = 0, pool_hits = 0;
    // "hits" also names the plan-cache counter, so anchor the pool
    // scrape at its own object.
    const std::size_t pool_at = server_stats.value().find("\"pool\":{");
    const bool scraped = scrape_u64(server_stats.value(), "batches_executed", batches) &&
                         pool_at != std::string::npos &&
                         scrape_u64(server_stats.value().substr(pool_at), "hits", pool_hits);
    std::cout << "batching smoke: batches_executed=" << batches << " pool_hits=" << pool_hits
              << "\n";
    if (!scraped || batches == 0 || pool_hits == 0) {
      std::cerr << "permd_loadgen: FAILED --require-batching (server reports no fused "
                   "batches or no buffer-pool hits; hot-path machinery not engaged)\n";
      return 1;
    }
  }
  if (distributed) {
    std::uint64_t dist = 0;
    const bool scraped = scrape_u64(server_stats.value(), "distributed_requests", dist);
    std::cout << "distributed smoke: distributed_requests=" << dist << "\n";
    if (!scraped || dist == 0) {
      std::cerr << "permd_loadgen: FAILED --distributed (the router served every request "
                   "single-node; sharded path not engaged)\n";
      return 1;
    }
  }
  std::cout << "permd_loadgen: all " << total
            << " requests received well-formed typed responses (" << ok << " ok)\n";
  return 0;
}
