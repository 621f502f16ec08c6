/// \file permd_router.cpp
/// \brief The permd fleet front door: `net::Router` consistent-hashing
///        plan fingerprints across N backend permd instances, with
///        one health state per backend (fed by probes and requests),
///        replication, and typed failover.
///
/// Runs until SIGINT/SIGTERM (or `--duration-s`), then drains: the
/// listener closes, in-flight proxied requests finish, and the final
/// router snapshot (per-backend health, failovers, forward latency) is
/// printed (and written to `--metrics-json` / `--prom-file` if given).
///
/// Usage:
///   permd_router --backends 127.0.0.1:7001,127.0.0.1:7002,...
///                [--host 127.0.0.1] [--port 0] [--port-file <path>]
///                [--replication 2] [--virtual-nodes 64]
///                [--probe-interval-ms 250] [--probe-timeout-ms 1000]
///                [--eject-after 2]
///                [--failover-backoff-ms 2] [--failover-backoff-cap-ms 50]
///                [--max-connections 256] [--max-payload-mb 64]
///                [--max-plans 4096]
///                [--connect-timeout-ms 1000] [--io-timeout-ms 30000]
///                [--distributed-max-bytes 0]
///                [--duration-s 0] [--metrics-json <path>] [--json]
///                [--prom-file <path>]
///
/// `--eject-after N`: N consecutive transport failures of a backend, on
/// probes and proxied requests alike, eject it from routing. It keeps
/// being probed every `--probe-interval-ms` and rejoins after a
/// successful probe and a full replay of the router's plan registry.
///
/// `--distributed-max-bytes B` (B > 0) enables distributed permutation:
/// a PERMUTE whose element bytes exceed B is split into bands of its n
/// elements, any n, across up to 8 healthy backends (SHARD_EXEC +
/// peer-to-peer SHARD_XCHG) instead of forwarded to a single backend.
///
/// `--prom-file` rewrites the Prometheus text exposition roughly once
/// per second while serving (textfile-collector style, atomic rename)
/// and once more after the drain — the chaos CI smoke reads
/// `hmm_router_failovers_total` and the per-backend counters from it.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/router.hpp"
#include "net/socket.hpp"
#include "util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

/// "host:port,host:port,..." -> addresses. Returns false (with a
/// message on stderr) on any malformed entry.
bool parse_backends(const std::string& spec, std::vector<hmm::net::BackendAddress>& out) {
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size()) {
      std::cerr << "permd_router: malformed backend '" << entry << "' (want host:port)\n";
      return false;
    }
    const std::string port_str = entry.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port <= 0 || port > 65535) {
      std::cerr << "permd_router: bad backend port in '" << entry << "'\n";
      return false;
    }
    out.push_back(hmm::net::BackendAddress{entry.substr(0, colon),
                                           static_cast<std::uint16_t>(port)});
  }
  if (out.empty()) {
    std::cerr << "permd_router: --backends needs at least one host:port\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmm;

  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"backends", "host", "port", "port-file", "replication",
                         "virtual-nodes", "probe-interval-ms", "probe-timeout-ms",
                         "eject-after", "failover-backoff-ms", "failover-backoff-cap-ms",
                         "max-connections", "max-payload-mb", "max-plans",
                         "connect-timeout-ms", "io-timeout-ms", "distributed-max-bytes",
                         "duration-s", "metrics-json", "json", "prom-file"},
                        std::cerr)) {
    return 2;
  }

  net::Router::Config config;
  if (!parse_backends(cli.get("backends"), config.backends)) return 2;
  config.host = cli.get("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  config.replication = static_cast<std::uint32_t>(cli.get_int("replication", 2));
  config.virtual_nodes = static_cast<std::uint32_t>(cli.get_int("virtual-nodes", 64));
  config.probe_interval = std::chrono::milliseconds(cli.get_int("probe-interval-ms", 250));
  config.probe_timeout = std::chrono::milliseconds(cli.get_int("probe-timeout-ms", 1'000));
  config.eject_after = static_cast<std::uint32_t>(cli.get_int("eject-after", 2));
  config.failover_backoff_base =
      std::chrono::milliseconds(cli.get_int("failover-backoff-ms", 2));
  config.failover_backoff_cap =
      std::chrono::milliseconds(cli.get_int("failover-backoff-cap-ms", 50));
  config.max_connections = static_cast<std::uint32_t>(cli.get_int("max-connections", 256));
  config.max_payload_bytes =
      static_cast<std::uint32_t>(cli.get_int("max-payload-mb", 64) << 20);
  config.max_plans = static_cast<std::uint32_t>(cli.get_int("max-plans", 4096));
  config.connect_timeout =
      std::chrono::milliseconds(cli.get_int("connect-timeout-ms", 1'000));
  config.io_timeout = std::chrono::milliseconds(cli.get_int("io-timeout-ms", 30'000));
  config.distributed_max_bytes =
      static_cast<std::uint64_t>(cli.get_int("distributed-max-bytes", 0));
  const std::int64_t duration_s = cli.get_int("duration-s", 0);
  const std::string port_file = cli.get("port-file");
  const std::string metrics_json = cli.get("metrics-json");
  const bool json = cli.get_bool("json");
  const std::string prom_file = cli.get("prom-file");

  net::ignore_sigpipe();
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  net::Router router(std::move(config));
  if (runtime::Status s = router.start(); !s.is_ok()) {
    std::cerr << "permd_router: " << s.to_string() << "\n";
    return 1;
  }
  std::cout << "permd_router: listening on " << cli.get("host", "127.0.0.1") << ":"
            << router.port() << "  (" << router.snapshot().backends.size()
            << " backends)" << std::endl;

  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << router.port() << "\n";
    if (!pf) {
      std::cerr << "permd_router: cannot write --port-file " << port_file << "\n";
      router.stop();
      return 1;
    }
  }

  // Atomic-rename exposition writer, same contract as permd_serve:
  // scrapers must never read a half-written file.
  const auto write_prom = [&prom_file](const net::Router::Snapshot& snapshot) -> bool {
    if (prom_file.empty()) return true;
    const std::string tmp = prom_file + ".tmp";
    {
      std::ofstream pf(tmp);
      pf << snapshot.to_prometheus();
      if (!pf) return false;
    }
    return std::rename(tmp.c_str(), prom_file.c_str()) == 0;
  };

  const auto started = std::chrono::steady_clock::now();
  auto last_prom = started;
  while (g_stop == 0) {
    const auto now = std::chrono::steady_clock::now();
    if (duration_s > 0 && now - started >= std::chrono::seconds(duration_s)) {
      break;
    }
    if (!prom_file.empty() && now - last_prom >= std::chrono::seconds(1)) {
      (void)write_prom(router.snapshot());
      last_prom = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "permd_router: draining..." << std::endl;
  router.stop();

  const net::Router::Snapshot snap = router.snapshot();
  std::cout << "\nrouted " << snap.requests_total << " requests; failovers "
            << snap.failovers_total << " (retry-later " << snap.retry_later_failovers
            << "); no-backend " << snap.no_backend_available << "; plans "
            << snap.plans_registered << " (lazy resyncs " << snap.plan_resyncs << ")\n";
  if (snap.dist_requests > 0 || snap.dist_failures > 0) {
    std::cout << "distributed: " << snap.dist_requests << " requests ("
              << snap.dist_failures << " failed), " << snap.dist_bytes
              << " element bytes sharded, " << snap.dist_plan_compiles << " plan compiles, "
              << snap.dist_plan_pushes << " plan pushes\n";
  }
  for (const net::Router::BackendStats& b : snap.backends) {
    std::cout << "  " << b.backend << (b.healthy ? "  healthy" : "  EJECTED")
              << "  requests " << b.requests
              << " ok " << b.ok << " transport-failures " << b.transport_failures
              << " failovers-to " << b.failovers_to << " ejections " << b.ejections
              << " recoveries " << b.recoveries << " plans-synced " << b.plans_synced
              << " connects " << b.connects << "\n";
  }
  if (json) std::cout << snap.to_json() << "\n";
  if (!metrics_json.empty()) {
    std::ofstream mf(metrics_json);
    mf << snap.to_json() << "\n";
    if (!mf) {
      std::cerr << "permd_router: cannot write --metrics-json " << metrics_json << "\n";
      return 1;
    }
  }
  if (!write_prom(snap)) {
    std::cerr << "permd_router: cannot write --prom-file " << prom_file << "\n";
    return 1;
  }
  return 0;
}
