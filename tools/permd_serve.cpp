/// \file permd_serve.cpp
/// \brief The permutation service daemon: `net::Server` over a
///        `RobustPermuteService`, with the same chaos/admission knobs
///        as permd_replay.
///
/// Runs until SIGINT/SIGTERM (or `--duration-s`), then drains
/// gracefully: the listener closes, every connection finishes the
/// request it is serving, the executor goes idle, and the final
/// ServiceMetrics snapshot is printed (and written to `--metrics-json`
/// if given, for CI trend tracking).
///
/// SIGPIPE is ignored process-wide: a client that disappears mid-
/// response is a per-connection event (EPIPE/ECONNRESET surface as
/// typed Status inside the net layer), never a reason to die.
///
/// Usage:
///   permd_serve [--host 127.0.0.1] [--port 0] [--port-file <path>]
///               [--cache-mb 64] [--max-in-flight 0] [--reject]
///               [--max-connections 256] [--max-payload-mb 64]
///               [--io-threads 2] [--handler-threads 0]
///               [--io-timeout-ms 30000] [--idle-timeout-ms 0]
///               [--duration-s 0]
///               [--metrics-json <path>] [--json]
///               [--prom-file <path>] [--slow-ms 0]
///               [--batch-max 1] [--batch-delay-us 200]
///               [--strategy auto|scheduled|s-designated|d-designated|bucketed]
///               [--fault-rate 0.0] [--fault-seed 1]
///               [--fault-sites plan_cache.build] [--fault-stall-ms 50]
///
/// `--io-threads N` sets the number of epoll reactor threads that own
/// the connections (nonblocking frame assembly + response flushing);
/// idle connections cost a map entry, not a thread, so the default of
/// 2 carries 10k+ connections. `--handler-threads N` bounds concurrent
/// request execution (0 = auto: max(16, 2 x hardware threads)).
///
/// `--batch-max N` (N > 1) turns on same-plan request batching in the
/// executor: up to N queued PERMUTEs that share a compiled plan run as
/// one fused kernel sweep, gathered for at most `--batch-delay-us`.
///
/// `--strategy` is the strategy every plan compiles to (default
/// `auto`: the host cost model picks per plan). Batching fuses only
/// scheduled executions, so a batching smoke forces `scheduled`.
///
/// `--prom-file` rewrites the Prometheus text exposition roughly once
/// per second while serving (textfile-collector style) and once more
/// after the drain; `--slow-ms N` arms the rate-limited slow-request
/// log for requests whose attributed phase time reaches N ms.
///
/// `--port 0` binds an ephemeral port; `--port-file` writes the bound
/// port (one line) once listening, which is how scripted runs and the
/// CI loopback smoke find the server.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "cpu/dispatch.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/service.hpp"
#include "util/cli.hpp"
#include "util/numa.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace hmm;

  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"host", "port", "port-file", "cache-mb", "max-in-flight", "reject",
                         "max-connections", "max-payload-mb", "io-threads", "handler-threads",
                         "io-timeout-ms",
                         "idle-timeout-ms", "shard-exchange-timeout-ms", "duration-s",
                         "metrics-json", "json", "prom-file", "slow-ms", "batch-max",
                         "batch-delay-us", "strategy", "fault-rate", "fault-seed", "fault-sites",
                         "fault-stall-ms"},
                        std::cerr)) {
    return 2;
  }
  const std::string host = cli.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  const std::string port_file = cli.get("port-file");
  const std::uint64_t cache_bytes =
      static_cast<std::uint64_t>(cli.get_int("cache-mb", 64)) << 20;
  const std::uint64_t max_in_flight =
      static_cast<std::uint64_t>(cli.get_int("max-in-flight", 0));
  const bool reject = cli.get_bool("reject");
  const auto max_connections = static_cast<std::uint32_t>(cli.get_int("max-connections", 256));
  const auto max_payload_bytes =
      static_cast<std::uint32_t>(cli.get_int("max-payload-mb", 64) << 20);
  const auto io_threads = static_cast<std::uint32_t>(cli.get_int("io-threads", 2));
  const auto handler_threads = static_cast<std::uint32_t>(cli.get_int("handler-threads", 0));
  const std::int64_t io_timeout_ms = cli.get_int("io-timeout-ms", 30'000);
  const std::int64_t idle_timeout_ms = cli.get_int("idle-timeout-ms", 0);
  const std::int64_t duration_s = cli.get_int("duration-s", 0);
  const std::string metrics_json = cli.get("metrics-json");
  const bool json = cli.get_bool("json");
  const std::string prom_file = cli.get("prom-file");
  const std::int64_t slow_ms = cli.get_int("slow-ms", 0);
  const std::int64_t batch_max = cli.get_int("batch-max", 1);
  const std::int64_t batch_delay_us = cli.get_int("batch-delay-us", 200);
  const std::optional<core::Strategy> strategy =
      core::strategy_from_string(cli.get("strategy", "auto"));
  if (!strategy) {
    std::cerr << "permd_serve: --strategy must be auto, scheduled, s-designated, "
                 "d-designated or bucketed\n";
    return 2;
  }
  const double fault_rate = cli.get_double("fault-rate", 0.0);
  const std::uint64_t fault_seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  const std::string fault_sites =
      cli.get("fault-sites", std::string(runtime::fault_sites::kPlanBuild));
  const std::uint64_t fault_stall_ms =
      static_cast<std::uint64_t>(cli.get_int("fault-stall-ms", 50));

  // A dead client must never kill the daemon (satellite: no SIGPIPE
  // anywhere in the serving path); stop signals drain gracefully.
  net::ignore_sigpipe();
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  if (fault_rate > 0.0) {
    runtime::FaultInjector::Config faults;
    faults.enabled = true;
    faults.seed = fault_seed;
    faults.rate = fault_rate;
    faults.stall_ms = static_cast<std::uint32_t>(fault_stall_ms);
    faults.sites = fault_sites;
    runtime::FaultInjector::instance().configure(faults);
  }

  auto& pool = util::ThreadPool::global();
  runtime::RobustPermuteService::Config service_config;
  service_config.cache.max_bytes = cache_bytes;
  service_config.strategy = *strategy;
  service_config.executor.max_in_flight = max_in_flight;
  service_config.executor.admission =
      reject ? runtime::Executor::Admission::kReject : runtime::Executor::Admission::kBlock;
  if (slow_ms > 0) {
    service_config.executor.slow_log_threshold = std::chrono::milliseconds(slow_ms);
  }
  if (batch_max > 1) {
    service_config.executor.batch.max_batch = static_cast<std::uint32_t>(batch_max);
    service_config.executor.batch.max_delay = std::chrono::microseconds(batch_delay_us);
  }
  runtime::RobustPermuteService service(pool, service_config);

  net::Server::Config server_config;
  server_config.host = host;
  server_config.port = port;
  server_config.max_connections = max_connections;
  server_config.max_payload_bytes = max_payload_bytes;
  server_config.io_threads = io_threads;
  server_config.handler_threads = handler_threads;
  server_config.io_timeout = std::chrono::milliseconds(io_timeout_ms);
  server_config.idle_timeout = std::chrono::milliseconds(idle_timeout_ms);
  server_config.shard_exchange_timeout =
      std::chrono::milliseconds(cli.get_int("shard-exchange-timeout-ms", 10'000));
  net::Server server(service, server_config);

  if (runtime::Status s = server.start(); !s.is_ok()) {
    std::cerr << "permd_serve: " << s.to_string() << "\n";
    return 1;
  }
  std::cout << "permd_serve: listening on " << host << ":" << server.port() << "  (io="
            << io_threads << " reactors, pool=" << pool.size()
            << " threads, cache=" << util::format_bytes(cache_bytes);
  if (batch_max > 1) {
    std::cout << ", batching max=" << batch_max << " delay=" << batch_delay_us << "us";
  }
  if (fault_rate > 0.0) {
    std::cout << ", chaos rate=" << fault_rate << " seed=" << fault_seed;
  }
  std::cout << ")" << std::endl;

  // Attribution line: which kernel tier the dispatcher picked (and what
  // the CPU could have run) plus the NUMA layout, so every bench row or
  // latency report against this process names the code path that served it.
  {
    const cpu::CpuFeatures& feat = cpu::cpu_features();
    std::cout << "permd_serve: kernels=" << cpu::to_string(cpu::kernel_variant())
              << " (cpu supports:" << (feat.avx512 ? " avx512" : "")
              << (feat.avx2 ? " avx2" : "") << " scalar)"
              << ", numa nodes=" << util::numa::node_count()
              << (pool.workers_pinned() ? ", workers pinned per node"
                                        : ", workers unpinned")
              << std::endl;
  }

  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << server.port() << "\n";
    if (!pf) {
      std::cerr << "permd_serve: cannot write --port-file " << port_file << "\n";
      server.stop();
      return 1;
    }
  }

  // Atomic-rename exposition writer: scrapers (and the CI smoke) must
  // never read a half-written file.
  const auto write_prom = [&prom_file,
                           &server](const runtime::MetricsSnapshot& snapshot) -> bool {
    if (prom_file.empty()) return true;
    const std::string tmp = prom_file + ".tmp";
    {
      std::ofstream pf(tmp);
      pf << snapshot.to_prometheus() << server.to_prometheus();
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
      (void)write_prom(service.metrics().snapshot());
      last_prom = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "permd_serve: draining..." << std::endl;
  server.stop();

  const net::Server::Counters counters = server.counters();
  const runtime::MetricsSnapshot snap = service.metrics().snapshot();
  std::cout << "\n";
  snap.to_table().print(std::cout);
  std::cout << "\nconnections accepted " << counters.connections_accepted << ", rejected "
            << counters.connections_rejected << "; requests ok " << counters.requests_ok
            << ", error " << counters.requests_error << "; protocol errors "
            << counters.protocol_errors << "; plans registered " << counters.plans_registered
            << "; idle closed " << counters.idle_closed << "\n";
  if (fault_rate > 0.0) {
    std::cout << "faults fired: " << runtime::FaultInjector::instance().total_fired() << "\n";
  }
  if (json) std::cout << snap.to_json() << "\n";
  if (!metrics_json.empty()) {
    std::ofstream mf(metrics_json);
    mf << snap.to_json() << "\n";
    if (!mf) {
      std::cerr << "permd_serve: cannot write --metrics-json " << metrics_json << "\n";
      return 1;
    }
  }
  if (!write_prom(snap)) {
    std::cerr << "permd_serve: cannot write --prom-file " << prom_file << "\n";
    return 1;
  }
  return 0;
}
