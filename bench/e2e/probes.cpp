/// \file probes.cpp
/// \brief Per-layer probes of the traced run. Each probe calls one
///        layer's public functions from outside, at the workload's
///        request size and plan mix, and reports what that layer costs.

#include <algorithm>
#include <cstring>
#include <functional>
#include <future>
#include <thread>

#include "core/layout.hpp"
#include "core/permuter.hpp"
#include "net/distributed.hpp"
#include "net/wire.hpp"
#include "perm/generators.hpp"
#include "permbench.hpp"
#include "runtime/phase.hpp"
#include "util/thread_pool.hpp"

namespace permbench {

namespace core = hmm::core;
namespace net = hmm::net;
namespace runtime = hmm::runtime;
using Permuter = core::OfflinePermuter<std::uint32_t>;

namespace {

/// Repeat `fn` until `seconds` have passed and at least `min_reps` ran
/// (at most `max_reps`); returns each call's wall time in ms.
template <class Fn>
std::vector<double> repeat_ms(double seconds, std::size_t min_reps, std::size_t max_reps, Fn&& fn) {
  std::vector<double> ms;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (ms.size() < max_reps && (ms.size() < min_reps || now_ns() < end)) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return ms;
}

std::vector<std::uint32_t> random_input(std::uint64_t n, std::uint64_t seed) {
  hmm::util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> v(n);
  for (std::uint32_t& x : v) x = static_cast<std::uint32_t>(rng.next());
  return v;
}

/// cpu, core and graph: the scheduled kernels, the conventional gather
/// and kAuto's choice on Table II's three families at the workload's n.
void probe_kernels(const ProbeInput& in, std::vector<Metric>& out) {
  const std::uint64_t n = in.spec->n;
  struct Family {
    perm::Permutation p;
    std::shared_ptr<const Permuter> chosen, sched, conv;
    std::vector<double> sched_ms, conv_ms;
  };
  std::vector<Family> families;
  std::vector<double> build_s, bytes_per_elem, coloring_s, schedules_s;
  for (const char* name : {"random", "bit-reversal", "transpose"}) {
    Family f{perm::by_name(name, n, in.seed), nullptr, nullptr, nullptr, {}, {}};
    f.chosen = std::make_shared<const Permuter>(f.p);  // kAuto
    build_s.push_back(f.chosen->offline_build_seconds());
    bytes_per_elem.push_back(static_cast<double>(f.chosen->compiled_bytes()) /
                             static_cast<double>(n));
    f.sched = f.chosen->strategy() == core::Strategy::kScheduled
                  ? f.chosen
                  : std::make_shared<const Permuter>(f.p, f.chosen->machine(),
                                                     core::Strategy::kScheduled);
    f.conv = f.chosen->strategy() == core::Strategy::kSDesignated
                 ? f.chosen
                 : std::make_shared<const Permuter>(f.p, f.chosen->machine(),
                                                    core::Strategy::kSDesignated);
    coloring_s.push_back(f.sched->plan()->build_stats().row_graph_seconds);
    schedules_s.push_back(f.sched->plan()->build_stats().schedules_seconds);
    families.push_back(std::move(f));
  }

  const std::vector<std::uint32_t> a = random_input(n, in.seed);
  std::vector<std::uint32_t> b(n), scratch(n);
  Tracer& tracer = Tracer::global();
  std::vector<double> row_ms, transpose_ms, kernel_ms, conv_ms;
  std::uint64_t request = 0;
  for (Family& f : families) {
    f.sched->permute(a, b, scratch);
    outcomes().record(true);
    outcomes().check(matches_oracle(f.p, a, b));
    f.conv->permute(a, b, {});
    outcomes().record(true);
    outcomes().check(matches_oracle(f.p, a, b));
  }
  const std::int64_t end = now_ns() + 1'500'000'000;
  for (int round = 0; round < 2000 && (round < 5 || now_ns() < end); ++round) {
    for (Family& f : families) {
      std::uint64_t ns[5] = {};
      {
        SpanScope span("core.permute", ++request);
        (void)f.sched->permute_timed(a, b, scratch, core::PhaseGate{},
                                     [&](unsigned kernel, std::uint64_t k_ns) {
                                       if (kernel < 5) ns[kernel] = k_ns;
                                       if (tracer.enabled()) {
                                         const std::int64_t t = now_ns();
                                         tracer.record(kKernelSpanNames[kernel],
                                                       t - static_cast<std::int64_t>(k_ns), t,
                                                       span.id(), request);
                                       }
                                     });
      }
      row_ms.push_back(static_cast<double>(ns[0] + ns[2] + ns[4]) / 1e6);
      transpose_ms.push_back(static_cast<double>(ns[1] + ns[3]) / 1e6);
      const double total = static_cast<double>(ns[0] + ns[1] + ns[2] + ns[3] + ns[4]) / 1e6;
      kernel_ms.push_back(total);
      f.sched_ms.push_back(total);

      const std::int64_t t0 = now_ns();
      {
        SpanScope span("core.permute", ++request);
        f.conv->permute(a, b, {});
      }
      const double conv = static_cast<double>(now_ns() - t0) / 1e6;
      conv_ms.push_back(conv);
      f.conv_ms.push_back(conv);
      outcomes().record(true);
      outcomes().record(true);
    }
  }

  // kAuto's regret: the time it spends on the three families over the
  // time the better strategy would have spent on each.
  double chosen_total = 0, best_total = 0, kmin = 1e300, kmax = 0;
  for (const Family& f : families) {
    const double s = median(f.sched_ms), c = median(f.conv_ms);
    chosen_total += f.chosen->strategy() == core::Strategy::kScheduled ? s : c;
    best_total += std::min(s, c);
    kmin = std::min(kmin, s);
    kmax = std::max(kmax, s);
  }
  // Three row passes read 4n data + 4n schedule (two u16 arrays) and
  // write 4n; two transposes read and write 4n each.
  const double bytes = 52.0 * static_cast<double>(n);
  const double kernel = median(kernel_ms);
  const double kernel_gbps = bytes / (kernel * 1e-3) / 1e9;
  const double copy_gbps = memcpy_gbps(n * sizeof(std::uint32_t));
  out.push_back({"cpu.row_pass_ms", median(row_ms), "ms"});
  out.push_back({"cpu.transpose_ms", median(transpose_ms), "ms"});
  out.push_back({"cpu.kernel_ms", kernel, "ms"});
  out.push_back({"cpu.bytes_per_req", bytes, "B"});
  out.push_back({"cpu.kernel_gbps", kernel_gbps, "GB/s"});
  out.push_back({"cpu.memcpy_gbps", copy_gbps, "GB/s"});
  out.push_back({"cpu.roofline_frac", kernel_gbps / copy_gbps, "fraction"});
  out.push_back({"cpu.family_spread", kmax / kmin, "ratio"});
  out.push_back({"core.conv_ms", median(conv_ms), "ms"});
  out.push_back({"core.auto_regret", chosen_total / best_total, "ratio"});
  out.push_back({"core.plan_build_s", median(build_s), "s"});
  out.push_back({"core.plan_bytes_per_elem", median(bytes_per_elem), "B"});
  out.push_back({"graph.coloring_s", median(coloring_s), "s"});
  out.push_back({"core.schedules_s", median(schedules_s), "s"});
}

/// util: one empty fork/join over the workload's index range, the
/// structure of every kernel pass.
void probe_forkjoin(const ProbeInput& in, std::vector<Metric>& out) {
  hmm::util::ThreadPool& pool = hmm::util::ThreadPool::global();
  std::uint64_t request = 0;
  std::vector<double> ms = repeat_ms(0.3, 50, 20'000, [&] {
    SpanScope span("pool.forkjoin", ++request);
    pool.parallel_for_chunks(0, in.spec->n, [](std::uint64_t, std::uint64_t) {});
  });
  out.push_back({"util.forkjoin_us", median(ms) * 1e3, "us"});
}

/// net: the frame checksum over one request payload.
void probe_checksum(const ProbeInput& in, std::vector<Metric>& out) {
  const std::vector<std::uint32_t> words = random_input(in.spec->n, in.seed + 1);
  const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(words.data()),
                                            words.size() * sizeof(std::uint32_t));
  volatile std::uint64_t sink = 0;
  std::uint64_t request = 0;
  std::vector<double> ms = repeat_ms(0.3, 5, 20'000, [&] {
    SpanScope span("net.checksum", ++request);
    sink = net::checksum_bytes(bytes);
  });
  const double gbps = static_cast<double>(bytes.size()) / (median(ms) * 1e-3) / 1e9;
  // A round trip checksums the payload four times: client send, server
  // receive, server send, client receive.
  out.push_back({"net.checksum_gbps", gbps, "GB/s"});
  out.push_back({"net.checksum_ms_per_req",
                 4.0 * static_cast<double>(bytes.size()) / (gbps * 1e9) * 1e3, "ms"});
}

double phase_mean_ms(const runtime::MetricsSnapshot& s0, const runtime::MetricsSnapshot& s1,
                     runtime::Phase phase) {
  const std::uint64_t count = s1.phase(phase).count - s0.phase(phase).count;
  if (count == 0) return 0;
  return static_cast<double>(s1.phase(phase).ns_sum - s0.phase(phase).ns_sum) /
         static_cast<double>(count) / 1e6;
}

/// runtime: RobustPermuteService::submit plus the wait, in-process with
/// the workload's plans, batching setting and client count, no socket.
/// Returns the p50 in ms.
double probe_service(const ProbeInput& in, std::vector<Metric>& out) {
  const WorkloadSpec& spec = *in.spec;
  const std::vector<perm::Permutation>& plans = *in.plans;
  runtime::RobustPermuteService service(hmm::util::ThreadPool::global(),
                                        service_config(spec.max_batch));

  const auto run_one = [&](const perm::Permutation& p, std::span<const std::uint32_t> a,
                           std::span<std::uint32_t> b, std::uint64_t request) {
    runtime::StatusOr<std::future<runtime::Status>> submitted = [&] {
      SpanScope span("service.submit", request);
      return service.submit<std::uint32_t>(p, a, b);
    }();
    if (!submitted.ok()) return false;
    SpanScope span("service.wait", request);
    return submitted.value().get().is_ok();
  };

  // Warm: compile every plan once, checked.
  std::vector<std::uint32_t> a = random_input(spec.n, in.seed + 2), b(spec.n);
  for (const perm::Permutation& p : plans) {
    const bool ok = run_one(p, a, b, 0);
    outcomes().record(ok);
    if (ok) outcomes().check(matches_oracle(p, a, b));
  }

  const runtime::MetricsSnapshot s0 = service.metrics().snapshot();
  std::vector<std::vector<double>> per_client(in.clients);
  std::vector<std::thread> threads;
  const std::int64_t end = now_ns() + 1'500'000'000;
  for (unsigned c = 0; c < in.clients; ++c) {
    threads.emplace_back([&, c] {
      hmm::util::Xoshiro256 rng(in.seed * 31 + c);
      PlanPicker picker(plans.size(), spec.zipf_s);
      std::vector<std::uint32_t> ca = random_input(spec.n, in.seed + 3 + c), cb(spec.n);
      for (std::uint64_t r = 0; now_ns() < end || r < 3; ++r) {
        const std::size_t k = picker.next(rng);
        const std::int64_t t0 = now_ns();
        const bool ok = run_one(plans[k], ca, cb, r);
        per_client[c].push_back(static_cast<double>(now_ns() - t0) / 1e6);
        outcomes().record(ok);
        if (ok && r % 64 == 0) outcomes().check(matches_oracle(plans[k], ca, cb));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const runtime::MetricsSnapshot s1 = service.metrics().snapshot();

  std::vector<double> ms;
  for (auto& v : per_client) ms.insert(ms.end(), v.begin(), v.end());
  const double p50 = percentile(ms, 0.5).value;
  std::uint64_t kernel_ns = 0;
  for (runtime::Phase phase :
       {runtime::Phase::kKernelRowPass1, runtime::Phase::kKernelTranspose1,
        runtime::Phase::kKernelRowPass2, runtime::Phase::kKernelTranspose2,
        runtime::Phase::kKernelRowPass3, runtime::Phase::kKernelConventional}) {
    kernel_ns += s1.phase(phase).ns_sum - s0.phase(phase).ns_sum;
  }
  const double completed = static_cast<double>(std::max<std::uint64_t>(s1.completed - s0.completed, 1));
  const std::uint64_t batches = s1.batches_executed - s0.batches_executed;
  const std::uint64_t lookups = s1.lookups - s0.lookups;
  out.push_back({"runtime.service_p50_ms", p50, "ms"});
  out.push_back({"srv.queue_wait_ms", phase_mean_ms(s0, s1, runtime::Phase::kQueueWait), "ms"});
  out.push_back({"srv.plan_lookup_ms", phase_mean_ms(s0, s1, runtime::Phase::kPlanLookup), "ms"});
  out.push_back({"srv.kernel_ms", static_cast<double>(kernel_ns) / completed / 1e6, "ms"});
  out.push_back({"srv.mean_batch",
                 batches == 0 ? 1.0
                              : static_cast<double>(s1.batched_requests - s0.batched_requests) /
                                    static_cast<double>(batches),
                 "count"});
  out.push_back({"srv.plan_hit_rate",
                 lookups == 0 ? 0.0
                              : static_cast<double>(s1.hits - s0.hits) /
                                    static_cast<double>(lookups),
                 "fraction"});
  return p50;
}

/// net: the router hop and the shard exchange, on a fresh fleet at the
/// workload's request size. Single node over the wire, the router, and
/// the distributed coordinator called directly are timed in turn.
void probe_fleet(const ProbeInput& in, std::vector<Metric>& out) {
  const std::uint64_t n = in.spec->n;
  const perm::Permutation& p = in.plans->front();
  runtime::StatusOr<std::unique_ptr<Fleet>> started = start_fleet();
  if (!started.ok()) {
    outcomes().record(false);
    return;
  }
  Fleet& fleet = *started.value();

  std::vector<std::unique_ptr<net::Client>> direct;
  std::vector<net::ShardTarget> targets;
  std::uint64_t plan_id = 0;
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    const std::uint16_t port = fleet.nodes[i]->server.port();
    direct.push_back(std::make_unique<net::Client>(client_config(port)));
    runtime::StatusOr<std::uint64_t> id = direct.back()->submit_plan(p);
    outcomes().record(id.ok());
    if (!id.ok()) return;
    plan_id = id.value();
    targets.push_back(net::ShardTarget{"127.0.0.1", port, i});
  }
  net::Client routed(client_config(fleet.router->port()));
  runtime::StatusOr<std::uint64_t> routed_id = routed.submit_plan(p);
  outcomes().record(routed_id.ok());
  if (!routed_id.ok()) return;

  const std::vector<std::uint32_t> a = random_input(n, in.seed + 4);
  std::vector<std::uint32_t> b(n);
  const core::MatrixShape shape = core::shape_for(n, 32);
  net::DistributedPermuter::Config dist_config;
  dist_config.max_payload_bytes = net::kDefaultMaxPayload;
  dist_config.io_timeout = std::chrono::milliseconds(60'000);
  const std::span<const std::uint8_t> a_bytes(reinterpret_cast<const std::uint8_t*>(a.data()),
                                              n * sizeof(std::uint32_t));
  std::uint64_t request = 0;

  const auto single = [&] {
    SpanScope span("client.permute", ++request);
    return direct[0]->permute(plan_id, a, b).is_ok();
  };
  const auto via_router = [&] {
    SpanScope span("client.permute", ++request);
    return routed.permute(routed_id.value(), a, b).is_ok();
  };
  const auto coordinated = [&] {
    SpanScope span("net.distributed_execute", ++request);
    runtime::StatusOr<net::DistributedPermuter::Result> r = net::DistributedPermuter::execute(
        dist_config, 0x9e3b'0000'0000ull + request, plan_id, 0, shape.rows, shape.cols, a_bytes,
        targets, [](std::size_t) {});
    if (!r.ok() || r.value().total_elements != n) return false;
    std::uint8_t* dst = reinterpret_cast<std::uint8_t*>(b.data());
    for (const net::DistributedPermuter::Band& band : r.value().bands) {
      std::memcpy(dst, band.bytes.data(), band.bytes.size());
      dst += band.bytes.size();
    }
    return true;
  };

  std::vector<double> p50;
  for (const auto& mode : {std::function<bool()>(single), std::function<bool()>(via_router),
                           std::function<bool()>(coordinated)}) {
    const bool warm = mode();  // compiles the plan where this mode runs it
    outcomes().record(warm);
    if (warm) outcomes().check(matches_oracle(p, a, b));
    p50.push_back(median(repeat_ms(0.8, 5, 5'000, [&] { outcomes().record(mode()); })));
  }
  const bool distributed = n * sizeof(std::uint32_t) > Fleet::kDistributedMaxBytes;
  out.push_back({"net.router_hop_ms", p50[1] - (distributed ? p50[2] : p50[0]), "ms"});
  out.push_back({"net.shard_overhead_ms", p50[2] - p50[0], "ms"});
  out.push_back({"net.dist_failures", static_cast<double>(fleet.router->snapshot().dist_failures),
                 "count"});
}

}  // namespace

double memcpy_gbps(std::uint64_t bytes) {
  hmm::util::ThreadPool& pool = hmm::util::ThreadPool::global();
  hmm::util::aligned_vector<std::uint8_t> src(bytes, 1), dst(bytes, 0);
  const auto copy = [&] {
    pool.parallel_for_chunks(0, bytes, [&](std::uint64_t lo, std::uint64_t hi) {
      std::memcpy(dst.data() + lo, src.data() + lo, hi - lo);
    });
  };
  copy();
  const double ms = median(repeat_ms(0.1, 5, 10'000, copy));
  return 2.0 * static_cast<double>(bytes) / (ms * 1e-3) / 1e9;
}

void run_layer_probes(const ProbeInput& in, std::vector<Metric>& out) {
  probe_kernels(in, out);
  probe_forkjoin(in, out);
  probe_checksum(in, out);
  const double service_p50 = probe_service(in, out);
  out.push_back({"net.overhead_ms", in.client_p50_ms - service_p50, "ms"});
  probe_fleet(in, out);
}

}  // namespace permbench
