/// \file workloads.cpp
/// \brief The four workloads and the systems they drive: the library
///        called in-process, one HMMP server, and a routed fleet.

#include <cmath>
#include <mutex>

#include "core/permuter.hpp"
#include "perm/generators.hpp"
#include "permbench.hpp"
#include "util/bits.hpp"
#include "util/thread_pool.hpp"

namespace permbench {

namespace core = hmm::core;
namespace net = hmm::net;
namespace runtime = hmm::runtime;

const std::vector<WorkloadSpec>& workload_table() {
  // Each workload stresses a different layer, and each has a partner on
  // which a change to that layer should show no effect:
  //  - inproc-1m: kernels and the core execution path are the whole request;
  //    net and runtime do nothing.
  //  - wire-8k: per-request serving overhead (reactor, queue, dispatch,
  //    same-plan batching) dominates; kernels are ~0.1 ms of it.
  //  - wire-256k: the same layers bound by bytes (checksums, plan
  //    lookup, kernels); batching is bypassed by its cache budget, and
  //    fresh plans register beside the reads.
  //  - fleet-1m: the only path through the router and the shard
  //    exchange.
  // Open-loop rates sit near half of each workload's closed-loop
  // capacity on a 4-core host, so the queue stays bounded. Each tail
  // percentile leaves >= 10 samples beyond it in every window (fleet-1m:
  // over the whole closed loop) of a 20 s run on such a host.
  static const std::vector<WorkloadSpec> table = {
      {"inproc-1m", SystemKind::kInProc, 1 << 20, 1, 3, 0.0, 1, 250, 0, 0.98, true},
      {"wire-8k", SystemKind::kWire, 8 << 10, 4, 16, 1.0, 8, 2500, 0, 0.99, true},
      {"wire-256k", SystemKind::kWire, 256 << 10, 4, 4, 1.0, 8, 120, 3.0, 0.95, true},
      {"fleet-1m", SystemKind::kFleet, 1 << 20, 2, 1, 0.0, 1, 6, 0, 0.90, false},
  };
  return table;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workload_table()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

/// permd_loadgen's population: a few named hot families, then a tail of
/// independent random permutations.
perm::Permutation loadgen_member(std::uint64_t rank, std::uint64_t n, std::uint64_t seed) {
  static const std::vector<std::string> named = {"bit-reversal", "shuffle", "transpose",
                                                 "gray", "butterfly", "unshuffle"};
  if (rank < named.size()) {
    const bool even_log2 = hmm::util::log2_exact(n) % 2 == 0;
    const std::string& family =
        (named[rank] == "butterfly" && !even_log2) ? "rotation" : named[rank];
    return perm::by_name(family, n, seed);
  }
  return perm::by_name("random", n, seed + rank);
}

}  // namespace

std::vector<perm::Permutation> make_plans(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<perm::Permutation> plans;
  switch (spec.kind) {
    case SystemKind::kInProc:
      // Table II's families; kAuto schedules all three at 1M.
      for (const char* family : {"random", "bit-reversal", "transpose"}) {
        plans.push_back(perm::by_name(family, spec.n, seed));
      }
      break;
    case SystemKind::kWire:
      for (std::uint64_t rank = 0; rank < spec.plans; ++rank) {
        plans.push_back(loadgen_member(rank, spec.n, seed));
      }
      break;
    case SystemKind::kFleet:
      plans.push_back(perm::by_name("random", spec.n, seed));
      break;
  }
  return plans;
}

perm::Permutation make_fresh_plan(const WorkloadSpec& spec, std::uint64_t seed,
                                  std::uint64_t index) {
  return perm::by_name("random", spec.n, seed * 1'000'003 + 7'919 * (index + 1));
}

PlanPicker::PlanPicker(std::size_t k, double s) : k_(k) {
  if (s <= 0) return;  // round robin
  double total = 0;
  for (std::size_t r = 0; r < k; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t PlanPicker::next(hmm::util::Xoshiro256& rng) {
  if (cdf_.empty()) return rr_++ % k_;
  const double u = rng.uniform01();
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool matches_oracle(const perm::Permutation& p, std::span<const std::uint32_t> in,
                    std::span<const std::uint32_t> out) {
  if (in.size() != p.size() || out.size() != p.size()) return false;
  for (std::uint64_t i = 0; i < p.size(); ++i) {
    if (out[p(i)] != in[i]) return false;
  }
  return true;
}

Outcomes& outcomes() {
  static Outcomes o;
  return o;
}

net::Client::Config client_config(std::uint16_t port) {
  net::Client::Config config;
  config.port = port;
  config.io_timeout = std::chrono::milliseconds(60'000);
  return config;
}

runtime::RobustPermuteService::Config service_config(std::uint64_t max_batch) {
  runtime::RobustPermuteService::Config config;
  config.executor.batch.max_batch = max_batch;
  return config;
}

Node::Node(std::uint64_t max_batch)
    : service(hmm::util::ThreadPool::global(), service_config(max_batch)), server(service) {}

runtime::StatusOr<std::unique_ptr<Node>> start_node(std::uint64_t max_batch) {
  auto node = std::make_unique<Node>(max_batch);
  if (runtime::Status s = node->server.start(); !s.is_ok()) return s;
  return node;
}

runtime::StatusOr<std::unique_ptr<Fleet>> start_fleet() {
  auto fleet = std::make_unique<Fleet>();
  net::Router::Config config;
  for (unsigned i = 0; i < Fleet::kFleetBackends; ++i) {
    runtime::StatusOr<std::unique_ptr<Node>> node = start_node(1);
    if (!node.ok()) return node.status();
    config.backends.push_back(net::BackendAddress{"127.0.0.1", node.value()->server.port()});
    fleet->nodes.push_back(std::move(node).value());
  }
  config.distributed_max_bytes = Fleet::kDistributedMaxBytes;
  config.io_timeout = std::chrono::milliseconds(60'000);
  fleet->router = std::make_unique<net::Router>(std::move(config));
  if (runtime::Status s = fleet->router->start(); !s.is_ok()) return s;
  return fleet;
}

namespace {

/// The library path: one OfflinePermuter per plan (kAuto), executed on
/// the caller's thread with kernels fanned out to the global pool.
class InProcSystem final : public System {
 public:
  explicit InProcSystem(unsigned clients) : scratch_(clients) {}

  runtime::StatusOr<std::uint64_t> add_plan(unsigned, const perm::Permutation& p) override {
    auto permuter = std::make_shared<const core::OfflinePermuter<std::uint32_t>>(p);
    std::lock_guard lock(mutex_);
    permuters_.push_back(std::move(permuter));
    return permuters_.size() - 1;
  }

  runtime::Status permute(unsigned client, std::uint64_t handle,
                          std::span<const std::uint32_t> in, std::span<std::uint32_t> out,
                          std::uint64_t request) override {
    std::shared_ptr<const core::OfflinePermuter<std::uint32_t>> permuter;
    {
      std::lock_guard lock(mutex_);
      permuter = permuters_.at(handle);
    }
    hmm::util::aligned_vector<std::uint32_t>& scratch = scratch_.at(client);
    scratch.resize(permuter->scratch_elements());
    const std::span<std::uint32_t> scratch_span(scratch.data(), scratch.size());
    Tracer& tracer = Tracer::global();
    if (!tracer.enabled()) {
      permuter->permute(in, out, scratch_span);
      return runtime::Status::ok();
    }
    SpanScope span("core.permute", request);
    (void)permuter->permute_timed(in, out, scratch_span, core::PhaseGate{},
                                  [&](unsigned kernel, std::uint64_t ns) {
                                    const std::int64_t end = now_ns();
                                    tracer.record(kKernelSpanNames[kernel],
                                                  end - static_cast<std::int64_t>(ns), end,
                                                  span.id(), request);
                                  });
    return runtime::Status::ok();
  }

 private:
  std::mutex mutex_;
  std::vector<std::shared_ptr<const core::OfflinePermuter<std::uint32_t>>> permuters_;
  std::vector<hmm::util::aligned_vector<std::uint32_t>> scratch_;
};

/// HMMP clients, one connection each, to the port of what this system
/// owns: a node, or the router of a fleet.
template <class Backend>
class WireSystem final : public System {
 public:
  WireSystem(std::unique_ptr<Backend> backend, std::uint16_t port, unsigned clients)
      : backend_(std::move(backend)) {
    for (unsigned c = 0; c < clients; ++c) {
      net::Client::Config config = client_config(port);
      config.trace_prefix = c + 1;
      clients_.push_back(std::make_unique<net::Client>(config));
    }
  }

  runtime::StatusOr<std::uint64_t> add_plan(unsigned client, const perm::Permutation& p) override {
    return clients_.at(client)->submit_plan(p);
  }

  runtime::Status permute(unsigned client, std::uint64_t handle,
                          std::span<const std::uint32_t> in, std::span<std::uint32_t> out,
                          std::uint64_t request) override {
    SpanScope span("client.permute", request);
    return clients_.at(client)->permute(handle, in, out);
  }

 private:
  std::unique_ptr<Backend> backend_;
  std::vector<std::unique_ptr<net::Client>> clients_;  // declared last: disconnect first
};

}  // namespace

runtime::StatusOr<std::unique_ptr<System>> start_system(const WorkloadSpec& spec,
                                                         unsigned clients) {
  switch (spec.kind) {
    case SystemKind::kInProc:
      return std::unique_ptr<System>(std::make_unique<InProcSystem>(clients));
    case SystemKind::kWire: {
      runtime::StatusOr<std::unique_ptr<Node>> node = start_node(spec.max_batch);
      if (!node.ok()) return node.status();
      const std::uint16_t port = node.value()->server.port();
      return std::unique_ptr<System>(
          std::make_unique<WireSystem<Node>>(std::move(node).value(), port, clients));
    }
    case SystemKind::kFleet: {
      runtime::StatusOr<std::unique_ptr<Fleet>> fleet = start_fleet();
      if (!fleet.ok()) return fleet.status();
      const std::uint16_t port = fleet.value()->router->port();
      return std::unique_ptr<System>(
          std::make_unique<WireSystem<Fleet>>(std::move(fleet).value(), port, clients));
    }
  }
  return runtime::Status(runtime::StatusCode::kInvalidArgument, "unknown system kind");
}

}  // namespace permbench
