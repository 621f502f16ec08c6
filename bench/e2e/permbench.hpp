#pragma once
/// \file permbench.hpp
/// \brief Shared pieces of the end-to-end benchmark: exact sample
///        statistics, the in-memory span recorder, the workload table and
///        the system-under-test interface the load generator drives.
///
/// Everything here sits *outside* the library: spans are recorded
/// around calls into each layer's public functions, never inside them.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "perm/permutation.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "util/rng.hpp"

namespace permbench {

namespace perm = hmm::perm;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ statistics

/// One exact percentile over raw samples: the nearest-rank value, the
/// sample count, and how many samples lie beyond it.
struct Percentile {
  double value = 0;
  std::uint64_t samples = 0;
  std::uint64_t beyond = 0;
};

/// Nearest-rank q-quantile of `values` (sorted in place).
Percentile percentile(std::vector<double>& values, double q);

/// Median of `values` (sorted in place); 0 when empty.
double median(std::vector<double> values);

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Spans are buffered per thread and written as
/// Chrome trace-event JSON when the run ends; nothing is recorded while
/// `enabled()` is false, so untraced code pays one relaxed load.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a finished span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t parent, std::uint64_t request) {
    record_with_id(next_id(), name, start_ns, end_ns, parent, request);
  }
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint32_t next_id() noexcept { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Record a span under an id from next_id().
  void record_with_id(std::uint32_t id, const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint32_t parent, std::uint64_t request);

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Write every buffered span as a Chrome trace-event JSON file.
  bool write_chrome_json(const std::string& path) const;
  /// Drop every buffered span. Only while no thread is recording.
  void clear();

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t request;
  };
  struct Buffer {
    std::vector<Span> spans;
    std::uint32_t thread = 0;
  };
  Buffer& local();

  static constexpr std::uint64_t kMaxSpans = 400'000;
  // Buffers outlive the threads that filled them; they are read only
  // after every recording thread has been joined.
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Child span names for the kernel indices that
/// `OfflinePermuter::permute_timed` reports (0..4 scheduled, 5 conventional).
inline constexpr const char* kKernelSpanNames[] = {
    "kernel.row_pass1", "kernel.transpose1", "kernel.row_pass2",
    "kernel.transpose2", "kernel.row_pass3", "kernel.conventional"};

/// RAII span around a call into one layer. Nested scopes on one thread
/// become parent and child; `request` ties the spans of one request.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t request);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Id children may name as their parent (0 when tracing is off).
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

// -------------------------------------------------------------- workloads

enum class SystemKind { kInProc, kWire, kFleet };

/// One workload: a traffic mix against one system shape. The table in
/// workloads.cpp records why each exists.
struct WorkloadSpec {
  const char* name;
  SystemKind kind;
  std::uint64_t n;             ///< elements per request (u32)
  unsigned clients;            ///< client threads = connections (capped at nproc)
  unsigned plans;              ///< initial plans make_plans() builds for set-up
  double zipf_s;               ///< plan popularity skew; 0 = round robin
  std::uint64_t max_batch;     ///< executor same-plan batching on the serving side
  double open_loop_rps;        ///< fixed rate of the open-loop phase
  double fresh_plan_every_s;   ///< client 0 registers a fresh plan this often (0 = never)
  double tail_q;               ///< the gated tail percentile
  /// Take the tail as the median of the closed-loop windows' tails
  /// (each window then needs >= 10 samples beyond tail_q); otherwise over
  /// the whole closed-loop interval.
  bool tail_per_window;
};

const std::vector<WorkloadSpec>& workload_table();
const WorkloadSpec* find_workload(const std::string& name);

/// The initial plans of a workload for `seed`.
std::vector<perm::Permutation> make_plans(const WorkloadSpec& spec, std::uint64_t seed);
/// A fresh random plan (wire-256k's writes beside reads).
perm::Permutation make_fresh_plan(const WorkloadSpec& spec, std::uint64_t seed,
                                  std::uint64_t index);

/// Zipf(s) plan picker over ranks [0, k), or round robin when s == 0.
class PlanPicker {
 public:
  PlanPicker(std::size_t k, double s);
  std::size_t next(hmm::util::Xoshiro256& rng);

 private:
  std::size_t k_;
  std::vector<double> cdf_;  ///< empty for round robin
  std::size_t rr_ = 0;
};

/// The system under test, driven from outside through public APIs only.
/// Each client index owns its own connection; one client is used by one
/// thread at a time.
class System {
 public:
  virtual ~System() = default;
  /// Register `p` through client `client`; returns the handle that
  /// permute() takes.
  virtual hmm::runtime::StatusOr<std::uint64_t> add_plan(unsigned client,
                                                          const perm::Permutation& p) = 0;
  /// out[P(i)] = in[i] for the plan behind `handle`.
  virtual hmm::runtime::Status permute(unsigned client, std::uint64_t handle,
                                       std::span<const std::uint32_t> in,
                                       std::span<std::uint32_t> out, std::uint64_t request) = 0;
};

/// Start a fresh system for `spec` with `clients` client slots.
hmm::runtime::StatusOr<std::unique_ptr<System>> start_system(const WorkloadSpec& spec,
                                                              unsigned clients);

/// Default service settings except same-plan batching up to `max_batch`.
hmm::runtime::RobustPermuteService::Config service_config(std::uint64_t max_batch);

/// One permd node in-process: a service and the HMMP server in front of
/// it, on an ephemeral loopback port.
struct Node {
  explicit Node(std::uint64_t max_batch);
  hmm::runtime::RobustPermuteService service;
  hmm::net::Server server;
};
hmm::runtime::StatusOr<std::unique_ptr<Node>> start_node(std::uint64_t max_batch);

/// `kFleetBackends` nodes behind a router that splits any PERMUTE above
/// 1 MiB into row bands (SHARD_EXEC + SHARD_XCHG).
struct Fleet {
  static constexpr unsigned kFleetBackends = 3;
  static constexpr std::uint64_t kDistributedMaxBytes = 1 << 20;
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<hmm::net::Router> router;  // declared last: stops first
};
hmm::runtime::StatusOr<std::unique_ptr<Fleet>> start_fleet();

/// A loopback client with the benchmark's budgets.
hmm::net::Client::Config client_config(std::uint16_t port);

/// True iff out[P(i)] == in[i] for every i (the naive oracle).
bool matches_oracle(const perm::Permutation& p, std::span<const std::uint32_t> in,
                    std::span<const std::uint32_t> out);

/// Request outcome counters shared by the load and the probes.
struct Outcomes {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};      ///< typed, transport or refused
  std::atomic<std::uint64_t> checked{0};     ///< full oracle comparisons
  std::atomic<std::uint64_t> mismatches{0};  ///< wrong outputs

  void record(bool ok) noexcept {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
  void check(bool match) noexcept {
    checked.fetch_add(1, std::memory_order_relaxed);
    if (!match) mismatches.fetch_add(1, std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto* counter : {&attempted, &failed, &checked, &mismatches}) counter->store(0);
  }
};

Outcomes& outcomes();

// ----------------------------------------------------------------- probes

/// A metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What the per-layer probes need to know about a workload run.
struct ProbeInput {
  const WorkloadSpec* spec;
  unsigned clients;
  std::uint64_t seed;
  const std::vector<perm::Permutation>* plans;
  double client_p50_ms;  ///< closed-loop client p50 of the same run
};

/// Time the public functions of each layer from outside at the
/// workload's size and plan mix; appends per-layer metrics.
void run_layer_probes(const ProbeInput& in, std::vector<Metric>& out);

/// Pool-parallel memcpy bandwidth over `bytes` (read + write bytes / s).
double memcpy_gbps(std::uint64_t bytes);

}  // namespace permbench
