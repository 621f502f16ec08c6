#include "runtime/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "core/permuter.hpp"
#include "cpu/dispatch.hpp"
#include "util/bits.hpp"
#include "util/buffer_pool.hpp"
#include "util/numa.hpp"

namespace hmm::runtime {
namespace {

/// Fetch-max over a relaxed atomic (CAS loop; contention is rare).
void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) noexcept {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

std::string format_ns(std::uint64_t ns) {
  if (ns >= 1'000'000) return util::format_ms(static_cast<double>(ns) / 1e6) + " ms";
  std::ostringstream os;
  if (ns >= 1'000) {
    os << util::format_double(static_cast<double>(ns) / 1e3, 1) << " us";
  } else {
    os << ns << " ns";
  }
  return os.str();
}

}  // namespace

void LogHistogram::record(std::uint64_t value) noexcept {
  const int bucket = value == 0 ? 0 : static_cast<int>(util::log2_floor(value));
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  atomic_max(max_, value);
}

std::uint64_t LogHistogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, ceil) so quantile(1.0) lands in
  // the last occupied bucket.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Geometric midpoint of [2^b, 2^(b+1)): 1.5 * 2^b, capped by max.
      const std::uint64_t mid = b >= 62 ? max() : (3ull << b) / 2;
      return std::min(mid, max());
    }
  }
  return max();
}

void LogHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void ServiceMetrics::record_plan_build(std::uint64_t ns) noexcept {
  plan_builds_.fetch_add(1, std::memory_order_relaxed);
  plan_build_ns_total_.fetch_add(ns, std::memory_order_relaxed);
  atomic_max(plan_build_ns_max_, ns);
}

void ServiceMetrics::record_plan_strategy(core::Strategy strategy) noexcept {
  switch (strategy) {
    case core::Strategy::kScheduled:
      plans_scheduled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Strategy::kSDesignated:
      plans_s_designated_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Strategy::kDDesignated:
      plans_d_designated_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Strategy::kBucketed:
      plans_bucketed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::Strategy::kAuto:
      break;
  }
}

void ServiceMetrics::record_submit(std::uint64_t queue_depth) noexcept {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  atomic_max(queue_high_water_, queue_depth);
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_evicted = bytes_evicted_.load(std::memory_order_relaxed);
  s.plan_builds = plan_builds_.load(std::memory_order_relaxed);
  s.plan_build_ns_total = plan_build_ns_total_.load(std::memory_order_relaxed);
  s.plan_build_ns_max = plan_build_ns_max_.load(std::memory_order_relaxed);
  s.plans_scheduled = plans_scheduled_.load(std::memory_order_relaxed);
  s.plans_s_designated = plans_s_designated_.load(std::memory_order_relaxed);
  s.plans_d_designated = plans_d_designated_.load(std::memory_order_relaxed);
  s.plans_bucketed = plans_bucketed_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  s.execute_count = execute_ns_.count();
  s.execute_ns_sum = execute_ns_.sum();
  s.execute_ns_p50 = execute_ns_.quantile(0.50);
  s.execute_ns_p95 = execute_ns_.quantile(0.95);
  s.execute_ns_max = execute_ns_.max();
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.degraded_executions = degraded_.load(std::memory_order_relaxed);
  s.build_retries = build_retries_.load(std::memory_order_relaxed);
  s.batches_executed = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.batch_size_p50 = batch_size_.quantile(0.50);
  s.batch_size_max = batch_size_.max();
  s.programs_executed = programs_executed_.load(std::memory_order_relaxed);
  s.programs_fused = programs_fused_.load(std::memory_order_relaxed);
  s.programs_identity = programs_identity_.load(std::memory_order_relaxed);
  s.program_stages_p50 = program_stages_.quantile(0.50);
  s.program_stages_max = program_stages_.max();
  s.kernel_variant = std::string(cpu::to_string(cpu::kernel_variant()));
  s.numa_nodes = static_cast<std::uint32_t>(util::numa::node_count());
  s.host = core::host_params_so_far();
  {
    const util::BufferPool::Stats pool = util::BufferPool::global().stats();
    s.pool_hits = pool.hits;
    s.pool_misses = pool.misses;
    s.pool_releases = pool.releases;
    s.pool_trims = pool.trims;
    s.pool_acquire_failures = pool.acquire_failures;
    s.pool_outstanding_bytes = pool.outstanding_bytes;
    s.pool_pooled_bytes = pool.pooled_bytes;
  }
  for (std::size_t i = 0; i < kPhaseCount; ++i) s.phases[i] = phase_ns_[i].stats();
  return s;
}

void ServiceMetrics::reset() {
  lookups_.store(0, std::memory_order_relaxed);
  plans_scheduled_.store(0, std::memory_order_relaxed);
  plans_s_designated_.store(0, std::memory_order_relaxed);
  plans_d_designated_.store(0, std::memory_order_relaxed);
  plans_bucketed_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  bytes_evicted_.store(0, std::memory_order_relaxed);
  plan_builds_.store(0, std::memory_order_relaxed);
  plan_build_ns_total_.store(0, std::memory_order_relaxed);
  plan_build_ns_max_.store(0, std::memory_order_relaxed);
  submitted_.store(0, std::memory_order_relaxed);
  queue_high_water_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  failed_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
  cancelled_.store(0, std::memory_order_relaxed);
  deadline_exceeded_.store(0, std::memory_order_relaxed);
  degraded_.store(0, std::memory_order_relaxed);
  build_retries_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  batched_requests_.store(0, std::memory_order_relaxed);
  programs_executed_.store(0, std::memory_order_relaxed);
  programs_fused_.store(0, std::memory_order_relaxed);
  programs_identity_.store(0, std::memory_order_relaxed);
  program_stages_.reset();
  batch_size_.reset();
  execute_ns_.reset();
  for (auto& h : phase_ns_) h.reset();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{"
     << "\"cache\":{"
     << "\"lookups\":" << lookups << ",\"hits\":" << hits << ",\"misses\":" << misses
     << ",\"hit_rate\":" << util::format_double(hit_rate(), 4)
     << ",\"evictions\":" << evictions << ",\"bytes_evicted\":" << bytes_evicted
     << ",\"plan_builds\":" << plan_builds
     << ",\"plan_build_ns_total\":" << plan_build_ns_total
     << ",\"plan_build_ns_max\":" << plan_build_ns_max
     << ",\"plans_by_strategy\":{\"scheduled\":" << plans_scheduled
     << ",\"s-designated\":" << plans_s_designated
     << ",\"d-designated\":" << plans_d_designated
     << ",\"bucketed\":" << plans_bucketed << "}},"
     << "\"executor\":{"
     << "\"submitted\":" << submitted << ",\"completed\":" << completed
     << ",\"failed\":" << failed << ",\"queue_high_water\":" << queue_high_water
     << ",\"execute_count\":" << execute_count << ",\"execute_ns_sum\":" << execute_ns_sum
     << ",\"execute_ns_p50\":" << execute_ns_p50 << ",\"execute_ns_p95\":" << execute_ns_p95
     << ",\"execute_ns_max\":" << execute_ns_max << "},"
     << "\"robustness\":{"
     << "\"rejected\":" << rejected << ",\"cancelled\":" << cancelled
     << ",\"deadline_exceeded\":" << deadline_exceeded
     << ",\"degraded_executions\":" << degraded_executions
     << ",\"build_retries\":" << build_retries << "},"
     << "\"batching\":{"
     << "\"batches_executed\":" << batches_executed
     << ",\"batched_requests\":" << batched_requests
     << ",\"batch_size_p50\":" << batch_size_p50
     << ",\"batch_size_max\":" << batch_size_max << "},"
     << "\"programs\":{"
     << "\"executed\":" << programs_executed << ",\"fused\":" << programs_fused
     << ",\"identity\":" << programs_identity
     << ",\"stages_p50\":" << program_stages_p50
     << ",\"stages_max\":" << program_stages_max << "},"
     << "\"runtime\":{"
     << "\"kernel_variant\":\"" << kernel_variant << "\""
     << ",\"numa_nodes\":" << numa_nodes << "},"
     << "\"host\":{"
     << "\"line_bytes\":" << host.line_bytes << ",\"page_bytes\":" << host.page_bytes
     << ",\"l2_bytes\":" << host.l2_bytes << ",\"l2_ways\":" << host.l2_ways
     << ",\"llc_bytes\":" << host.llc_bytes << ",\"workers\":" << host.workers
     << ",\"bucket_ns\":" << util::format_double(host.bucket_ns, 4)
     << ",\"miss_ns_llc\":" << util::format_double(host.miss_ns_llc, 4)
     << ",\"miss_ns_dram\":" << util::format_double(host.miss_ns_dram, 4)
     << ",\"alias_ns\":" << util::format_double(host.alias_ns, 4)
     << ",\"forkjoin_ns\":" << util::format_double(host.forkjoin_ns, 1) << "},"
     << "\"pool\":{"
     << "\"hits\":" << pool_hits << ",\"misses\":" << pool_misses
     << ",\"releases\":" << pool_releases << ",\"trims\":" << pool_trims
     << ",\"acquire_failures\":" << pool_acquire_failures
     << ",\"outstanding_bytes\":" << pool_outstanding_bytes
     << ",\"pooled_bytes\":" << pool_pooled_bytes << "},"
     << "\"phases\":{";
  bool first = true;
  for (Phase p : all_phases()) {
    const PhaseStats& st = phase(p);
    if (!first) os << ",";
    first = false;
    os << "\"" << to_string(p) << "\":{"
       << "\"count\":" << st.count << ",\"ns_sum\":" << st.ns_sum << ",\"p50\":" << st.p50
       << ",\"p95\":" << st.p95 << ",\"max\":" << st.max << "}";
  }
  os << "}}";
  return os.str();
}

util::Table MetricsSnapshot::to_table() const {
  util::Table t({"metric", "value"});
  if (!kernel_variant.empty()) {
    t.add_row({"kernel variant", kernel_variant});
    t.add_row({"numa nodes", util::format_count(numa_nodes)});
    t.add_separator();
  }
  t.add_row({"cache lookups", util::format_count(lookups)});
  t.add_row({"cache hits", util::format_count(hits)});
  t.add_row({"cache misses", util::format_count(misses)});
  t.add_row({"cache hit rate", util::format_double(hit_rate() * 100.0, 1) + " %"});
  t.add_row({"evictions", util::format_count(evictions)});
  t.add_row({"bytes evicted", util::format_bytes(bytes_evicted)});
  t.add_row({"plan builds", util::format_count(plan_builds)});
  t.add_row({"plan build total", format_ns(plan_build_ns_total)});
  t.add_row({"plan build max", format_ns(plan_build_ns_max)});
  t.add_row({"plans sched / S-des / D-des / bucketed",
             util::format_count(plans_scheduled) + " / " + util::format_count(plans_s_designated) +
                 " / " + util::format_count(plans_d_designated) + " / " +
                 util::format_count(plans_bucketed)});
  t.add_separator();
  t.add_row({"requests submitted", util::format_count(submitted)});
  t.add_row({"requests completed", util::format_count(completed)});
  t.add_row({"requests failed", util::format_count(failed)});
  t.add_row({"queue depth high-water", util::format_count(queue_high_water)});
  t.add_row({"execute p50", format_ns(execute_ns_p50)});
  t.add_row({"execute p95", format_ns(execute_ns_p95)});
  t.add_row({"execute max", format_ns(execute_ns_max)});
  t.add_separator();
  t.add_row({"requests rejected", util::format_count(rejected)});
  t.add_row({"requests cancelled", util::format_count(cancelled)});
  t.add_row({"deadline exceeded", util::format_count(deadline_exceeded)});
  t.add_row({"degraded executions", util::format_count(degraded_executions)});
  t.add_row({"plan build retries", util::format_count(build_retries)});
  t.add_separator();
  t.add_row({"batches executed", util::format_count(batches_executed)});
  t.add_row({"batched requests", util::format_count(batched_requests)});
  if (batches_executed > 0) {
    t.add_row({"batch size p50/max", util::format_count(batch_size_p50) + " / " +
                                         util::format_count(batch_size_max)});
  }
  t.add_row({"programs executed", util::format_count(programs_executed)});
  if (programs_executed > 0) {
    t.add_row({"programs fused", util::format_count(programs_fused)});
    t.add_row({"programs identity", util::format_count(programs_identity)});
    t.add_row({"program stages p50/max", util::format_count(program_stages_p50) + " / " +
                                             util::format_count(program_stages_max)});
  }
  t.add_row({"pool hits", util::format_count(pool_hits)});
  t.add_row({"pool misses", util::format_count(pool_misses)});
  t.add_row({"pool releases", util::format_count(pool_releases)});
  if (pool_trims > 0) t.add_row({"pool trims", util::format_count(pool_trims)});
  if (pool_acquire_failures > 0) {
    t.add_row({"pool acquire failures", util::format_count(pool_acquire_failures)});
  }
  t.add_row({"pool outstanding", util::format_bytes(pool_outstanding_bytes)});
  t.add_row({"pool cached", util::format_bytes(pool_pooled_bytes)});
  t.add_separator();
  for (Phase p : all_phases()) {
    const PhaseStats& st = phase(p);
    if (st.count == 0) continue;  // keep the table terse: only phases that ran
    t.add_row({"phase " + std::string(to_string(p)),
               format_ns(st.p50) + " p50 / " + format_ns(st.p95) + " p95 / " +
                   format_ns(st.max) + " max (n=" + util::format_count(st.count) + ")"});
  }
  return t;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  const auto counter = [&os](std::string_view name, std::string_view help, std::uint64_t value) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " counter\n"
       << name << " " << value << "\n";
  };
  counter("hmm_cache_lookups_total", "Plan-cache lookups.", lookups);
  counter("hmm_cache_hits_total", "Plan-cache hits.", hits);
  counter("hmm_cache_misses_total", "Plan-cache misses.", misses);
  counter("hmm_cache_evictions_total", "Plan-cache evictions.", evictions);
  counter("hmm_cache_bytes_evicted_total", "Bytes reclaimed by eviction.", bytes_evicted);
  counter("hmm_plan_builds_total", "Offline plan compiles.", plan_builds);
  os << "# HELP hmm_plans_total Compiled plans by the strategy they resolved to.\n"
     << "# TYPE hmm_plans_total counter\n"
     << "hmm_plans_total{strategy=\"scheduled\"} " << plans_scheduled << "\n"
     << "hmm_plans_total{strategy=\"s-designated\"} " << plans_s_designated << "\n"
     << "hmm_plans_total{strategy=\"d-designated\"} " << plans_d_designated << "\n"
     << "hmm_plans_total{strategy=\"bucketed\"} " << plans_bucketed << "\n";
  counter("hmm_requests_submitted_total", "Requests admitted to the executor.", submitted);
  counter("hmm_requests_completed_total", "Requests executed successfully.", completed);
  counter("hmm_requests_failed_total", "Requests that executed and failed.", failed);
  counter("hmm_requests_rejected_total", "Requests refused at admission.", rejected);
  counter("hmm_requests_cancelled_total", "Requests resolved cancelled.", cancelled);
  counter("hmm_deadline_exceeded_total", "Requests resolved past deadline.", deadline_exceeded);
  counter("hmm_degraded_executions_total", "Requests served by the conventional fallback.",
          degraded_executions);
  counter("hmm_build_retries_total", "Transient plan-build failures retried.", build_retries);
  counter("hmm_batches_executed_total", "Fused same-plan batch sweeps executed.", batches_executed);
  counter("hmm_batched_requests_total", "Requests carried by fused batch sweeps.",
          batched_requests);
  counter("hmm_programs_executed_total", "EXECUTE_PROGRAM requests accepted.", programs_executed);
  counter("hmm_programs_fused_total", "Programs served as one fused composite plan.",
          programs_fused);
  counter("hmm_programs_identity_total", "Programs whose composite folded to the identity.",
          programs_identity);
  counter("hmm_pool_hits_total", "Buffer-pool acquisitions served from the free lists.",
          pool_hits);
  counter("hmm_pool_misses_total", "Buffer-pool acquisitions that hit the allocator.",
          pool_misses);
  counter("hmm_pool_releases_total", "Buffers returned to the pool.", pool_releases);
  counter("hmm_pool_trims_total", "Pooled buffers dropped by cap or explicit trim.",
          pool_trims);
  counter("hmm_pool_acquire_failures_total",
          "Acquisitions refused at the outstanding-bytes cap.", pool_acquire_failures);
  // Byte gauges: outstanding tracks leaks (a steady workload must
  // return to its baseline), pooled tracks the free-list footprint.
  const auto gauge = [&os](std::string_view name, std::string_view help,
                           std::uint64_t value) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " gauge\n"
       << name << " " << value << "\n";
  };
  gauge("hmm_pool_outstanding_bytes", "Bytes currently held by live pooled buffers.",
        pool_outstanding_bytes);
  gauge("hmm_pool_pooled_bytes", "Bytes parked on the pool's free lists.",
        pool_pooled_bytes);
  // Info-style gauge: the active kernel tier as a label, value always
  // 1, so dashboards can attribute latency shifts to the code path.
  if (!kernel_variant.empty()) {
    os << "# HELP hmm_kernel_variant Active CPU kernel tier (info gauge).\n"
       << "# TYPE hmm_kernel_variant gauge\n"
       << "hmm_kernel_variant{variant=\"" << kernel_variant << "\"} 1\n";
  }
  gauge("hmm_numa_nodes", "NUMA nodes the runtime places memory and workers across.",
        numa_nodes);
  // The host cost model behind kAuto: geometry, then the probed costs
  // (zero until a plan first needed them).
  gauge("hmm_host_l2_bytes", "One core's L2, the cache the gather's misses are counted in.",
        host.l2_bytes);
  gauge("hmm_host_llc_bytes", "One core's share of the last-level cache.", host.llc_bytes);
  const auto ns_gauge = [&os](std::string_view name, std::string_view help, double value) {
    os << "# HELP " << name << " " << help << "\n"
       << "# TYPE " << name << " gauge\n"
       << name << " " << util::format_double(value, 4) << "\n";
  };
  ns_gauge("hmm_host_bucket_ns_per_element",
           "Probed bucketed-kernel cost per 4-byte element, both passes.", host.bucket_ns);
  os << "# HELP hmm_host_miss_ns Probed gather cost per L2-missed line.\n"
     << "# TYPE hmm_host_miss_ns gauge\n"
     << "hmm_host_miss_ns{level=\"llc\"} " << util::format_double(host.miss_ns_llc, 4) << "\n"
     << "hmm_host_miss_ns{level=\"dram\"} " << util::format_double(host.miss_ns_dram, 4)
     << "\n";
  ns_gauge("hmm_host_alias_ns", "Probed extra cost per page-aliased L2 miss.", host.alias_ns);
  ns_gauge("hmm_host_forkjoin_ns", "Probed pool fork-join cost.", host.forkjoin_ns);
  // Per-phase digests as summaries. Quantiles come from the log2
  // histogram (factor-of-two resolution); _sum/_count are exact.
  os << "# HELP hmm_phase_duration_seconds Wall time attributed to each serving phase.\n"
     << "# TYPE hmm_phase_duration_seconds summary\n";
  const auto seconds = [](std::uint64_t ns) { return util::format_double(static_cast<double>(ns) / 1e9, 9); };
  for (Phase p : all_phases()) {
    const PhaseStats& st = phase(p);
    const std::string_view label = to_string(p);
    os << "hmm_phase_duration_seconds{phase=\"" << label << "\",quantile=\"0.5\"} "
       << seconds(st.p50) << "\n"
       << "hmm_phase_duration_seconds{phase=\"" << label << "\",quantile=\"0.95\"} "
       << seconds(st.p95) << "\n"
       << "hmm_phase_duration_seconds_sum{phase=\"" << label << "\"} " << seconds(st.ns_sum)
       << "\n"
       << "hmm_phase_duration_seconds_count{phase=\"" << label << "\"} " << st.count << "\n";
  }
  return os.str();
}

}  // namespace hmm::runtime
