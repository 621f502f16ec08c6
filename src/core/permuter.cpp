#include "core/permuter.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <vector>

#include "cpu/kernels.hpp"
#include "util/aligned_vector.hpp"

namespace hmm::core {

std::string_view to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kAuto: return "auto";
    case Strategy::kScheduled: return "scheduled";
    case Strategy::kSDesignated: return "s-designated";
    case Strategy::kDDesignated: return "d-designated";
    case Strategy::kBucketed: return "bucketed";
  }
  return "?";
}

std::optional<Strategy> strategy_from_string(std::string_view name) noexcept {
  for (Strategy s : {Strategy::kAuto, Strategy::kScheduled, Strategy::kSDesignated,
                     Strategy::kDDesignated, Strategy::kBucketed}) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

Strategy gpu_pick(const perm::Permutation& p, const model::MachineParams& machine) {
  const std::uint64_t n = p.size();
  if (!OfflinePermuter<float>::plan_supported(n, machine)) return Strategy::kSDesignated;
  const std::uint64_t t_sched = model::scheduled_time(n, machine);
  const std::uint64_t t_conv =
      model::s_designated_time(n, perm::inverse_distribution(p, machine.width), machine);
  return t_sched < t_conv ? Strategy::kScheduled : Strategy::kSDesignated;
}

HostPick host_pick(const perm::Permutation& pinv, std::size_t elem_bytes,
                   const model::HostParams& host) {
  const std::uint64_t n = pinv.size();
  const std::uint64_t source_bytes = n * elem_bytes;
  HostPick pick;
  if (host.fits_half_l2(source_bytes)) {
    // Each source line is missed about once: the gather streams, and
    // the bucketed kernel's two passes cannot pay off.
    const model::GatherMisses cold{.lines = source_bytes / host.line_bytes};
    pick.conventional_ms = model::conventional_ns(cold, source_bytes, host) * 1e-6;
    return pick;
  }
  pick.misses = model::gather_l2_misses(pinv.data(), elem_bytes, host.source_share(),
                                        util::ThreadPool::global());
  pick.conventional_ms = model::conventional_ns(pick.misses, source_bytes, host) * 1e-6;
  pick.bucketed_ms = model::bucketed_ns(n, elem_bytes, host) * 1e-6;
  pick.strategy = pick.conventional_ms * model::kHostPickMargin < pick.bucketed_ms
                      ? Strategy::kSDesignated
                      : Strategy::kBucketed;
  return pick;
}

namespace {

/// Median wall ns of `reps` calls of `fn`, after one warm-up call.
template <class Fn>
double median_ns(int reps, Fn&& fn) {
  fn();
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const util::Stopwatch clock;
    fn();
    ns.push_back(clock.nanos());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// A bijection on [0, n), n a power of two, that scatters neighbors
/// across the whole range (odd multiplies and xor-shifts are each
/// invertible mod n): a random-looking gather with no generator pass.
std::uint32_t mix(std::uint64_t i, std::uint64_t n, unsigned bits) {
  std::uint64_t x = (i * 0x9e3779b97f4a7c15ull) & (n - 1);
  x ^= x >> (bits / 2 + 1);
  x = (x * 0xbf58476d1ce4e5b9ull) & (n - 1);
  x ^= x >> (bits / 2);
  return static_cast<std::uint32_t>(x);
}

/// Median wall ns of the u32 gather through `pinv`, net of the fork-join.
double gather_ns(std::span<const std::uint32_t> pinv, const model::HostParams& host) {
  util::ThreadPool& pool = util::ThreadPool::global();
  util::aligned_vector<std::uint32_t> a(pinv.size(), 1), b(pinv.size());
  const double ns = median_ns(5, [&] { cpu::gather<std::uint32_t>(pool, a, b, pinv); });
  return std::max(ns - host.forkjoin_ns, 0.0);
}

/// Wall ns per L2-missed line of a random gather over an `n`-element
/// u32 source (n a power of two).
double probe_miss_ns(std::uint64_t n, const model::HostParams& host) {
  const unsigned bits = util::log2_floor(n);
  util::aligned_vector<std::uint32_t> pinv(n);
  util::ThreadPool::global().parallel_for_chunks(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) pinv[i] = mix(i, n, bits);
  });
  const std::span<const std::uint32_t> p(pinv.data(), n);
  const model::GatherMisses m =
      model::gather_l2_misses(p, sizeof(std::uint32_t), host.source_share(),
                               util::ThreadPool::global());
  return gather_ns(p, host) / static_cast<double>(std::max<std::uint64_t>(1, m.lines));
}

/// Extra wall ns per page-aliased miss: a column-walking (transpose)
/// gather over an `n`-element u32 source, less what its misses cost at
/// the LLC level.
double probe_alias_ns(std::uint64_t n, const model::HostParams& host) {
  const std::uint64_t rows = std::uint64_t{1} << (util::log2_floor(n) / 2);
  const std::uint64_t cols = n / rows;
  util::aligned_vector<std::uint32_t> pinv(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    pinv[i] = static_cast<std::uint32_t>((i % rows) * cols + i / rows);
  }
  const std::span<const std::uint32_t> p(pinv.data(), n);
  const model::GatherMisses m =
      model::gather_l2_misses(p, sizeof(std::uint32_t), host.source_share(),
                               util::ThreadPool::global());
  const double rest = gather_ns(p, host) - static_cast<double>(m.lines) * host.miss_ns_llc;
  return std::max(rest, 0.0) / static_cast<double>(std::max<std::uint64_t>(1, m.aliased));
}

/// The once-per-process probe of everything but the DRAM level.
model::HostParams probe_host(const model::HostParams& geometry) {
  util::ThreadPool& pool = util::ThreadPool::global();
  model::HostParams host = geometry;
  host.forkjoin_ns = median_ns(21, [&] {
    pool.parallel_for_chunks(0, std::uint64_t{1} << 20, [](std::uint64_t, std::uint64_t) {});
  });

  // The bucketed kernel streams three arrays, so its rate is probed at
  // the smallest power of two from 1M whose arrays outgrow the LLC
  // share, as they do at the sizes where the pick matters, on a
  // random-looking permutation. (The identity would undercount: its
  // merge reads one stream.)
  std::uint64_t n = std::uint64_t{1} << 20;
  while (3 * sizeof(std::uint32_t) * n < host.llc_bytes) n *= 2;
  const unsigned bits = util::log2_floor(n);
  util::aligned_vector<std::uint32_t> map(n);
  pool.parallel_for_chunks(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) map[i] = mix(i, n, bits);
  });
  const BucketedPlan plan =
      BucketedPlan::build(perm::Permutation(std::move(map)),
                          BucketedPlan::band_for(n, sizeof(std::uint32_t), host.l2_bytes),
                          BucketedPlan::skew_for(sizeof(std::uint32_t)));
  util::aligned_vector<std::uint32_t> a(n, 1), b(n), packed(plan.packed_size());
  const double bucket_total = median_ns(5, [&] {
    (void)bucketed_cpu<std::uint32_t>(pool, plan, a, b, packed);
  });
  host.bucket_ns = std::max(bucket_total - 2 * host.forkjoin_ns, 0.0) / static_cast<double>(n);

  // The LLC level at four times the L2; the alias surcharge at the same size.
  const std::uint64_t llc_probe = std::bit_ceil(4 * host.l2_bytes / sizeof(std::uint32_t));
  host.miss_ns_llc = probe_miss_ns(llc_probe, host);
  host.alias_ns = probe_alias_ns(llc_probe, host);
  return host;
}

}  // namespace

namespace {

const model::HostParams& geometry() {
  static const model::HostParams host = model::host_geometry(util::ThreadPool::global().size());
  return host;
}

// Each probe publishes its result with a release store of its flag, so
// host_params_so_far can read without joining the once_flag.
std::once_flag g_probed, g_dram_probed;
model::HostParams g_costs;
double g_dram_ns = 0;
std::atomic<bool> g_costs_ready{false}, g_dram_ready{false};

}  // namespace

model::HostParams host_params(std::uint64_t source_bytes) {
  if (geometry().fits_half_l2(source_bytes)) return geometry();
  std::call_once(g_probed, [] {
    g_costs = probe_host(geometry());
    g_costs_ready.store(true, std::memory_order_release);
  });
  model::HostParams host = g_costs;
  if (host.past_llc(source_bytes)) {
    std::call_once(g_dram_probed, [&host] {
      g_dram_ns = probe_miss_ns(std::bit_ceil(2 * host.llc_bytes / sizeof(std::uint32_t)), host);
      g_dram_ready.store(true, std::memory_order_release);
    });
    host.miss_ns_dram = g_dram_ns;
  }
  return host;
}

model::HostParams host_params_so_far() {
  if (!g_costs_ready.load(std::memory_order_acquire)) return geometry();
  model::HostParams host = g_costs;
  if (g_dram_ready.load(std::memory_order_acquire)) host.miss_ns_dram = g_dram_ns;
  return host;
}

}  // namespace hmm::core
