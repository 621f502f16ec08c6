#pragma once
/// \file host.hpp
/// \brief The HMM instantiated for the host CPU: what a conventional
///        gather and the bucketed kernel cost on this machine.
///
/// The paper charges the casual round of S-designated d_w(P⁻¹)
/// pipeline stages, where w is the UMM's address-group width. On a CPU
/// the address group is a cache line (w = line bytes / element bytes),
/// and a line the gather already holds in the core's L2 costs about as
/// little as a coalesced access. So the host's distribution is the
/// number of source lines the gather *misses* in L2: `gather_l2_misses`
/// replays each worker's contiguous chunk of the gather through an LRU
/// model of the share of that worker's L2 the source keeps
/// (`HostParams::source_share`). Two permutations with d_w = n (random
/// and transpose at 1M) then separate: random re-touches lines that
/// are still resident, while transpose's power-of-two column stride
/// thrashes a handful of sets and misses on every element.
///
/// A miss costs what the level behind L2 charges: the LLC while the
/// source fits one core's share of it, DRAM past that. A miss whose
/// address sits a whole number of pages from the previous access pays
/// an extra `alias_ns`: the L1 is indexed within the page, so such a
/// stream (bit-reversal, transpose) piles every lane of a vector gather
/// into one L1 set, and the same power-of-two stride collides in the
/// sets behind it.
///
/// The bucketed kernel (core/bucketed.hpp) is modeled by one measured
/// rate per element: its pack reads inside an L2-resident band and its
/// merge reads one in-order stream per band, so neither pass misses
/// with the permutation the way the gather does. Both sides pay the
/// pool's fork-join: once for the gather, twice for the bucketed
/// kernel's two passes.
///
/// `HostParams` carries both the geometry (read from sysconf/sysfs)
/// and the measured costs; `core::host_params` fills the costs with a
/// once-per-process probe, and tests build literal values.

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/thread_pool.hpp"

namespace hmm::model {

/// The host machine as the kAuto cost model sees it.
struct HostParams {
  // Geometry.
  std::uint32_t line_bytes = 64;         ///< the address group
  std::uint32_t page_bytes = 4096;       ///< the span an L1 set index covers
  std::uint64_t l2_bytes = 1ull << 20;   ///< one core's L2
  std::uint32_t l2_ways = 16;
  std::uint64_t llc_bytes = 8ull << 20;  ///< one core's share of the last-level cache
  std::uint32_t workers = 1;             ///< chunks a gather is split into (pool size)

  // Costs (ns of wall time; zero until probed).
  double bucket_ns = 0;     ///< bucketed kernel, per 4-byte element, both passes
  double miss_ns_llc = 0;   ///< gather, per L2-missed line, source within the LLC share
  double miss_ns_dram = 0;  ///< gather, per L2-missed line, source past the LLC share
  double alias_ns = 0;      ///< extra per miss a whole number of pages from the last access
  double forkjoin_ns = 0;   ///< one pool fork-join

  /// True when a `source_bytes` source fits its share of one core's L2
  /// (`source_share`): a gather over it then misses each line about
  /// once, whatever the order.
  [[nodiscard]] bool fits_half_l2(std::uint64_t source_bytes) const noexcept {
    return 2 * source_bytes <= l2_bytes;
  }
  /// The L2 a gather's source keeps: half the ways of the same sets. The
  /// gather's index and output streams and the hardware prefetcher hold
  /// the rest, so a source as large as the L2 thrashes it where an LRU
  /// model of the whole L2 sees only cold misses (transpose at 512K u32).
  [[nodiscard]] HostParams source_share() const noexcept {
    HostParams share = *this;
    share.l2_bytes /= 2;
    share.l2_ways = l2_ways > 1 ? l2_ways / 2 : 1;
    return share;
  }
  /// True when a `source_bytes` source is past the LLC share (the DRAM level).
  [[nodiscard]] bool past_llc(std::uint64_t source_bytes) const noexcept {
    return source_bytes > llc_bytes;
  }
  /// The per-miss cost at the memory level a `source_bytes` source sits in.
  [[nodiscard]] double miss_ns(std::uint64_t source_bytes) const noexcept {
    return past_llc(source_bytes) ? miss_ns_dram : miss_ns_llc;
  }
};

/// The calling machine's cache geometry (sysconf, then sysfs, then the
/// struct defaults), with `workers` chunks per gather and zero costs.
/// `llc_bytes` is the LLC's size over the CPUs that share it.
HostParams host_geometry(std::uint32_t workers);

/// What the gather's source stream does to one core's L2.
struct GatherMisses {
  std::uint64_t lines = 0;    ///< L2 misses
  std::uint64_t aliased = 0;  ///< of which a whole number of pages from the previous access
  friend bool operator==(const GatherMisses&, const GatherMisses&) = default;
};

/// L2 misses of the gather b[i] = a[pinv[i]] over `elem_bytes`-byte
/// elements: worker c of `host.workers` runs the contiguous chunk
/// [c·n/W, (c+1)·n/W) on a cold, `l2_ways`-way LRU cache of `l2_bytes`
/// with `line_bytes` lines, and the result is the sum over workers.
/// Deterministic; the chunks are simulated in parallel on `pool`.
GatherMisses gather_l2_misses(std::span<const std::uint32_t> pinv, std::size_t elem_bytes,
                              const HostParams& host, util::ThreadPool& pool);

/// Predicted wall ns of a conventional gather over a `source_bytes`
/// source: lines · miss_ns(level) + aliased · alias_ns + one fork-join.
double conventional_ns(const GatherMisses& misses, std::uint64_t source_bytes,
                       const HostParams& host) noexcept;

/// Predicted wall ns of the bucketed kernel on n `elem_bytes`-byte
/// elements: the probed rate scaled by the bytes its two passes move
/// per element (each reads and writes the data; the pack reads a u16
/// entry, the merge a u32), plus two fork-joins.
double bucketed_ns(std::uint64_t n, std::size_t elem_bytes, const HostParams& host) noexcept;

/// kAuto leaves the bucketed kernel only when the gather is predicted
/// faster by more than this factor: the largest factor by which the
/// model underpredicted the gather on the `bench_table2 --extended`
/// grid (DESIGN.md §2.2).
inline constexpr double kHostPickMargin = 1.3;

}  // namespace hmm::model
