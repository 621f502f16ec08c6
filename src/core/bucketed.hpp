#pragma once
/// \file bucketed.hpp
/// \brief The bucketed permutation, kAuto's large-n host kernel: two
///        gathers through skewed buckets, and the O(n) counting compile
///        it shares with the distributed exchange (runtime/distributed.hpp).
///
/// With the source split into bands of B elements, b = P(a) is
///   1. pack, `packed = a[pack]`: each band gathered into its own region
///      in destination order, reading at random only inside the band
///      (which sits in a core's L2) and writing in order;
///   2. merge, `b = packed[merge]`: writing in order and reading one
///      in-order stream per band.
/// This is Aggarwal and Vitter's one-distribution-pass permutation,
/// which Afshani and Sitchinava carry to the GPU's memory model. Band
/// b's region starts at b·(B + skew), one 64 B line of skew per band:
/// unskewed, the merge streams start a power-of-two stride apart and
/// share cache sets. It is the paper's diagonal arrangement
/// a[i][j] → s[i][(i+j) mod w] moved from the banks to the cache sets.
/// The tables cost 6 B per element (a u16 pack entry, a u32 merge entry).
///
/// On the paper's UMM the two gathers lose to the scheduled algorithm
/// wherever merge groups are short: with no cache to hold a band's
/// partial lines, a merge group shorter than w elements is a casual
/// read (`bucketed_time`).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/scheduled.hpp"
#include "cpu/kernels.hpp"
#include "model/machine.hpp"
#include "perm/permutation.hpp"
#include "util/aligned_vector.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {

/// Most bands `group_tables` takes: it keeps a count per band per chunk.
inline constexpr std::uint64_t kMaxBands = std::uint64_t{1} << 16;

/// What `group_tables` makes a merge entry index.
enum class MergeInto {
  kPacked,    ///< the packed array, band s's region starting at bands[s] + s·skew
  kReceived,  ///< the destination chunk's own buffer: the groups for it, in band order
};

/// counts[c][s]: how many elements of source band s land in destination chunk c.
using GroupCounts = std::vector<std::vector<std::uint64_t>>;

/// The counting compile of the two gathers for `p`: two linear passes
/// over `pinv` = P⁻¹ (`p.inverse()` when null) on the global pool, each
/// chunk split so that the pool has at least four tasks per worker.
/// `bands` (at most kMaxBands) and `chunks` are boundary lists over
/// [0, n), first 0 and last n: the source bands, and the destination
/// chunks that split the counts. Band s's packed region holds its
/// elements in destination order, one group per chunk. `pack[s][k]` is
/// the index inside band s of its region's k-th element; `merge[c][j]`
/// is where the element landing at chunks[c] + j sits, in the space
/// `into` names (with kReceived, chunk c's buffer holds band 0's group
/// for c, then band 1's, ...). Each table is written where the caller
/// keeps it, so a band's tables need no copy to wherever they go next.
template <class PackIndex>
GroupCounts group_tables(const perm::Permutation& p, std::span<const std::uint64_t> bands,
                         std::span<const std::uint64_t> chunks, std::uint64_t skew,
                         MergeInto into, std::span<PackIndex* const> pack,
                         std::span<std::uint32_t* const> merge,
                         const perm::Permutation* pinv = nullptr);

/// A compiled bucketed permutation: the band length, the skew, and the
/// two gather tables.
class BucketedPlan {
 public:
  /// Band elements for `elem_bytes`-byte elements and `l2_bytes` of L2:
  /// the largest power of two filling at most 1/32 of the L2 (16K u32 at
  /// 2 MiB; EXPERIMENTS.md has the sweep), within [256, 65536] (u16 pack
  /// entries) and long enough that n needs at most kMaxBands bands.
  [[nodiscard]] static std::uint64_t band_for(std::uint64_t n, std::size_t elem_bytes,
                                              std::uint64_t l2_bytes);

  /// Skew of `elem_bytes`-byte elements: one 64 B line, at least one element.
  [[nodiscard]] static std::uint64_t skew_for(std::size_t elem_bytes) noexcept {
    return elem_bytes >= 64 ? 1 : 64 / elem_bytes;
  }

  /// Compile `p` with bands of `band` elements (at most 65536, and at
  /// most kMaxBands bands) and `skew` elements between regions.
  [[nodiscard]] static BucketedPlan build(const perm::Permutation& p, std::uint64_t band,
                                          std::uint64_t skew,
                                          const perm::Permutation* pinv = nullptr);

  [[nodiscard]] std::uint64_t size() const noexcept { return merge_.size(); }
  [[nodiscard]] std::uint64_t band() const noexcept { return band_; }
  [[nodiscard]] std::uint64_t skew() const noexcept { return skew_; }
  /// Elements of the packed array: every band's region, skew gaps included.
  [[nodiscard]] std::uint64_t packed_size() const noexcept {
    const std::uint64_t n = size();
    return n == 0 ? 0 : n + (n - 1) / band_ * skew_;
  }

  [[nodiscard]] std::span<const std::uint16_t> pack() const noexcept { return pack_; }
  [[nodiscard]] std::span<const std::uint32_t> merge() const noexcept { return merge_; }
  /// Bytes of the two tables (6 per element).
  [[nodiscard]] std::uint64_t table_bytes() const noexcept {
    return pack_.size() * sizeof(std::uint16_t) + merge_.size() * sizeof(std::uint32_t);
  }

  /// The two passes as gathers over n-element arrays, for the paper's
  /// model: pass 1 with its band offsets added, pass 2 without the skew.
  [[nodiscard]] std::array<perm::Permutation, 2> gathers() const;

 private:
  BucketedPlan() = default;

  std::uint64_t band_ = 1;
  std::uint64_t skew_ = 0;
  util::aligned_vector<std::uint16_t> pack_;
  util::aligned_vector<std::uint32_t> merge_;
};

/// The paper's time for the two passes on `machine`: Lemma 4's
/// S-designated time on each of `plan.gathers()`, with `words`-word
/// elements.
std::uint64_t bucketed_time(const BucketedPlan& plan, const model::MachineParams& machine,
                            std::uint32_t words = 1);

/// Pass 1 of `plan`: packed = a[pack], through `packed`
/// (`plan.packed_size()` elements).
template <class T>
void bucketed_pack(util::ThreadPool& pool, const BucketedPlan& plan, std::span<const T> a,
                   std::span<T> packed) {
  cpu::bucket_sweep<T>(pool, a, packed, plan.band(), plan.band() + plan.skew(), plan.pack());
}

/// Pass 2 of `plan`: b = packed[merge].
template <class T>
void bucketed_merge(util::ThreadPool& pool, const BucketedPlan& plan, std::span<const T> packed,
                    std::span<T> b) {
  cpu::gather<T>(pool, packed, b, plan.merge());
}

/// b = P(a) through `packed` (`plan.packed_size()` elements), as two
/// kernels: `gate` is consulted between them, and `observer` reports
/// pass 1 as kernel 0 and pass 2 as `kConventionalKernel`. Returns
/// false when the gate stops the run; `b` then holds garbage.
template <class T>
bool bucketed_cpu(util::ThreadPool& pool, const BucketedPlan& plan, std::span<const T> a,
                  std::span<T> b, std::span<T> packed, const PhaseGate& gate = {},
                  const KernelObserver& observer = {}) {
  HMM_CHECK(a.size() == plan.size() && b.size() == plan.size());
  HMM_CHECK_MSG(packed.size() >= plan.packed_size(), "bucketed scratch is too short");
  packed = packed.first(plan.packed_size());
  util::Stopwatch clock;
  bucketed_pack<T>(pool, plan, a, packed);
  if (observer) {
    observer(0, static_cast<std::uint64_t>(clock.nanos()));
    clock.reset();
  }
  if (gate && !gate()) return false;
  bucketed_merge<T>(pool, plan, packed, b);
  if (observer) observer(kConventionalKernel, static_cast<std::uint64_t>(clock.nanos()));
  return true;
}

}  // namespace hmm::core
