#include "core/bucketed.hpp"

#include <algorithm>
#include <bit>

#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "util/check.hpp"

namespace hmm::core {

namespace {

/// Boundaries of `parts` near-equal contiguous pieces of [0, n).
std::vector<std::uint64_t> even_bounds(std::uint64_t n, std::uint64_t parts) {
  std::vector<std::uint64_t> bounds(parts + 1);
  for (std::uint64_t c = 0; c <= parts; ++c) bounds[c] = c * n / parts;
  return bounds;
}

bool is_bounds(std::span<const std::uint64_t> bounds, std::uint64_t n) {
  return bounds.size() >= 2 && bounds.front() == 0 && bounds.back() == n &&
         std::is_sorted(bounds.begin(), bounds.end());
}

}  // namespace

template <class PackIndex>
GroupCounts group_tables(const perm::Permutation& p, std::span<const std::uint64_t> bands,
                         std::span<const std::uint64_t> chunks, std::uint64_t skew,
                         MergeInto into, std::span<PackIndex> pack,
                         std::span<std::uint32_t> merge, const perm::Permutation* pinv) {
  const std::uint64_t n = p.size();
  HMM_CHECK(is_bounds(bands, n) && is_bounds(chunks, n));
  HMM_CHECK(bands.size() - 1 <= kMaxBands);
  HMM_CHECK(pack.size() == n && merge.size() == n);
  const std::optional<perm::Permutation> own = pinv ? std::nullopt : std::optional(p.inverse());
  const std::span<const std::uint32_t> inv = (pinv ? *pinv : *own).data();
  HMM_CHECK(inv.size() == n);
  const std::size_t band_count = bands.size() - 1;
  const std::size_t chunk_count = chunks.size() - 1;
  util::ThreadPool& pool = util::ThreadPool::global();

  // Source i's band: a division when all bands but a shorter last one
  // are `width` long (the plan's), else a search (a shard split's few).
  const std::uint64_t width = bands[1];
  bool uniform = n <= band_count * width;
  for (std::size_t s = 0; s < band_count; ++s) uniform &= bands[s] == s * width;
  const auto band_of = [&](std::uint64_t i) -> std::size_t {
    if (uniform) return i / width;
    return static_cast<std::size_t>(std::upper_bound(bands.begin(), bands.end(), i) -
                                    bands.begin() - 1);
  };

  // Pass 1, one task per chunk: how many of each band's elements land in it.
  GroupCounts counts(chunk_count, std::vector<std::uint64_t>(band_count, 0));
  pool.parallel_for(0, chunk_count, [&](std::uint64_t c) {
    std::vector<std::uint64_t>& row = counts[c];
    for (std::uint64_t j = chunks[c]; j < chunks[c + 1]; ++j) ++row[band_of(inv[j])];
  });

  // Where each band's group for each chunk starts in its packed region:
  // after its groups for the chunks before.
  GroupCounts at(chunk_count, std::vector<std::uint64_t>(band_count));
  for (std::size_t s = 0; s < band_count; ++s) {
    std::uint64_t k = bands[s];
    for (std::size_t c = 0; c < chunk_count; ++c) {
      at[c][s] = k;
      k += counts[c][s];
    }
  }

  // Pass 2, one task per chunk, in destination order: each group fills
  // in destination order, and each merge entry names the next slot of
  // its band's group.
  pool.parallel_for(0, chunk_count, [&](std::uint64_t c) {
    std::vector<std::uint64_t>& next = at[c];
    std::vector<std::uint64_t> received(band_count);
    std::uint64_t offset = 0;
    for (std::size_t s = 0; s < band_count; ++s) {
      received[s] = offset;
      offset += counts[c][s];
    }
    for (std::uint64_t j = chunks[c]; j < chunks[c + 1]; ++j) {
      const std::uint32_t i = inv[j];
      const std::size_t s = band_of(i);
      const std::uint64_t k = next[s]++;
      pack[k] = static_cast<PackIndex>(i - bands[s]);
      merge[j] = static_cast<std::uint32_t>(into == MergeInto::kPacked ? k + s * skew
                                                                       : received[s]++);
    }
  });
  return counts;
}

template GroupCounts group_tables<std::uint16_t>(const perm::Permutation&,
                                                 std::span<const std::uint64_t>,
                                                 std::span<const std::uint64_t>, std::uint64_t,
                                                 MergeInto, std::span<std::uint16_t>,
                                                 std::span<std::uint32_t>,
                                                 const perm::Permutation*);
template GroupCounts group_tables<std::uint32_t>(const perm::Permutation&,
                                                 std::span<const std::uint64_t>,
                                                 std::span<const std::uint64_t>, std::uint64_t,
                                                 MergeInto, std::span<std::uint32_t>,
                                                 std::span<std::uint32_t>,
                                                 const perm::Permutation*);

std::uint64_t BucketedPlan::band_for(std::uint64_t n, std::size_t elem_bytes,
                                     std::uint64_t l2_bytes) {
  const std::uint64_t fill = std::bit_floor(std::max<std::uint64_t>(1, l2_bytes / 32 / elem_bytes));
  const std::uint64_t fewest = (n + kMaxBands - 1) / kMaxBands;
  return std::max(std::clamp<std::uint64_t>(fill, 256, 65536), fewest);
}

BucketedPlan BucketedPlan::build(const perm::Permutation& p, std::uint64_t band,
                                 std::uint64_t skew, const perm::Permutation* pinv) {
  const std::uint64_t n = p.size();
  HMM_CHECK_MSG(band >= 1 && band <= 65536, "bucketed band must be 1..65536 elements");
  const std::uint64_t band_count = std::max<std::uint64_t>(1, (n + band - 1) / band);
  HMM_CHECK_MSG(band_count <= kMaxBands, "bucketed plan needs at most 65536 bands");
  BucketedPlan plan;
  plan.band_ = band;
  plan.skew_ = skew;
  HMM_CHECK_MSG(plan.skew_ * (band_count - 1) + n < (std::uint64_t{1} << 32),
                "bucketed packed array must stay below 2^32 elements");
  plan.pack_.resize(n);
  plan.merge_.resize(n);
  std::vector<std::uint64_t> bands(band_count + 1);
  for (std::uint64_t s = 0; s <= band_count; ++s) bands[s] = std::min(s * band, n);
  // Enough chunks to balance the pool, few enough that the counts stay small.
  const std::uint64_t chunks =
      std::min<std::uint64_t>(band_count, 4 * util::ThreadPool::global().size());
  (void)group_tables<std::uint16_t>(p, bands, even_bounds(n, chunks), skew, MergeInto::kPacked,
                                    std::span<std::uint16_t>(plan.pack_.data(), n),
                                    std::span<std::uint32_t>(plan.merge_.data(), n), pinv);
  return plan;
}

std::array<perm::Permutation, 2> BucketedPlan::gathers() const {
  const std::uint64_t n = size();
  const std::uint64_t region = band_ + skew_;
  util::aligned_vector<std::uint32_t> pack(n), merge(n);
  util::ThreadPool::global().parallel_for_chunks(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t k = lo; k < hi; ++k) {
      pack[k] = static_cast<std::uint32_t>(k / band_ * band_ + pack_[k]);
      merge[k] = static_cast<std::uint32_t>(merge_[k] - merge_[k] / region * skew_);
    }
  });
  return {perm::Permutation(std::move(pack)), perm::Permutation(std::move(merge))};
}

std::uint64_t bucketed_time(const BucketedPlan& plan, const model::MachineParams& machine,
                            std::uint32_t words) {
  const std::uint32_t group = std::max<std::uint32_t>(1, machine.width / words);
  std::uint64_t t = 0;
  for (const perm::Permutation& g : plan.gathers()) {
    t += model::s_designated_time(plan.size(), perm::distribution_groups(g, machine.width, group),
                                  machine, words);
  }
  return t;
}

}  // namespace hmm::core
