#include "core/bucketed.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "util/check.hpp"

namespace hmm::core {

namespace {

bool is_bounds(std::span<const std::uint64_t> bounds, std::uint64_t n) {
  return bounds.size() >= 2 && bounds.front() == 0 && bounds.back() == n &&
         std::is_sorted(bounds.begin(), bounds.end());
}

}  // namespace

template <class PackIndex>
GroupCounts group_tables(const perm::Permutation& p, std::span<const std::uint64_t> bands,
                         std::span<const std::uint64_t> chunks, std::uint64_t skew,
                         MergeInto into, std::span<PackIndex* const> pack,
                         std::span<std::uint32_t* const> merge, const perm::Permutation* pinv) {
  const std::uint64_t n = p.size();
  HMM_CHECK(is_bounds(bands, n) && is_bounds(chunks, n));
  HMM_CHECK(bands.size() - 1 <= kMaxBands);
  HMM_CHECK(pack.size() == bands.size() - 1 && merge.size() == chunks.size() - 1);
  const std::optional<perm::Permutation> own = pinv ? std::nullopt : std::optional(p.inverse());
  const std::span<const std::uint32_t> inv = (pinv ? *pinv : *own).data();
  HMM_CHECK(inv.size() == n);
  const std::size_t band_count = bands.size() - 1;
  const std::size_t chunk_count = chunks.size() - 1;
  util::ThreadPool& pool = util::ThreadPool::global();

  // Source i's band: a division when all bands but a shorter last one
  // are `width` long (the plan's), else a branchless compare chain over
  // the bounds (a shard split's few).
  const std::uint64_t width = bands[1];
  bool uniform = n <= band_count * width;
  for (std::size_t s = 0; s < band_count; ++s) uniform &= bands[s] == s * width;
  const auto band_of = [&](std::uint64_t i) -> std::size_t {
    if (uniform) return i / width;
    std::size_t s = 0;
    for (std::size_t b = 1; b < band_count; ++b) s += i >= bands[b];
    return s;
  };

  // Each chunk splits into `split` sub-chunks, so that the two passes
  // have at least four tasks per worker however few the chunks are.
  const std::uint64_t split = (4 * pool.size() + chunk_count - 1) / chunk_count;
  const std::uint64_t subs = chunk_count * split;
  std::vector<std::uint64_t> sub(subs + 1, n);
  for (std::uint64_t q = 0; q < subs; ++q) {
    const std::uint64_t c = q / split;
    sub[q] = chunks[c] + (chunks[c + 1] - chunks[c]) * (q % split) / split;
  }

  // Pass 1, one task per sub-chunk: how many of each band's elements land in it.
  GroupCounts at(subs, std::vector<std::uint64_t>(band_count, 0));
  pool.parallel_for(0, subs, [&](std::uint64_t q) {
    std::vector<std::uint64_t>& row = at[q];
    for (std::uint64_t j = sub[q]; j < sub[q + 1]; ++j) ++row[band_of(inv[j])];
  });

  // The counts become offsets: band s's group for sub-chunk q starts at
  // `at[q][s]` in the band's packed region, after its groups for the
  // sub-chunks before. Adding `shift[c][s]` to a slot of band s's group
  // for chunk c makes its merge entry: past the bands before and their
  // skews, or into the chunk's received buffer (band 0's group for it,
  // then band 1's, ...).
  GroupCounts counts(chunk_count, std::vector<std::uint64_t>(band_count, 0));
  for (std::size_t s = 0; s < band_count; ++s) {
    for (std::uint64_t q = 0, k = 0; q < subs; ++q) {
      counts[q / split][s] += at[q][s];
      k += std::exchange(at[q][s], k);
    }
  }
  GroupCounts shift(chunk_count, std::vector<std::uint64_t>(band_count));
  for (std::size_t c = 0; c < chunk_count; ++c) {
    std::uint64_t received = 0;
    for (std::size_t s = 0; s < band_count; ++s) {
      shift[c][s] =
          into == MergeInto::kPacked ? bands[s] + s * skew : received - at[c * split][s];
      received += counts[c][s];
    }
  }

  // Pass 2, one task per sub-chunk, in destination order: each group
  // fills in destination order, and each merge entry names the next
  // slot of its band's group.
  pool.parallel_for(0, subs, [&](std::uint64_t q) {
    std::vector<std::uint64_t>& next = at[q];
    const std::uint64_t c = q / split;
    const std::vector<std::uint64_t>& add = shift[c];
    for (std::uint64_t j = sub[q]; j < sub[q + 1]; ++j) {
      const std::uint32_t i = inv[j];
      const std::size_t s = band_of(i);
      const std::uint64_t k = next[s]++;
      pack[s][k] = static_cast<PackIndex>(i - bands[s]);
      merge[c][j - chunks[c]] = static_cast<std::uint32_t>(k + add[s]);
    }
  });
  return counts;
}

template GroupCounts group_tables<std::uint16_t>(const perm::Permutation&,
                                                 std::span<const std::uint64_t>,
                                                 std::span<const std::uint64_t>, std::uint64_t,
                                                 MergeInto, std::span<std::uint16_t* const>,
                                                 std::span<std::uint32_t* const>,
                                                 const perm::Permutation*);
template GroupCounts group_tables<std::uint32_t>(const perm::Permutation&,
                                                 std::span<const std::uint64_t>,
                                                 std::span<const std::uint64_t>, std::uint64_t,
                                                 MergeInto, std::span<std::uint32_t* const>,
                                                 std::span<std::uint32_t* const>,
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
  // One chunk: group_tables splits it to balance the pool. Band s's
  // region starts at pack_[bands[s]].
  const std::uint64_t whole[] = {0, n};
  std::vector<std::uint16_t*> packs;
  for (std::uint64_t s = 0; s < band_count; ++s) packs.push_back(plan.pack_.data() + bands[s]);
  std::uint32_t* const merge[] = {plan.merge_.data()};
  (void)group_tables<std::uint16_t>(p, bands, whole, skew, MergeInto::kPacked,
                                    std::span<std::uint16_t* const>(packs), merge, pinv);
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
