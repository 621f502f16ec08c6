/// \file sorting_network.cpp
/// \brief Domain example: Batcher's bitonic sorting network, whose
///        stages interleave compare-exchange with *shuffle-family
///        permutations* (paper, Section I: "sorting networks such as
///        bitonic sorting also involve permutation in each stage").
///
/// Two implementations are checked against each other and std::sort:
///   1. the classic index-arithmetic bitonic sort, and
///   2. a "network" variant whose data movement between stages is
///      performed by the library's offline-permutation executors —
///      demonstrating plan reuse: each distinct stage permutation is
///      compiled once and reused across all data.
///
/// Run: ./sorting_network [--n 64K]

#include <algorithm>
#include <iostream>
#include <map>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace hmm;

/// Classic in-place bitonic sort (ascending), n a power of two.
void bitonic_reference(std::vector<float>& v) {
  const std::uint64_t n = v.size();
  for (std::uint64_t k = 2; k <= n; k <<= 1) {
    for (std::uint64_t j = k >> 1; j > 0; j >>= 1) {
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t l = i ^ j;
        if (l > i) {
          const bool up = (i & k) == 0;
          if ((up && v[i] > v[l]) || (!up && v[i] < v[l])) std::swap(v[i], v[l]);
        }
      }
    }
  }
}

/// Network variant: every stage first *permutes* the array so each
/// compare-exchange partner pair becomes adjacent (a fixed, data-
/// independent permutation — exactly the offline setting), then does a
/// linear adjacent compare-exchange sweep, then permutes back.
///
/// The stage permutation for distance j pairs (i, i^j): sort indices by
/// (pair-id, position-in-pair). For j it is the "swap bit log2(j) to
/// bit 0" permutation — a shuffle relative of the paper's families.
perm::Permutation stage_permutation(std::uint64_t n, std::uint64_t j) {
  util::aligned_vector<std::uint32_t> map(n);
  const std::uint64_t bit = j;  // power of two
  for (std::uint64_t i = 0; i < n; ++i) {
    // Remove bit log2(j) from i, append it as the LSB.
    const std::uint64_t low = i & (bit - 1);
    const std::uint64_t high = (i >> 1) & ~(bit - 1);
    const std::uint64_t b = (i & bit) ? 1 : 0;
    // destination index: pair id in the high bits, partner bit last.
    map[i] = static_cast<std::uint32_t>(((high | low) << 1) | b);
  }
  return perm::Permutation(std::move(map));
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 64 << 10);

  util::ThreadPool pool;
  util::Xoshiro256 rng(3);
  std::vector<float> data(n);
  for (auto& v : data) v = static_cast<float>(rng.uniform01());

  // Reference results.
  std::vector<float> ref = data;
  util::Stopwatch sw;
  bitonic_reference(ref);
  const double ms_classic = sw.millis();
  std::vector<float> expected = data;
  std::sort(expected.begin(), expected.end());
  const bool classic_ok = ref == expected;
  std::cout << "classic bitonic sort: " << util::format_ms(ms_classic) << " ms, correct: "
            << (classic_ok ? "yes" : "NO") << "\n";

  // Network variant with library-powered stage permutations.
  // Compile each distinct stage permutation once (there are log2(n)).
  std::map<std::uint64_t, perm::Permutation> stage_perm;
  std::map<std::uint64_t, perm::Permutation> stage_inv;
  sw.reset();
  for (std::uint64_t j = 1; j < n; j <<= 1) {
    auto p = stage_permutation(n, j);
    stage_inv.emplace(j, p.inverse());
    stage_perm.emplace(j, std::move(p));
  }
  std::cout << "compiled " << stage_perm.size() << " stage permutations in "
            << util::format_ms(sw.millis()) << " ms (reused across all stages/data)\n";

  util::aligned_vector<float> cur(data.begin(), data.end()), tmp(n);
  sw.reset();
  for (std::uint64_t k = 2; k <= n; k <<= 1) {
    for (std::uint64_t j = k >> 1; j > 0; j >>= 1) {
      const auto& p = stage_perm.at(j);
      const auto& pinv = stage_inv.at(j);
      // Gather partners adjacent, compare-exchange linearly, scatter back.
      core::s_designated_cpu<float>(pool, cur, tmp, pinv);
      for (std::uint64_t i = 0; i < n; i += 2) {
        // tmp[i], tmp[i+1] are partners (orig indices i0 < i0^j).
        const std::uint64_t orig = pinv(i);
        const bool up = (orig & k) == 0;
        if ((up && tmp[i] > tmp[i + 1]) || (!up && tmp[i] < tmp[i + 1])) {
          std::swap(tmp[i], tmp[i + 1]);
        }
      }
      core::s_designated_cpu<float>(pool, tmp, cur, p);
    }
  }
  const double ms_network = sw.millis();
  const bool ok = std::equal(cur.begin(), cur.end(), expected.begin());
  std::cout << "network bitonic sort (library permutations): " << util::format_ms(ms_network)
            << " ms, correct: " << (ok ? "yes" : "NO") << "\n";
  std::cout << "(the permuted variant trades arithmetic index math for data movement —\n"
            << " on the HMM each stage becomes two offline permutations + one coalesced\n"
            << " sweep, which is how sorting networks map onto the model.)\n";
  return classic_ok && ok ? 0 : 1;
}
