#include "core/row_schedule.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hmm::core {

void build_row_schedule(std::span<const std::uint16_t> g, std::uint32_t width,
                        std::span<std::uint16_t> phat, std::span<std::uint16_t> q,
                        graph::ColoringAlgorithm algo) {
  const std::uint64_t len = g.size();
  HMM_CHECK(phat.size() == len && q.size() == len);
  HMM_CHECK_MSG(len % width == 0 && len >= width, "row length must be a multiple of width");

  // Bank multigraph: edge per position j from source bank (j mod w) to
  // destination bank (g(j) mod w); regular of degree len/w.
  graph::BipartiteMultigraph bank_graph(width, width);
  bank_graph.reserve(len);
  for (std::uint64_t j = 0; j < len; ++j) {
    bank_graph.add_edge(static_cast<std::uint32_t>(j & (width - 1)),
                        static_cast<std::uint32_t>(g[j] & (width - 1)));
  }
  const graph::EdgeColoring coloring = graph::color_edges(bank_graph, algo);
  HMM_DCHECK(coloring.colors == len / width);

  // Color t's w edges form a perfect matching on banks: exactly one
  // position per source bank. Slot (t, k) of the schedule gets the
  // position whose source bank is k.
  for (std::uint64_t j = 0; j < len; ++j) {
    const std::uint32_t t = coloring.color[j];
    const std::uint64_t k = j & (width - 1);
    const std::uint64_t slot = static_cast<std::uint64_t>(t) * width + k;
    HMM_DCHECK(slot < len);
    phat[slot] = static_cast<std::uint16_t>(j);
    q[slot] = g[j];
  }
}

RowScheduleSet build_row_schedules(std::span<const std::uint16_t> g, std::uint64_t rows,
                                   std::uint64_t cols, std::uint32_t width,
                                   graph::ColoringAlgorithm algo) {
  HMM_CHECK(g.size() == rows * cols);
  RowScheduleSet set;
  set.rows = rows;
  set.cols = cols;
  set.phat.resize(rows * cols);
  set.q.resize(rows * cols);
  // Rows write disjoint output slices and each coloring is
  // deterministic, so the result does not depend on the thread count.
  util::ThreadPool::global().parallel_for(0, rows, [&](std::uint64_t r) {
    build_row_schedule(g.subspan(r * cols, cols), width,
                       {set.phat.data() + r * cols, cols}, {set.q.data() + r * cols, cols},
                       algo);
  });
  return set;
}

bool row_schedule_valid(std::span<const std::uint16_t> g, std::span<const std::uint16_t> phat,
                        std::span<const std::uint16_t> q, std::uint32_t width) {
  const std::uint64_t len = g.size();
  if (phat.size() != len || q.size() != len || len % width != 0) return false;

  // p̂ must be a permutation of [0, len).
  std::vector<std::uint8_t> seen(len, 0);
  for (std::uint16_t v : phat) {
    if (v >= len || seen[v]) return false;
    seen[v] = 1;
  }
  // g(p̂(k)) == q(k) for every slot — i.e. g = q ∘ p̂⁻¹.
  for (std::uint64_t k = 0; k < len; ++k) {
    if (g[phat[k]] != q[k]) return false;
  }
  // Each schedule warp hits w distinct banks on both sides.
  for (std::uint64_t warp = 0; warp < len; warp += width) {
    std::uint64_t src_banks = 0, dst_banks = 0;
    for (std::uint32_t k = 0; k < width; ++k) {
      src_banks |= 1ull << (phat[warp + k] & (width - 1));
      dst_banks |= 1ull << (q[warp + k] & (width - 1));
    }
    if (std::popcount(src_banks) != static_cast<int>(width) ||
        std::popcount(dst_banks) != static_cast<int>(width)) {
      return false;
    }
  }
  return true;
}

bool rows_are_permutations(std::span<const std::uint16_t> table, std::uint64_t row_len) {
  std::vector<std::uint8_t> seen(row_len);
  for (std::uint64_t base = 0; base < table.size(); base += row_len) {
    std::fill(seen.begin(), seen.end(), 0);
    for (std::uint64_t k = base; k < base + row_len; ++k) {
      const std::uint16_t x = table[k];
      if (x >= row_len || seen[x] != 0) return false;
      seen[x] = 1;
    }
  }
  return true;
}

}  // namespace hmm::core
