#include "graph/coloring.hpp"

#include <algorithm>
#include <numeric>

#include "graph/euler_split.hpp"
#include "graph/hopcroft_karp.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace hmm::graph {

EdgeColoring color_matching_peel(const BipartiteMultigraph& g) {
  const auto degree = g.regular_degree();
  HMM_CHECK_MSG(degree.has_value(), "matching-peel coloring requires a regular graph");

  EdgeColoring result;
  result.colors = std::max<std::uint32_t>(1, *degree);
  result.color.assign(g.edge_count(), 0);

  std::vector<std::uint32_t> remaining(g.edge_count());
  std::iota(remaining.begin(), remaining.end(), 0u);

  for (std::uint32_t c = 0; c < *degree; ++c) {
    const Matching m = hopcroft_karp(g, remaining);
    // A regular bipartite multigraph always has a perfect matching
    // (König); anything less means the input was not regular.
    HMM_CHECK_MSG(m.size == g.left_count(), "regular graph must admit a perfect matching");
    std::vector<std::uint8_t> taken(g.edge_count(), 0);
    for (std::uint32_t u = 0; u < g.left_count(); ++u) {
      const std::uint32_t e = m.left_edge[u];
      result.color[e] = c;
      taken[e] = 1;
    }
    std::erase_if(remaining, [&](std::uint32_t id) { return taken[id] != 0; });
  }
  HMM_DCHECK(remaining.empty());
  return result;
}

EdgeColoring color_alternating_path(const BipartiteMultigraph& g) {
  // Max degree over both sides = number of colors (König's theorem).
  std::vector<std::uint32_t> ldeg(g.left_count(), 0), rdeg(g.right_count(), 0);
  for (const Edge& e : g.edges()) {
    ++ldeg[e.u];
    ++rdeg[e.v];
  }
  std::uint32_t delta = 1;
  for (std::uint32_t d : ldeg) delta = std::max(delta, d);
  for (std::uint32_t d : rdeg) delta = std::max(delta, d);

  EdgeColoring result;
  result.colors = delta;
  result.color.assign(g.edge_count(), ~0u);

  constexpr std::uint32_t kNone = ~0u;
  // at[node * delta + color] = edge id using `color` at `node`.
  // Left nodes occupy [0, L), right nodes [L, L+R).
  const std::uint32_t total_nodes = g.left_count() + g.right_count();
  std::vector<std::uint32_t> at(static_cast<std::size_t>(total_nodes) * delta, kNone);

  auto slot = [&](std::uint32_t node, std::uint32_t color) -> std::uint32_t& {
    return at[static_cast<std::size_t>(node) * delta + color];
  };
  auto free_color = [&](std::uint32_t node) {
    for (std::uint32_t c = 0; c < delta; ++c) {
      if (slot(node, c) == kNone) return c;
    }
    HMM_CHECK_MSG(false, "node has no free color; degree exceeds delta");
    return kNone;
  };
  auto other_endpoint = [&](std::uint32_t edge_id, std::uint32_t node) -> std::uint32_t {
    const Edge& e = g.edge(edge_id);
    return node < g.left_count() ? g.left_count() + e.v : e.u;
  };

  std::vector<std::uint32_t> path;
  for (std::uint32_t id = 0; id < g.edge_count(); ++id) {
    const std::uint32_t u = g.edge(id).u;
    const std::uint32_t v = g.left_count() + g.edge(id).v;
    const std::uint32_t alpha = free_color(u);
    const std::uint32_t beta = free_color(v);
    if (alpha != beta && slot(u, beta) != kNone) {
      // Flip the beta/alpha-alternating path starting at u. Bipartiteness
      // guarantees it never reaches v, so beta becomes free at u while
      // staying free at v (König's classical argument).
      path.clear();
      std::uint32_t node = u;
      std::uint32_t want = beta;
      while (slot(node, want) != kNone) {
        const std::uint32_t e = slot(node, want);
        path.push_back(e);
        node = other_endpoint(e, node);
        want = (want == beta) ? alpha : beta;
      }
      HMM_DCHECK(node != v);
      for (std::uint32_t e : path) {
        const std::uint32_t old = result.color[e];
        const std::uint32_t a = g.edge(e).u;
        const std::uint32_t b = g.left_count() + g.edge(e).v;
        slot(a, old) = kNone;
        slot(b, old) = kNone;
      }
      for (std::uint32_t e : path) {
        const std::uint32_t old = result.color[e];
        const std::uint32_t neu = (old == beta) ? alpha : beta;
        result.color[e] = neu;
        const std::uint32_t a = g.edge(e).u;
        const std::uint32_t b = g.left_count() + g.edge(e).v;
        slot(a, neu) = e;
        slot(b, neu) = e;
      }
    }
    const std::uint32_t c = (slot(u, beta) == kNone) ? beta : alpha;
    HMM_DCHECK(slot(u, c) == kNone && slot(v, c) == kNone);
    result.color[id] = c;
    slot(u, c) = id;
    slot(v, c) = id;
  }
  return result;
}

EdgeColoring color_edges(const BipartiteMultigraph& g, ColoringAlgorithm algo) {
  switch (algo) {
    case ColoringAlgorithm::kEulerSplit:
      return color_euler_split(g);
    case ColoringAlgorithm::kMatchingPeel:
      return color_matching_peel(g);
    case ColoringAlgorithm::kAlternatingPath:
      return color_alternating_path(g);
    case ColoringAlgorithm::kAuto: {
      const auto degree = g.regular_degree();
      if (degree && (*degree == 0 || util::is_pow2(*degree))) {
        return color_euler_split_regular(g, *degree);
      }
      if (degree) return color_matching_peel(g);
      return color_alternating_path(g);
    }
  }
  HMM_CHECK_MSG(false, "unreachable");
  return {};
}

}  // namespace hmm::graph
