#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/bipartite.hpp"
#include "graph/coloring.hpp"
#include "graph/euler_split.hpp"
#include "graph/hopcroft_karp.hpp"
#include "util/rng.hpp"

namespace hmm::graph {
namespace {

/// Random k-regular bipartite multigraph on nodes x nodes: union of k
/// random perfect matchings (each a random permutation).
BipartiteMultigraph random_regular(std::uint32_t nodes, std::uint32_t degree,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  BipartiteMultigraph g(nodes, nodes);
  std::vector<std::uint32_t> perm(nodes);
  for (std::uint32_t k = 0; k < degree; ++k) {
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::uint32_t i = nodes - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.bounded(i + 1)]);
    }
    for (std::uint32_t u = 0; u < nodes; ++u) g.add_edge(u, perm[u]);
  }
  return g;
}

TEST(Bipartite, DegreesAndRegularity) {
  BipartiteMultigraph g(3, 3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 0);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.left_degree(0), 2u);
  EXPECT_EQ(g.right_degree(2), 1u);
  EXPECT_FALSE(g.regular_degree().has_value());
}

TEST(Bipartite, RegularDetection) {
  BipartiteMultigraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 1);
  g.add_edge(1, 0);
  ASSERT_TRUE(g.regular_degree().has_value());
  EXPECT_EQ(*g.regular_degree(), 2u);
}

TEST(Bipartite, ParallelEdgesAllowed) {
  BipartiteMultigraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 0);
  g.add_edge(1, 1);
  g.add_edge(1, 1);
  ASSERT_TRUE(g.regular_degree().has_value());
  EXPECT_EQ(*g.regular_degree(), 2u);
}

TEST(EulerSplit, OnceBalancesDegrees) {
  BipartiteMultigraph g = random_regular(16, 4, 1);
  std::vector<std::uint32_t> all(g.edge_count());
  std::iota(all.begin(), all.end(), 0u);
  const auto half = euler_split_once(g, all);
  std::vector<std::uint32_t> l0(16, 0), r0(16, 0);
  for (std::uint32_t k = 0; k < all.size(); ++k) {
    if (half[k]) continue;
    ++l0[g.edge(all[k]).u];
    ++r0[g.edge(all[k]).v];
  }
  for (std::uint32_t u = 0; u < 16; ++u) EXPECT_EQ(l0[u], 2u);
  for (std::uint32_t v = 0; v < 16; ++v) EXPECT_EQ(r0[v], 2u);
}

TEST(EulerSplit, ColoringIsKonig) {
  for (std::uint32_t degree : {1u, 2u, 4u, 8u, 16u}) {
    BipartiteMultigraph g = random_regular(32, degree, degree);
    const EdgeColoring c = color_euler_split(g);
    EXPECT_EQ(c.colors, std::max(degree, 1u));
    EXPECT_TRUE(is_konig_coloring(g, c)) << "degree=" << degree;
  }
}

TEST(EulerSplit, Fig5SizeGraph) {
  // The paper's Fig. 5: a 4-regular bipartite graph on 4+4 nodes,
  // 4-edge-colorable.
  BipartiteMultigraph g = random_regular(4, 4, 99);
  const EdgeColoring c = color_euler_split(g);
  EXPECT_EQ(c.colors, 4u);
  EXPECT_TRUE(is_konig_coloring(g, c));
}

TEST(EulerSplit, ParallelEdgesGetDistinctColors) {
  BipartiteMultigraph g(2, 2);
  // Two parallel edges (0,0) and (1,1) pairs -> 2-regular.
  g.add_edge(0, 0);
  g.add_edge(0, 0);
  g.add_edge(1, 1);
  g.add_edge(1, 1);
  const EdgeColoring c = color_euler_split(g);
  EXPECT_TRUE(is_konig_coloring(g, c));
  EXPECT_NE(c.color[0], c.color[1]);
  EXPECT_NE(c.color[2], c.color[3]);
}

/// Reference König coloring: recursive halving by `euler_split_once`,
/// half 0 taking the lower colors (the definition the in-place,
/// level-parallel coloring must reproduce edge for edge).
void color_by_halving(const BipartiteMultigraph& g, const std::vector<std::uint32_t>& ids,
                      std::uint32_t base, std::uint32_t degree, EdgeColoring& out) {
  if (degree == 1) {
    for (std::uint32_t id : ids) out.color[id] = base;
    return;
  }
  const auto half = euler_split_once(g, ids);
  std::vector<std::uint32_t> lower, upper;
  for (std::size_t k = 0; k < ids.size(); ++k) (half[k] ? upper : lower).push_back(ids[k]);
  color_by_halving(g, lower, base, degree / 2, out);
  color_by_halving(g, upper, base + degree / 2, degree / 2, out);
}

TEST(EulerSplit, LargeMultigraphIsKonigAbovePoolCutoff) {
  // 2^17 edges: two components of 512 + 512 nodes, each the union of 64
  // random perfect matchings taken twice, so every edge has a parallel
  // twin. Large enough that the coloring's later levels run on the pool.
  constexpr std::uint32_t kNodes = 1024, kHalf = kNodes / 2, kDegree = 128;
  util::Xoshiro256 rng(17);
  BipartiteMultigraph g(kNodes, kNodes);
  std::vector<std::uint32_t> perm(kHalf);
  for (std::uint32_t m = 0; m < kDegree / 2; ++m) {
    for (std::uint32_t comp = 0; comp < 2; ++comp) {
      std::iota(perm.begin(), perm.end(), 0u);
      for (std::uint32_t i = kHalf - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.bounded(i + 1)]);
      }
      for (int twice = 0; twice < 2; ++twice) {
        for (std::uint32_t u = 0; u < kHalf; ++u) {
          g.add_edge(comp * kHalf + u, comp * kHalf + perm[u]);
        }
      }
    }
  }
  ASSERT_EQ(g.edge_count(), 1u << 17);

  const EdgeColoring c = color_euler_split(g);
  ASSERT_EQ(c.colors, kDegree);
  EXPECT_TRUE(is_konig_coloring(g, c));

  EdgeColoring expected;
  expected.colors = kDegree;
  expected.color.assign(g.edge_count(), ~0u);
  std::vector<std::uint32_t> all(g.edge_count());
  std::iota(all.begin(), all.end(), 0u);
  color_by_halving(g, all, 0, kDegree, expected);
  EXPECT_EQ(c.color, expected.color);
}

TEST(HopcroftKarp, PerfectMatchingOnRegular) {
  for (std::uint32_t degree : {1u, 2u, 3u, 5u, 8u}) {
    BipartiteMultigraph g = random_regular(24, degree, degree * 7);
    const Matching m = hopcroft_karp(g);
    EXPECT_EQ(m.size, 24u) << "degree=" << degree;
    // Matched edges must be a consistent pairing.
    for (std::uint32_t u = 0; u < 24; ++u) {
      ASSERT_NE(m.left_edge[u], Matching::kUnmatched);
      const Edge& e = g.edge(m.left_edge[u]);
      EXPECT_EQ(e.u, u);
      EXPECT_EQ(m.right_edge[e.v], m.left_edge[u]);
    }
  }
}

TEST(HopcroftKarp, IncompleteGraph) {
  BipartiteMultigraph g(3, 3);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  g.add_edge(2, 1);
  const Matching m = hopcroft_karp(g);
  EXPECT_EQ(m.size, 2u);  // node 0/1 compete for right 0
}

TEST(MatchingPeel, ColoringIsKonig) {
  for (std::uint32_t degree : {1u, 2u, 3u, 5u, 6u, 7u}) {
    BipartiteMultigraph g = random_regular(20, degree, degree * 3 + 1);
    const EdgeColoring c = color_matching_peel(g);
    EXPECT_EQ(c.colors, degree);
    EXPECT_TRUE(is_konig_coloring(g, c)) << "degree=" << degree;
  }
}

TEST(AlternatingPath, ColoringProperOnRegular) {
  for (std::uint32_t degree : {1u, 2u, 4u, 5u, 8u}) {
    BipartiteMultigraph g = random_regular(20, degree, degree + 100);
    const EdgeColoring c = color_alternating_path(g);
    EXPECT_EQ(c.colors, degree);
    EXPECT_TRUE(is_proper_coloring(g, c)) << "degree=" << degree;
    // On a regular graph a proper delta-coloring is automatically König.
    EXPECT_TRUE(is_konig_coloring(g, c)) << "degree=" << degree;
  }
}

TEST(AlternatingPath, IrregularGraph) {
  BipartiteMultigraph g(4, 4);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 0);
  g.add_edge(2, 1);
  const EdgeColoring c = color_alternating_path(g);
  EXPECT_EQ(c.colors, 3u);  // max degree
  EXPECT_TRUE(is_proper_coloring(g, c));
}

TEST(Coloring, AllAlgorithmsAgreeOnValidity) {
  BipartiteMultigraph g = random_regular(16, 8, 5);
  for (auto algo : {ColoringAlgorithm::kEulerSplit, ColoringAlgorithm::kMatchingPeel,
                    ColoringAlgorithm::kAlternatingPath, ColoringAlgorithm::kAuto}) {
    const EdgeColoring c = color_edges(g, algo);
    EXPECT_TRUE(is_konig_coloring(g, c));
  }
}

TEST(Coloring, ColorClassesPartitionEdges) {
  BipartiteMultigraph g = random_regular(16, 4, 77);
  const EdgeColoring c = color_euler_split(g);
  const auto classes = color_classes(g, c);
  std::size_t total = 0;
  for (const auto& cls : classes) {
    EXPECT_EQ(cls.size(), 16u);  // perfect matching
    total += cls.size();
  }
  EXPECT_EQ(total, g.edge_count());
}

TEST(Coloring, ValidationRejectsBadColoring) {
  BipartiteMultigraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 1);
  EdgeColoring bad;
  bad.colors = 2;
  bad.color = {0, 0, 1, 1};  // node 0 has two color-0 edges
  EXPECT_FALSE(is_proper_coloring(g, bad));
  EdgeColoring good;
  good.colors = 2;
  good.color = {0, 1, 1, 0};
  EXPECT_TRUE(is_proper_coloring(g, good));
  EXPECT_TRUE(is_konig_coloring(g, good));
}

TEST(EulerSplit, DisconnectedComponents) {
  // Two disjoint 2-regular sub-multigraphs; the circuit walker must
  // visit both components.
  BipartiteMultigraph g(4, 4);
  for (std::uint32_t k = 0; k < 2; ++k) {
    g.add_edge(0, 0);
    g.add_edge(1, 1);
    g.add_edge(2, 2);
    g.add_edge(3, 3);
  }
  const EdgeColoring c = color_euler_split(g);
  EXPECT_TRUE(is_konig_coloring(g, c));
}

TEST(EulerSplit, TwoNodeChains) {
  // Minimal graph: 1+1 nodes, degree 4 of parallel edges.
  BipartiteMultigraph g(1, 1);
  for (int i = 0; i < 4; ++i) g.add_edge(0, 0);
  const EdgeColoring c = color_euler_split(g);
  EXPECT_TRUE(is_konig_coloring(g, c));
  // All four parallel edges got distinct colors.
  std::set<std::uint32_t> colors(c.color.begin(), c.color.end());
  EXPECT_EQ(colors.size(), 4u);
}

// Property sweep: Euler split stays König across a grid of sizes/degrees.
class EulerSweep : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(EulerSweep, Konig) {
  const auto [nodes, degree] = GetParam();
  BipartiteMultigraph g = random_regular(nodes, degree, nodes * 31 + degree);
  const EdgeColoring c = color_euler_split(g);
  EXPECT_TRUE(is_konig_coloring(g, c));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EulerSweep,
                         ::testing::Combine(::testing::Values(4u, 8u, 32u, 128u, 512u),
                                            ::testing::Values(1u, 2u, 8u, 32u, 64u)));

}  // namespace
}  // namespace hmm::graph
