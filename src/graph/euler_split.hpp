#pragma once
/// \file euler_split.hpp
/// \brief König edge coloring by recursive Euler splitting — the fast
///        path used by the permutation planner.
///
/// For a k-regular bipartite multigraph with k a power of two, every
/// node has even degree, so the graph decomposes into Eulerian circuits;
/// assigning alternate circuit edges to two halves yields two
/// (k/2)-regular subgraphs (every circuit in a bipartite graph has even
/// length). Recursing log2(k) times produces a proper k-edge-coloring in
/// O(E log k) time — this is the constructive König's theorem (Thm. 6 of
/// the paper) specialised to the planner's power-of-two degrees.
///
/// The halving runs in place on one edge array: each split is a stable
/// partition of its group (half 0 first), and every split halves a
/// regular group exactly, so at level L group j is the contiguous range
/// [j·E/2^L, (j+1)·E/2^L) and ends as color j at the last level. Groups
/// of one level are independent: level 0 (one group) runs on the
/// caller, every later level splits its groups on
/// `util::ThreadPool::global()`. Graphs below `kInlineEdges` run inline,
/// with no fork-join. The result does not depend on the thread count.

#include "graph/bipartite.hpp"

namespace hmm::graph {

/// Below this many edges a coloring runs inline on the calling thread:
/// a fork-join per level would cost more than the split it spreads.
/// Fixed, like the kernels' grain sizes. The plan build keys its other
/// per-element loop on the same cutoff.
inline constexpr std::uint64_t kInlineEdges = 1ull << 16;

/// Color a k-regular bipartite multigraph, k a power of two.
/// Aborts if the graph is not regular with power-of-two degree.
EdgeColoring color_euler_split(const BipartiteMultigraph& g);

/// As `color_euler_split`, for a caller that already knows `g` is
/// `degree`-regular (it skips the O(E) regularity pass). Aborts if
/// `degree` is not a power of two (or 0).
EdgeColoring color_euler_split_regular(const BipartiteMultigraph& g, std::uint32_t degree);

/// One Euler split of the subgraph formed by `edge_ids`: partition it
/// into two halves such that every node has exactly half its subgraph
/// degree in each (requires even subgraph degrees). Returns the half
/// assignment (0/1) indexed by *position in `edge_ids`*. It runs the
/// same walker as every level of `color_euler_split`.
/// Exposed for tests and the coloring ablation bench.
std::vector<std::uint8_t> euler_split_once(const BipartiteMultigraph& g,
                                           const std::vector<std::uint32_t>& edge_ids);

}  // namespace hmm::graph
