#include "graph/euler_split.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hmm::graph {
namespace {

constexpr std::uint32_t kNone = ~0u;

/// Scratch of one Hierholzer walker over a range of edges. Buffers only
/// grow (until `trim`), so splitting many groups allocates once. Node-sized
/// buffers (`begin_`, `end_`, `cursor_`) cover the whole graph;
/// edge-sized ones cover the range.
class Walker {
 public:
  /// Euler-split `edges` (each node of even degree within the range;
  /// `degree` as for `build_adjacency`): afterwards `half(k)` is 0 or 1
  /// for the edge at position k, and every node has exactly half its
  /// range degree in each half.
  void walk(std::span<const Edge> edges, std::uint32_t left, std::uint32_t nodes,
            std::uint32_t degree) {
    const auto size = static_cast<std::uint32_t>(edges.size());
    build_adjacency(edges, left, nodes, degree);
    state_.assign(size, 0);

    // Hierholzer over each connected component: the pop order yields
    // the Eulerian circuit (reversed, still a closed walk); assigning
    // alternate walk edges to halves 0/1 balances every node because
    // bipartite circuits have even length. A stack entry is the node
    // reached and the edge it was reached by.
    for (std::uint32_t seed = 0; seed < size; ++seed) {
      if (state_[seed] != 0) continue;
      std::uint32_t popped = 0;  // circuit position of the next popped edge
      stack_.clear();
      stack_.push_back({edges[seed].u, kNone});
      while (!stack_.empty()) {
        const Slot* next = next_slot(stack_.back().to);
        if (next == nullptr) {
          const std::uint32_t in = stack_.back().edge;
          if (in != kNone) state_[in] = static_cast<std::uint8_t>(kUsed | (popped++ & 1u));
          stack_.pop_back();
        } else {
          state_[next->edge] = kUsed;
          stack_.push_back(*next);
        }
      }
      HMM_DCHECK(popped % 2 == 0);
    }
  }

  [[nodiscard]] std::uint8_t half(std::uint32_t k) const { return state_[k] & 1u; }

  /// Free the buffers if they hold more than `max_edges` edges' worth.
  void trim(std::uint64_t max_edges) {
    if (state_.capacity() > max_edges) *this = Walker();
  }

  /// Split the range in place: `walk`, then a stable partition of
  /// `edges` and `ids` that puts half 0 first. A regular range halves
  /// exactly, so each half is again a contiguous regular range.
  void split(std::span<Edge> edges, std::span<std::uint32_t> ids, std::uint32_t left,
             std::uint32_t nodes, std::uint32_t degree) {
    walk(edges, left, nodes, degree);
    const std::size_t size = edges.size();
    spill_edges_.clear();
    spill_ids_.clear();
    std::size_t kept = 0;
    for (std::size_t k = 0; k < size; ++k) {
      if (half(static_cast<std::uint32_t>(k)) == 0) {
        edges[kept] = edges[k];
        ids[kept] = ids[k];
        ++kept;
      } else {
        spill_edges_.push_back(edges[k]);
        spill_ids_.push_back(ids[k]);
      }
    }
    HMM_CHECK_MSG(kept * 2 == size, "euler split of a regular group must halve it exactly");
    std::copy(spill_edges_.begin(), spill_edges_.end(), edges.begin() + kept);
    std::copy(spill_ids_.begin(), spill_ids_.end(), ids.begin() + kept);
  }

 private:
  static constexpr std::uint8_t kUsed = 2;

  /// An edge as seen from one endpoint: the node at its other end
  /// (left nodes first, then right) and its range position.
  struct Slot {
    std::uint32_t to;
    std::uint32_t edge;
  };

  /// CSR adjacency over (left + right) nodes; each node's slots are in
  /// increasing range position. `degree` is every node's degree when the
  /// range is known to be regular (0: count them). Long lists get one
  /// cache line of padding each: their power-of-two strides would
  /// otherwise map every node's write stream to the same cache sets.
  void build_adjacency(std::span<const Edge> edges, std::uint32_t left, std::uint32_t nodes,
                       std::uint32_t degree) {
    if (degree != 0) {
      end_.assign(nodes, degree);
    } else {
      end_.assign(nodes, 0);
      for (const Edge& e : edges) {
        ++end_[e.u];
        ++end_[left + e.v];
      }
    }
    const std::uint64_t pad = 2 * edges.size() >= kPadMinDegree * nodes ? kPadSlots : 0;
    begin_.resize(nodes);
    std::uint64_t next = 0;
    for (std::uint32_t node = 0; node < nodes; ++node) {
      begin_[node] = next;
      next += end_[node] + pad;
      end_[node] += begin_[node];
    }
    slots_.resize(next);
    cursor_.assign(begin_.begin(), begin_.end());
    for (std::uint32_t k = 0; k < edges.size(); ++k) {
      const std::uint32_t u = edges[k].u;
      const std::uint32_t v = left + edges[k].v;
      slots_[cursor_[u]++] = {v, k};
      slots_[cursor_[v]++] = {u, k};
    }
    cursor_.assign(begin_.begin(), begin_.end());
  }

  /// First unused edge at `node`, or nullptr; advances past used slots.
  const Slot* next_slot(std::uint32_t node) {
    std::uint64_t& cur = cursor_[node];
    for (; cur < end_[node]; ++cur) {
      if (state_[slots_[cur].edge] == 0) return &slots_[cur];
    }
    return nullptr;
  }

  /// Padding of a node's slot list (8-byte slots: one cache line), and
  /// the average degree from which it is applied.
  static constexpr std::uint64_t kPadSlots = 8;
  static constexpr std::uint64_t kPadMinDegree = 8;

  // Slot offsets are 64-bit: a range of 2^31 edges has 2^32 slots.
  std::vector<std::uint64_t> begin_;   // per node: first slot
  std::vector<std::uint64_t> end_;     // per node: one past its last slot
  std::vector<Slot> slots_;            // incident edges, grouped by node
  std::vector<std::uint64_t> cursor_;  // next unexplored slot per node
  std::vector<std::uint8_t> state_;    // 0 unused, else kUsed | half
  std::vector<Slot> stack_;            // (node reached, edge in)
  std::vector<Edge> spill_edges_;      // half 1 during the partition
  std::vector<std::uint32_t> spill_ids_;
};

/// Run `fn` with the calling thread's walker, so a thread that splits
/// many groups (every later level's chunks, a plan's 3·r per-row bank
/// colorings) allocates its scratch once. Buffers grown past the inline
/// cutoff are freed afterwards, so what a thread keeps stays bounded.
/// `fn` must not fork onto the pool: a fork-join's caller runs chunks
/// of its loop itself and would re-enter the walker it is using.
void with_walker(const std::function<void(Walker&)>& fn) {
  thread_local Walker walker;
  fn(walker);
  walker.trim(kInlineEdges);
}

}  // namespace

std::vector<std::uint8_t> euler_split_once(const BipartiteMultigraph& g,
                                           const std::vector<std::uint32_t>& edge_ids) {
  std::vector<Edge> edges(edge_ids.size());
  for (std::size_t k = 0; k < edge_ids.size(); ++k) edges[k] = g.edge(edge_ids[k]);
  std::vector<std::uint8_t> half(edges.size());
  with_walker([&](Walker& w) {
    w.walk(edges, g.left_count(), g.left_count() + g.right_count(), 0);
    for (std::uint32_t k = 0; k < half.size(); ++k) half[k] = w.half(k);
  });
  return half;
}

EdgeColoring color_euler_split(const BipartiteMultigraph& g) {
  const auto degree = g.regular_degree();
  HMM_CHECK_MSG(degree.has_value(), "euler-split coloring requires a regular graph");
  return color_euler_split_regular(g, *degree);
}

EdgeColoring color_euler_split_regular(const BipartiteMultigraph& g, std::uint32_t degree) {
  HMM_CHECK_MSG(degree == 0 || util::is_pow2(degree),
                "euler-split coloring requires a power-of-two degree");
  const std::uint64_t total = g.edge_count();
  EdgeColoring result;
  result.colors = degree == 0 ? 1 : degree;
  if (degree <= 1) {
    result.color.assign(total, 0);
    return result;
  }

  // Iterative halving in place: every split halves a regular group
  // exactly, so at level L group j is the range [j·E/2^L, (j+1)·E/2^L)
  // and the group with color prefix j ends up as color j.
  std::vector<Edge> edges = g.edges();
  std::vector<std::uint32_t> ids(total);
  std::iota(ids.begin(), ids.end(), 0u);
  const std::uint32_t left = g.left_count();
  const std::uint32_t nodes = left + g.right_count();
  auto split_level = [&](std::uint64_t groups, Walker& w, std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t size = total / groups;
    const auto group_degree = static_cast<std::uint32_t>(degree / groups);
    for (std::uint64_t j = lo; j < hi; ++j) {
      w.split({edges.data() + j * size, size}, {ids.data() + j * size, size}, left, nodes,
              group_degree);
    }
  };

  const bool inline_only = total < kInlineEdges;
  if (inline_only) {
    with_walker([&](Walker& w) {
      for (std::uint64_t groups = 1; groups < degree; groups *= 2) {
        split_level(groups, w, 0, groups);
      }
    });
  } else {
    // Level 0 is a single group and stays on the caller; every later
    // level splits its groups on the pool.
    with_walker([&](Walker& w) { split_level(1, w, 0, 1); });
    for (std::uint64_t groups = 2; groups < degree; groups *= 2) {
      util::ThreadPool::global().parallel_for_chunks(
          0, groups, [&](std::uint64_t lo, std::uint64_t hi) {
            with_walker([&](Walker& w) { split_level(groups, w, lo, hi); });
          });
    }
  }

  result.color.resize(total);
  const std::uint64_t size = total / degree;
  auto paint = [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t k = lo * size; k < hi * size; ++k) {
      result.color[ids[k]] = static_cast<std::uint32_t>(k / size);
    }
  };
  if (inline_only) {
    paint(0, degree);
  } else {
    util::ThreadPool::global().parallel_for_chunks(0, degree, paint);
  }
  return result;
}

}  // namespace hmm::graph
