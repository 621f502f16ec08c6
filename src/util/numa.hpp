#pragma once
/// \file numa.hpp
/// \brief Minimal NUMA topology discovery and thread/node placement.
///
/// The serving hot path touches three memory streams per request —
/// input elements, scratch, and the plan's gather tables — and a
/// cross-socket hop on any of them costs more than the kernels' whole
/// L1 discipline saves. This layer gives the pool and thread pool just
/// enough topology to keep a request on one socket: which node each
/// CPU belongs to, which node the calling thread is on right now, and
/// a way to pin a worker to a node's CPU set.
///
/// Discovery reads sysfs (`/sys/devices/system/node/node*/cpulist`) —
/// no libnuma dependency — and collapses to one node holding every CPU
/// when sysfs is absent (non-Linux, containers with masked sysfs).
/// On a single-node machine `aware()` is false and every placement
/// helper degenerates to a no-op, so the NUMA-aware code paths cost
/// nothing where they cannot help. `HMM_NUMA=0` forces that off state
/// for A/B runs on multi-socket boxes.

#include <vector>

namespace hmm::util::numa {

/// Immutable machine topology, discovered once.
struct Topology {
  /// CPU ids per node, indexed by node id; at least one node with at
  /// least one CPU (the single-node fallback claims every CPU).
  std::vector<std::vector<int>> node_cpus;
  /// node id per CPU id (flat inverse of node_cpus; -1 = unknown CPU).
  std::vector<int> cpu_node;

  [[nodiscard]] int nodes() const noexcept { return static_cast<int>(node_cpus.size()); }
};

/// The discovered topology (sysfs, read once per process).
[[nodiscard]] const Topology& topology() noexcept;

/// Number of NUMA nodes (>= 1).
[[nodiscard]] int node_count() noexcept;

/// True when placement decisions matter: more than one node and the
/// `HMM_NUMA` env toggle is not "0".
[[nodiscard]] bool aware() noexcept;

/// Node the calling thread is executing on right now (0 when unknown).
/// A hint, not a contract: an unpinned thread can migrate right after.
[[nodiscard]] int current_node() noexcept;

/// Node owning `cpu` (0 when unknown).
[[nodiscard]] int node_of_cpu(int cpu) noexcept;

/// Restrict the calling thread to `node`'s CPU set. Returns false
/// (and leaves affinity untouched) for unknown nodes, empty CPU sets,
/// or when the kernel refuses.
bool pin_current_thread_to_node(int node) noexcept;

}  // namespace hmm::util::numa
