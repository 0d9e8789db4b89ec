// Undirected simple graph with distinct node identifiers.
//
// This mirrors the paper's Section 2 model: a graph G = (V, E) where
// V ⊆ {1, ..., d} and every node knows its own identifier and the
// identifiers of its neighbors. Internally nodes are dense indices
// 0..n-1; the identifier of internal node v is id(v). All distributed
// algorithms in this library break symmetry by comparing identifiers,
// never internal indices, so an induced subgraph (which keeps the original
// identifiers) behaves exactly like the paper's "remaining graph".
//
// The adjacency is an immutable CSR built once from an edge list: node v's
// neighbors are neighbors_[offsets_[v] .. offsets_[v+1]), sorted by
// internal index. Directed edge (v, neighbors(v)[j]) is numbered
// offsets_[v] + j — the one slot numbering (edge_slot) shared by the
// engine's edge outputs and resend cache, the link layer and edge
// predictions. Δ is computed at construction. Identifiers
// are not part of the adjacency and may still be reassigned.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace dgap {

class Graph {
 public:
  using Edge = std::pair<NodeId, NodeId>;

  /// edge_slot() of a non-neighbor.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  Graph() = default;

  /// n nodes and the given undirected edges (any order, either
  /// orientation); identifiers default to 1..n (so d = n). Throws on a
  /// self-loop, a duplicate edge or an out-of-range endpoint.
  explicit Graph(NodeId n, const std::vector<Edge>& edges = {});

  NodeId num_nodes() const { return static_cast<NodeId>(ids_.size()); }
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(neighbors_.size() / 2);
  }

  /// Upper bound on identifiers (the paper's d). At least max id.
  std::int64_t id_bound() const { return id_bound_; }
  void set_id_bound(std::int64_t d);

  /// The identifier of internal node v (distinct across nodes, in 1..d).
  Value id(NodeId v) const { return ids_[v]; }
  const std::vector<Value>& ids() const { return ids_; }

  /// Reassign identifiers. `ids` must be distinct positive values; the id
  /// bound is raised to cover them if needed.
  void set_ids(std::vector<Value> ids);

  bool has_edge(NodeId u, NodeId v) const;

  /// Neighbors of v, sorted by internal index.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  int degree(NodeId v) const {
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }

  /// CSR row offsets (n + 1 entries); the last is the directed-edge count.
  std::span<const std::uint32_t> offsets() const { return offsets_; }

  /// Slot offsets()[v] + j of directed edge (v, u) where u is
  /// neighbors(v)[j], or kNoSlot if u is not a neighbor of v.
  std::uint32_t edge_slot(NodeId v, NodeId u) const {
    const auto nb = neighbors(v);
    const auto it = std::lower_bound(nb.begin(), nb.end(), u);
    if (it == nb.end() || *it != u) return kNoSlot;
    return offsets_[v] + static_cast<std::uint32_t>(it - nb.begin());
  }

  /// Maximum degree Δ over all nodes (0 for the empty graph).
  int max_degree() const { return max_degree_; }

  /// All edges as (u, v) with u < v, sorted.
  std::vector<Edge> edges() const;

  /// Subgraph induced by `keep` (internal indices). Identifiers and the id
  /// bound are preserved. Returns the subgraph and the mapping from new
  /// internal index to old internal index.
  std::pair<Graph, std::vector<NodeId>> induced(
      const std::vector<NodeId>& keep) const;

 private:
  void check_node(NodeId v) const;

  std::vector<std::uint32_t> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::vector<Value> ids_;
  std::int64_t id_bound_ = 0;
  int max_degree_ = 0;
};

}  // namespace dgap
