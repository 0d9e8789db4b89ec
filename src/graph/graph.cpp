#include "graph/graph.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/require.hpp"

namespace dgap {

Graph::Graph(NodeId n, const std::vector<Edge>& edges) {
  DGAP_REQUIRE(n >= 0, "graph size must be non-negative");
  const std::size_t nu = static_cast<std::size_t>(n);
  ids_.resize(nu);
  for (NodeId v = 0; v < n; ++v) ids_[v] = v + 1;
  id_bound_ = n;
  DGAP_REQUIRE(edges.size() < kNoSlot / 2,
               "edge count overflows 32-bit edge slots");
  // Counting pass (validating every endpoint), prefix sum, scatter, then
  // one sort per row; a duplicate edge shows up as a repeated neighbor.
  offsets_.assign(nu + 1, 0);
  for (const auto& [u, v] : edges) {
    check_node(u);
    check_node(v);
    DGAP_REQUIRE(u != v, "no self-loops in a simple graph");
    ++offsets_[static_cast<std::size_t>(u) + 1];
    ++offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < nu; ++v) offsets_[v + 1] += offsets_[v];
  neighbors_.resize(offsets_[nu]);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors_[cursor[u]++] = v;
    neighbors_[cursor[v]++] = u;
  }
  for (std::size_t v = 0; v < nu; ++v) {
    const auto first = neighbors_.begin() + offsets_[v];
    const auto last = neighbors_.begin() + offsets_[v + 1];
    std::sort(first, last);
    DGAP_REQUIRE(std::adjacent_find(first, last) == last,
                 "edge already present");
    max_degree_ = std::max(max_degree_, static_cast<int>(last - first));
  }
}

void Graph::set_id_bound(std::int64_t d) {
  for (Value id : ids_) {
    DGAP_REQUIRE(id <= d, "id bound below an existing identifier");
  }
  id_bound_ = d;
}

void Graph::set_ids(std::vector<Value> ids) {
  DGAP_REQUIRE(ids.size() == ids_.size(), "one identifier per node");
  std::unordered_set<Value> seen;
  std::int64_t max_id = 0;
  for (Value id : ids) {
    DGAP_REQUIRE(id >= 1, "identifiers are positive");
    DGAP_REQUIRE(seen.insert(id).second, "identifiers must be distinct");
    max_id = std::max(max_id, id);
  }
  ids_ = std::move(ids);
  id_bound_ = std::max(id_bound_, max_id);
}

void Graph::check_node(NodeId v) const {
  DGAP_REQUIRE(v >= 0 && v < num_nodes(), "node index out of range");
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  return edge_slot(u, v) != kNoSlot;
}

std::vector<Graph::Edge> Graph::edges() const {
  std::vector<Edge> es;
  es.reserve(static_cast<std::size_t>(num_edges()));
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) es.emplace_back(u, v);
    }
  }
  return es;
}

std::pair<Graph, std::vector<NodeId>> Graph::induced(
    const std::vector<NodeId>& keep) const {
  std::vector<NodeId> old_to_new(static_cast<std::size_t>(num_nodes()), -1);
  std::vector<NodeId> new_to_old;
  new_to_old.reserve(keep.size());
  for (NodeId v : keep) {
    check_node(v);
    DGAP_REQUIRE(old_to_new[v] == -1, "duplicate node in induced() set");
    old_to_new[v] = static_cast<NodeId>(new_to_old.size());
    new_to_old.push_back(v);
  }
  const NodeId sub_n = static_cast<NodeId>(new_to_old.size());
  std::vector<Edge> sub_edges;
  for (NodeId nu = 0; nu < sub_n; ++nu) {
    for (NodeId old_nb : neighbors(new_to_old[nu])) {
      NodeId nv = old_to_new[old_nb];
      if (nv >= 0 && nu < nv) sub_edges.emplace_back(nu, nv);
    }
  }
  Graph sub(sub_n, sub_edges);
  std::vector<Value> ids;
  ids.reserve(new_to_old.size());
  for (NodeId old : new_to_old) ids.push_back(ids_[old]);
  sub.set_ids(std::move(ids));
  sub.set_id_bound(id_bound_);
  return {std::move(sub), std::move(new_to_old)};
}

}  // namespace dgap
