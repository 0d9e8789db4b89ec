#include "graph/edits.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/require.hpp"

namespace dgap {

namespace {

std::unordered_map<Value, NodeId> index_by_id(const std::vector<Value>& ids) {
  std::unordered_map<Value, NodeId> by_id;
  by_id.reserve(ids.size());
  for (std::size_t v = 0; v < ids.size(); ++v) {
    by_id.emplace(ids[v], static_cast<NodeId>(v));
  }
  return by_id;
}

}  // namespace

Graph apply_edits(const Graph& g, const EditBatch& batch) {
  DGAP_REQUIRE(batch.add_nodes >= 0, "add_nodes must be non-negative");
  const auto by_id = index_by_id(g.ids());
  auto lookup = [&](Value id) {
    auto it = by_id.find(id);
    DGAP_REQUIRE(it != by_id.end(), "edit references an unknown identifier");
    return it->second;
  };

  // Removed edges as (min index, max index) pairs for fast membership.
  std::unordered_set<std::int64_t> removed_edges;
  auto edge_key = [&](NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return static_cast<std::int64_t>(u) * g.num_nodes() + v;
  };
  for (const auto& [a, b] : batch.remove_edges) {
    const NodeId u = lookup(a);
    const NodeId v = lookup(b);
    DGAP_REQUIRE(g.has_edge(u, v), "removed edge is not in the graph");
    DGAP_REQUIRE(removed_edges.insert(edge_key(u, v)).second,
                 "edge removed twice in one batch");
  }

  std::vector<bool> removed_node(static_cast<std::size_t>(g.num_nodes()));
  for (Value id : batch.remove_nodes) {
    const NodeId v = lookup(id);
    DGAP_REQUIRE(!removed_node[static_cast<std::size_t>(v)],
                 "node removed twice in one batch");
    removed_node[static_cast<std::size_t>(v)] = true;
  }

  // Survivors keep their relative order; inserted nodes are appended with
  // fresh identifiers above the old bound, and the bound moves past them
  // so a later batch can never reissue an identifier this graph ever used.
  std::vector<NodeId> old_to_new(static_cast<std::size_t>(g.num_nodes()),
                                 kNoNode);
  std::vector<Value> ids;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (removed_node[static_cast<std::size_t>(v)]) continue;
    old_to_new[static_cast<std::size_t>(v)] = static_cast<NodeId>(ids.size());
    ids.push_back(g.id(v));
  }
  for (std::int64_t k = 0; k < batch.add_nodes; ++k) {
    ids.push_back(g.id_bound() + 1 + k);
  }
  // Surviving edges, then the batch's insertions; the constructor
  // rejects a duplicate or self-loop insertion (an edit batch can come
  // from outside the program).
  std::vector<Graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()) +
                batch.add_edges.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId nu = old_to_new[static_cast<std::size_t>(u)];
    if (nu == kNoNode) continue;
    for (NodeId v : g.neighbors(u)) {
      if (u >= v) continue;
      const NodeId nv = old_to_new[static_cast<std::size_t>(v)];
      if (nv == kNoNode || removed_edges.count(edge_key(u, v))) continue;
      edges.emplace_back(nu, nv);
    }
  }
  const auto next_by_id = index_by_id(ids);
  for (const auto& [a, b] : batch.add_edges) {
    auto ia = next_by_id.find(a);
    auto ib = next_by_id.find(b);
    DGAP_REQUIRE(ia != next_by_id.end() && ib != next_by_id.end(),
                 "added edge references an identifier absent from the "
                 "edited graph");
    edges.emplace_back(ia->second, ib->second);
  }
  Graph next(static_cast<NodeId>(ids.size()), edges);
  next.set_ids(std::move(ids));
  next.set_id_bound(g.id_bound() + batch.add_nodes);
  return next;
}

EditBatch ChurnSpec::generate(const Graph& g, int epoch) const {
  DGAP_REQUIRE(epoch >= 0, "epoch must be non-negative");
  // splitmix-style seed mixing keeps per-epoch streams unrelated.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL +
          static_cast<std::uint64_t>(epoch) * 0xbf58476d1ce4e5b9ULL + 1);
  EditBatch batch;

  auto count_of = [](double frac, std::int64_t total) {
    if (frac <= 0 || total <= 0) return std::int64_t{0};
    return std::min<std::int64_t>(
        total, static_cast<std::int64_t>(frac * static_cast<double>(total) +
                                         0.5));
  };

  // Node removals first, so edge churn is drawn among surviving edges.
  const NodeId n = g.num_nodes();
  std::int64_t removals = count_of(node_remove_frac, n);
  removals = std::max<std::int64_t>(
      0, std::min<std::int64_t>(removals, n - min_nodes));
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) nodes[static_cast<std::size_t>(v)] = v;
  rng.shuffle(nodes);
  std::vector<bool> removed(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < removals; ++i) {
    removed[static_cast<std::size_t>(nodes[static_cast<std::size_t>(i)])] =
        true;
    batch.remove_nodes.push_back(
        g.id(nodes[static_cast<std::size_t>(i)]));
  }
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < n; ++v) {
    if (!removed[static_cast<std::size_t>(v)]) survivors.push_back(v);
  }

  // Edge removals among edges both of whose endpoints survive.
  std::vector<std::pair<NodeId, NodeId>> live_edges;
  for (const auto& [u, v] : g.edges()) {
    if (!removed[static_cast<std::size_t>(u)] &&
        !removed[static_cast<std::size_t>(v)]) {
      live_edges.emplace_back(u, v);
    }
  }
  rng.shuffle(live_edges);
  const std::int64_t edge_removals =
      count_of(edge_remove_frac, static_cast<std::int64_t>(live_edges.size()));
  for (std::int64_t i = 0; i < edge_removals; ++i) {
    const auto& [u, v] = live_edges[static_cast<std::size_t>(i)];
    batch.remove_edges.emplace_back(g.id(u), g.id(v));
  }

  batch.add_nodes = count_of(node_add_frac, n);

  // Added edges among survivors: sample non-adjacent pairs, skipping pairs
  // already chosen and pairs whose edge was just removed (re-adding a
  // removed edge in the same batch would be a duplicate in apply_edits).
  std::unordered_set<std::int64_t> taken;
  auto pair_key = [&](NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return static_cast<std::int64_t>(u) * n + v;
  };
  for (std::int64_t i = 0; i < edge_removals; ++i) {
    const auto& [u, v] = live_edges[static_cast<std::size_t>(i)];
    taken.insert(pair_key(u, v));
  }
  const std::int64_t edge_adds =
      count_of(edge_add_frac, static_cast<std::int64_t>(live_edges.size()));
  if (survivors.size() >= 2) {
    std::int64_t added = 0;
    // Bounded retries keep generation O(adds) on dense graphs.
    for (std::int64_t attempt = 0;
         added < edge_adds && attempt < 20 * edge_adds + 100; ++attempt) {
      const NodeId u = survivors[static_cast<std::size_t>(
          rng.next_below(survivors.size()))];
      const NodeId v = survivors[static_cast<std::size_t>(
          rng.next_below(survivors.size()))];
      if (u == v || g.has_edge(u, v) || !taken.insert(pair_key(u, v)).second) {
        continue;
      }
      batch.add_edges.emplace_back(g.id(u), g.id(v));
      ++added;
    }
  }

  // Wire each inserted node to distinct random survivors. Inserted
  // identifiers are known in advance: id_bound + 1 + k.
  for (std::int64_t k = 0; k < batch.add_nodes; ++k) {
    const Value new_id = g.id_bound() + 1 + k;
    std::vector<NodeId> targets = survivors;
    rng.shuffle(targets);
    const std::size_t wires = std::min<std::size_t>(
        targets.size(), static_cast<std::size_t>(
                            std::max(0, new_node_degree)));
    for (std::size_t i = 0; i < wires; ++i) {
      batch.add_edges.emplace_back(new_id, g.id(targets[i]));
    }
  }
  return batch;
}

Graph perturb_edges(const Graph& g, int remove_edges, int add_edges,
                    Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  const std::size_t keep_from = std::min(
      edges.size(), static_cast<std::size_t>(std::max(remove_edges, 0)));
  edges.erase(edges.begin(),
              edges.begin() + static_cast<std::ptrdiff_t>(keep_from));
  const NodeId n = g.num_nodes();
  std::unordered_set<std::uint64_t> present;
  const auto key = [n](NodeId u, NodeId v) {
    return static_cast<std::uint64_t>(std::min(u, v)) *
               static_cast<std::uint64_t>(n) +
           static_cast<std::uint64_t>(std::max(u, v));
  };
  for (const auto& [u, v] : edges) present.insert(key(u, v));
  int added = 0;
  int attempts = 0;
  while (added < add_edges && attempts < 100 * (add_edges + 1) && n >= 2) {
    ++attempts;
    NodeId u = static_cast<NodeId>(rng.next_below(n));
    NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || !present.insert(key(u, v)).second) continue;
    edges.emplace_back(u, v);
    ++added;
  }
  Graph out(n, edges);
  out.set_ids(g.ids());
  out.set_id_bound(g.id_bound());
  return out;
}

}  // namespace dgap
