#include "predict/generators.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/require.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"

namespace dgap {
namespace {

std::vector<NodeId> random_order(NodeId n, Rng& rng) {
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(order);
  return order;
}

std::vector<std::size_t> distinct_indices(std::size_t count, std::size_t bound,
                                          Rng& rng) {
  count = std::min(count, bound);
  std::vector<std::size_t> all(bound);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng.shuffle(all);
  all.resize(count);
  return all;
}

}  // namespace

// ---- MIS --------------------------------------------------------------------

Predictions mis_correct_prediction(const Graph& g, Rng& rng) {
  auto in = sequential_mis(g, random_order(g.num_nodes(), rng));
  std::vector<Value> x(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) x[i] = in[i] ? 1 : 0;
  return Predictions(std::move(x));
}

Predictions flip_bits(const Graph& g, const Predictions& base, int flips,
                      Rng& rng) {
  DGAP_REQUIRE(base.node_values().size() ==
                   static_cast<std::size_t>(g.num_nodes()),
               "flip_bits: prediction size must match the graph");
  auto x = base.node_values();
  for (std::size_t i :
       distinct_indices(static_cast<std::size_t>(std::max(flips, 0)),
                        x.size(), rng)) {
    x[i] = x[i] == 0 ? 1 : 0;
  }
  return Predictions(std::move(x));
}

Predictions all_same(const Graph& g, Value value) {
  return Predictions(
      std::vector<Value>(static_cast<std::size_t>(g.num_nodes()), value));
}

Predictions grid_stripe_prediction(NodeId w, NodeId h) {
  std::vector<Value> x(static_cast<std::size_t>(w) * h, 0);
  for (NodeId y = 0; y < h; ++y) {
    for (NodeId xcoord = 0; xcoord < w; ++xcoord) {
      const int a = xcoord % 4;
      const int b = y % 4;
      const bool black = (a <= 1 && b <= 1) || (a >= 2 && b >= 2);
      x[grid_index(w, xcoord, y)] = black ? 1 : 0;
    }
  }
  return Predictions(std::move(x));
}

Predictions stale_mis_prediction(const Graph& old_graph,
                                 const Graph& new_graph, Rng& rng) {
  DGAP_REQUIRE(old_graph.num_nodes() == new_graph.num_nodes(),
               "stale predictions need the same node set");
  return mis_correct_prediction(old_graph, rng);
}

Graph perturb_edges(const Graph& g, int remove_edges, int add_edges,
                    Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  const std::size_t keep_from =
      std::min(edges.size(), static_cast<std::size_t>(std::max(remove_edges, 0)));
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

// ---- Maximal Matching -------------------------------------------------------

Predictions matching_correct_prediction(const Graph& g, Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  const auto mate = sequential_maximal_matching(g, edges);
  std::vector<Value> x(mate.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    x[v] = mate[v] == kNoNode ? Value{kNoNode} : g.id(mate[v]);
  }
  return Predictions(std::move(x));
}

Predictions break_matches(const Graph& g, const Predictions& base, int breaks,
                          Rng& rng) {
  auto x = base.node_values();
  // Collect matched pairs (v < partner index) and unmatch a random subset.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (x[v] == kNoNode) continue;
    for (NodeId u : g.neighbors(v)) {
      if (v < u && x[v] == g.id(u) && x[u] == g.id(v)) pairs.emplace_back(v, u);
    }
  }
  rng.shuffle(pairs);
  const std::size_t cut =
      std::min(pairs.size(), static_cast<std::size_t>(std::max(breaks, 0)));
  for (std::size_t i = 0; i < cut; ++i) {
    x[pairs[i].first] = kNoNode;
    x[pairs[i].second] = kNoNode;
  }
  return Predictions(std::move(x));
}

// ---- (Δ+1)-Vertex Coloring --------------------------------------------------

Predictions coloring_correct_prediction(const Graph& g, Rng& rng) {
  return Predictions(
      sequential_vertex_coloring(g, random_order(g.num_nodes(), rng)));
}

Predictions scramble_colors(const Graph& g, const Predictions& base, int flips,
                            Rng& rng) {
  const Value palette = g.max_degree() + 1;
  auto x = base.node_values();
  for (std::size_t i :
       distinct_indices(static_cast<std::size_t>(std::max(flips, 0)),
                        x.size(), rng)) {
    x[i] = rng.uniform(1, palette);
  }
  return Predictions(std::move(x));
}

// ---- (2Δ−1)-Edge Coloring ---------------------------------------------------

Predictions edge_coloring_correct_prediction(const Graph& g, Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  return Predictions::for_edges(g, sequential_edge_coloring(g, edges));
}

Predictions scramble_edge_colors(const Graph& g, const Predictions& base,
                                 int flips, Rng& rng) {
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);
  auto x = base.edge_values();
  auto edges = g.edges();
  rng.shuffle(edges);
  const std::size_t cut =
      std::min(edges.size(), static_cast<std::size_t>(std::max(flips, 0)));
  for (std::size_t i = 0; i < cut; ++i) {
    auto [u, v] = edges[i];
    const Value c = rng.uniform(1, palette);
    // The edge's column in each endpoint's row.
    x[u][g.edge_slot(u, v) - g.offsets()[u]] = c;
    x[v][g.edge_slot(v, u) - g.offsets()[v]] = c;
  }
  return Predictions::for_edges(g, std::move(x));
}

}  // namespace dgap
