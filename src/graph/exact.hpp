// Exact and sequential solvers.
//
// Two uses in this reproduction:
//  * the error measure η2 = max over error components of 2·min{α, τ}
//    (Section 5) needs the exact independence number α; by Gallai's
//    identity τ = n − α, so one exact solver covers both;
//  * η_H (the rejected Hamming error measure) needs the set of *maximal*
//    independent sets — we enumerate them on small graphs;
//  * the prediction generators need *some* correct solution to perturb, so
//    sequential greedy solvers for all four problems live here too.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace dgap {

/// Independence number α(G), exact. Branch and bound with degree-based
/// branching; fine for the component sizes used in tests/benches (≲ 80
/// sparse nodes). Throws if the search exceeds `node_budget` B&B nodes.
int independence_number(const Graph& g, std::int64_t node_budget = 50'000'000);

/// A maximum independent set (witness for α).
std::vector<NodeId> maximum_independent_set(
    const Graph& g, std::int64_t node_budget = 50'000'000);

/// Vertex cover number τ(G) = n − α(G) (Gallai).
int vertex_cover_number(const Graph& g, std::int64_t node_budget = 50'000'000);

/// Enumerate all maximal independent sets of g (equivalently, maximal
/// cliques of the complement), invoking `cb` for each. Exponential; only
/// call on small graphs. Stops early if cb returns false.
void enumerate_maximal_independent_sets(
    const Graph& g, const std::function<bool(const std::vector<NodeId>&)>& cb);

/// Sequential greedy MIS in the given node order (defaults to index order).
/// The result is a maximal independent set — a correct prediction for the
/// MIS problem.
std::vector<bool> sequential_mis(const Graph& g);
std::vector<bool> sequential_mis(const Graph& g,
                                 const std::vector<NodeId>& order);

/// Sequential greedy maximal matching in the given edge order (defaults to
/// g.edges()); result[v] = matched partner or kNoNode.
std::vector<NodeId> sequential_maximal_matching(const Graph& g);
std::vector<NodeId> sequential_maximal_matching(
    const Graph& g, const std::vector<Graph::Edge>& order);

/// Sequential greedy (Δ+1)-vertex coloring in the given node order
/// (defaults to index order); colors are 1..Δ+1.
std::vector<Value> sequential_vertex_coloring(const Graph& g);
std::vector<Value> sequential_vertex_coloring(
    const Graph& g, const std::vector<NodeId>& order);

/// Sequential greedy (2Δ−1)-edge coloring in the given edge order (defaults
/// to g.edges()); returned as one color (1..2Δ−1) per directed-edge slot,
/// indexed by g.edge_slot(v, u). Both slots of an edge agree.
std::vector<Value> sequential_edge_coloring(const Graph& g);
std::vector<Value> sequential_edge_coloring(
    const Graph& g, const std::vector<Graph::Edge>& order);

}  // namespace dgap
