// Error components and error measures (Sections 4, 5, 8 and 9).
//
// Each problem has a *base algorithm* — a simple pruning algorithm fixed as
// part of the problem definition — and the error components are the
// components of the subgraph induced by the nodes (or edges) that would
// still be active after running it. The functions here replicate the base
// algorithms analytically (they are purely local, constant-round rules), so
// error measures can be computed without spinning up the simulator.
//
// Error measures are maxima of monotone measures over error components:
//   η1   = max component node count                        (μ1, Section 5)
//   η2   = max over components of 2·min{α, τ}               (μ2, Section 5)
//   η_bw = max black/white component node count              (Section 5/9)
//   η_t  = 1 + max height of a monochromatic black/white
//          component in a rooted tree                        (Section 9.2)
//   η_H  = min Hamming distance to a correct solution — the *rejected*
//          global measure, kept for the comparison experiments (Section 5)
#pragma once

#include <vector>

#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "predict/predictions.hpp"

namespace dgap {

// ---- MIS ------------------------------------------------------------------

/// Status of every node after the MIS Base Algorithm:
/// +1 — in the independent set I = {v : x_v = 1, all neighbors predict 0},
///  0 — a neighbor of I (outputs 0), -1 — still active.
std::vector<int> mis_base_status(const Graph& g, const Predictions& pred);

/// Error components: components of the subgraph induced by the active nodes
/// (original internal indices).
std::vector<std::vector<NodeId>> mis_error_components(const Graph& g,
                                                      const Predictions& pred);

int eta1_mis(const Graph& g, const Predictions& pred);
int eta2_mis(const Graph& g, const Predictions& pred);

/// η2 needs the exact independence number, which is exponential in the
/// worst case. For large error components this returns guaranteed bounds
/// instead: the lower bound uses a greedy independent set and a maximal
/// matching (ν(S) ≤ τ(S)), the upper bound their classic complements
/// (α ≤ n − ν, τ ≤ 2ν). lo == hi whenever the bounds meet.
struct Eta2Bounds {
  int lo = 0;
  int hi = 0;
};
Eta2Bounds eta2_mis_bounds(const Graph& g, const Predictions& pred);

/// Black/white measure: max size of a component of the subgraph induced by
/// the active nodes with prediction 1 (black) or 0 (white).
int eta_bw_mis(const Graph& g, const Predictions& pred);

/// Rooted-tree measure: maximum number of nodes on a monochromatic
/// parent-pointer path among active nodes (= 1 + max black/white component
/// height). Zero when the predictions are correct.
int eta_t_mis(const RootedTree& t, const Predictions& pred);

/// Hamming measure: min over maximal independent sets M of the number of
/// nodes whose prediction differs from χ_M. Enumerates maximal independent
/// sets — small graphs only.
int eta_hamming_mis(const Graph& g, const Predictions& pred);

/// The OTHER global measure the paper rejects (Section 5): the sum of the
/// error-component sizes. Like η_H it ignores that components are solved
/// in parallel; kept for the comparison experiments. η1 ≤ η_sum always.
int eta_sum_mis(const Graph& g, const Predictions& pred);

// ---- Maximal Matching -------------------------------------------------------

/// Predictions encode partner *identifiers* (kNoNode = ⊥). Status: +1 for
/// nodes matched by the base algorithm (mutual predictions), 0 for nodes
/// predicting ⊥ whose neighbors are all matched, -1 active.
std::vector<int> matching_base_status(const Graph& g, const Predictions& pred);

std::vector<std::vector<NodeId>> matching_error_components(
    const Graph& g, const Predictions& pred);

int eta1_matching(const Graph& g, const Predictions& pred);

// ---- (Δ+1)-Vertex Coloring --------------------------------------------------

/// Status: +1 for nodes whose predicted color is a legal palette color that
/// differs from every neighbor's prediction, -1 active.
std::vector<int> coloring_base_status(const Graph& g, const Predictions& pred);

std::vector<std::vector<NodeId>> coloring_error_components(
    const Graph& g, const Predictions& pred);

int eta1_coloring(const Graph& g, const Predictions& pred);

// ---- (2Δ−1)-Edge Coloring ---------------------------------------------------

/// One flag per directed-edge slot (indexed by g.edge_slot(v, u)): true
/// iff the base algorithm colors that edge (both endpoints proposed the
/// same legal color, and the proposal was unique at both endpoints). Both
/// slots of an edge agree.
std::vector<bool> edge_coloring_base_colored(const Graph& g,
                                             const Predictions& pred);

/// Components of the subgraph induced by the *uncolored edges*; each
/// component is the set of nodes incident to at least one uncolored edge in
/// that component.
std::vector<std::vector<NodeId>> edge_coloring_error_components(
    const Graph& g, const Predictions& pred);

int eta1_edge_coloring(const Graph& g, const Predictions& pred);

// ---- Shared helpers ---------------------------------------------------------

/// max over components of 2·min{α(S), τ(S)} for an explicit component list.
int mu2_max(const Graph& g,
            const std::vector<std::vector<NodeId>>& components);

/// Largest component size (0 for an empty list).
int mu1_max(const std::vector<std::vector<NodeId>>& components);

}  // namespace dgap
