// Distributed local verification (Section 1.3's locally verifiable graph
// problems, and the yardstick in the paper's definition of consistency).
//
// All four problems in the paper are locally verifiable: hand every node
// its claimed output, exchange outputs with neighbors for one round, and
// decide accept/reject from the 1-hop view. If the claimed solution is
// correct every node accepts; if not, at least one node rejects. The
// paper's consistency definition measures an algorithm's zero-error rounds
// against exactly this verification cost — mis/matching/coloring verifiers
// run in 1 round, which is why consistency 3 (MIS) or 2 (matching,
// coloring) counts as "consistent".
//
// The verifiers are real distributed algorithms run on the simulator (the
// claimed solution is delivered through the prediction channel), so their
// round and message costs are measured, not assumed.
#pragma once

#include <vector>

#include "predict/predictions.hpp"
#include "sim/engine.hpp"

namespace dgap {

struct VerificationResult {
  bool accepted = false;            // true iff every node accepted
  std::vector<NodeId> rejecting;    // nodes that rejected
  int rounds = 0;                   // verification round count
  std::int64_t total_messages = 0;
};

/// MIS: node v accepts iff its bit is consistent with its neighborhood
/// (1 ⇒ no neighbor claims 1; 0 ⇒ some neighbor claims 1). One round.
VerificationResult verify_mis_locally(const Graph& g,
                                      const std::vector<Value>& claimed);

/// Maximal matching: claimed values are partner identifiers or kNoNode.
/// v accepts iff its claim is reciprocated by a neighbor, or it claims ⊥
/// and no neighbor also claims ⊥ while unmatched... precisely: ⊥ requires
/// every neighbor to be matched (to somebody). One round.
VerificationResult verify_matching_locally(const Graph& g,
                                           const std::vector<Value>& claimed);

/// (Δ+1)-vertex coloring: v accepts iff its color is in the palette and
/// differs from every neighbor's. One round.
VerificationResult verify_coloring_locally(const Graph& g,
                                           const std::vector<Value>& claimed,
                                           Value palette);

/// (2Δ−1)-edge coloring: one claimed color per directed-edge slot (v's
/// claim for edge {v, u} at g.edge_slot(v, u); see Predictions::for_edges).
/// v accepts iff its colors are palette colors, pairwise distinct, and
/// each agrees with the co-endpoint's claim. One round.
VerificationResult verify_edge_coloring_locally(
    const Graph& g, const std::vector<Value>& claimed);

}  // namespace dgap
