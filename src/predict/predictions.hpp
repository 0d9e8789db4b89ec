// Prediction containers.
//
// In the paper (Section 1.1) each node i is given a prediction x_i of its
// own output. For node-valued problems (MIS: a bit; matching: a partner
// identifier or ⊥; vertex coloring: a color) a single Value per node
// suffices. For the (2Δ−1)-edge-coloring problem the prediction is a color
// per incident edge, so an optional per-edge table is carried as well:
// one flat array over the graph's directed-edge slots, where v's
// prediction for edge {v, u} sits at g.edge_slot(v, u).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace dgap {

class Predictions {
 public:
  Predictions() = default;

  /// Node-valued predictions; one Value per node (internal index order).
  explicit Predictions(std::vector<Value> node_values);

  /// Edge-valued predictions: one value per directed-edge slot
  /// (g.offsets().back() entries); slot g.edge_slot(v, u) holds v's
  /// prediction for edge {v, u}.
  static Predictions for_edges(const Graph& g, std::vector<Value> edge_values);

  bool has_node_values() const { return !node_.empty(); }
  bool has_edge_values() const { return !edge_.empty(); }

  Value node(NodeId v) const;
  const std::vector<Value>& node_values() const { return node_; }

  /// Predicted value for edge {v, u}, looked up from v's side.
  Value edge(const Graph& g, NodeId v, NodeId u) const;
  const std::vector<Value>& edge_values() const { return edge_; }

 private:
  std::vector<Value> node_;
  std::vector<Value> edge_;  // by Graph::edge_slot
};

}  // namespace dgap
