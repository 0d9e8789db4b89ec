#include "predict/predictions.hpp"

#include "common/require.hpp"

namespace dgap {

Predictions::Predictions(std::vector<Value> node_values)
    : node_(std::move(node_values)) {}

Predictions Predictions::for_edges(const Graph& g,
                                   std::vector<Value> edge_values) {
  DGAP_REQUIRE(edge_values.size() == g.offsets().back(),
               "edge predictions need one value per directed-edge slot");
  Predictions p;
  p.edge_ = std::move(edge_values);
  return p;
}

Value Predictions::node(NodeId v) const {
  DGAP_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < node_.size(),
               "no node prediction for this node");
  return node_[v];
}

Value Predictions::edge(const Graph& g, NodeId v, NodeId u) const {
  const std::uint32_t slot = g.edge_slot(v, u);
  DGAP_REQUIRE(slot != Graph::kNoSlot, "edge(v,u) not in the graph");
  DGAP_REQUIRE(slot < edge_.size(), "no edge prediction for this edge");
  return edge_[slot];
}

}  // namespace dgap
