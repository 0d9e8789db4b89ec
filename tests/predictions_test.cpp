// The Predictions container: node values, and edge values aligned with
// the adjacency. Where predictions come from is provider_test.cpp.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "predict/predictions.hpp"

namespace dgap {
namespace {

TEST(Predictions, NodeValues) {
  Predictions p(std::vector<Value>{1, 0, 1});
  EXPECT_TRUE(p.has_node_values());
  EXPECT_FALSE(p.has_edge_values());
  EXPECT_EQ(p.node(0), 1);
  EXPECT_EQ(p.node(1), 0);
  EXPECT_THROW(p.node(5), std::invalid_argument);
}

TEST(Predictions, EdgeValuesAlignWithAdjacency) {
  Graph g = make_line(3);
  auto p = Predictions::for_edges(g, {{5}, {5, 6}, {6}});
  EXPECT_EQ(p.edge(g, 0, 1), 5);
  EXPECT_EQ(p.edge(g, 1, 0), 5);
  EXPECT_EQ(p.edge(g, 1, 2), 6);
  EXPECT_THROW(p.edge(g, 0, 2), std::invalid_argument);  // not an edge
}

TEST(Predictions, EdgeValuesRejectMisalignedRows) {
  Graph g = make_line(3);
  EXPECT_THROW(Predictions::for_edges(g, {{5}, {5}, {6}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dgap
