// Randomized differential sweep: many random (graph, prediction,
// algorithm) triples, every output checked, plus the blanket invariants
// that must hold on every instance — valid outputs, consistency at zero
// error, verification agreement, and the robustness caps.
#include <gtest/gtest.h>

#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "edgecoloring/checkers.hpp"
#include "graph/generators.hpp"
#include "matching/checkers.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"
#include "verify/local_verifier.hpp"

namespace dgap {
namespace {

Graph random_instance(Rng& rng) {
  const int kind = static_cast<int>(rng.next_below(7));
  switch (kind) {
    case 0:
      return make_gnp(10 + static_cast<NodeId>(rng.next_below(40)),
                      0.05 + 0.3 * rng.uniform01(), rng);
    case 1: {
      Graph g = make_line(8 + static_cast<NodeId>(rng.next_below(50)));
      randomize_ids(g, rng);
      return g;
    }
    case 2: {
      Graph g = make_ring(8 + static_cast<NodeId>(rng.next_below(50)));
      randomize_ids(g, rng);
      return g;
    }
    case 3: {
      Graph g = make_grid(2 + static_cast<NodeId>(rng.next_below(6)),
                          2 + static_cast<NodeId>(rng.next_below(6)));
      randomize_ids_sparse(g, 10 * g.num_nodes(), rng);
      return g;
    }
    case 4: {
      Graph g =
          make_random_connected(10 + static_cast<NodeId>(rng.next_below(40)),
                                static_cast<std::int64_t>(rng.next_below(40)),
                                rng);
      randomize_ids(g, rng);
      return g;
    }
    case 5: {
      Graph g = make_random_tree(8 + static_cast<NodeId>(rng.next_below(40)),
                                 rng);
      randomize_ids_sparse(g, 1000, rng);
      return g;
    }
    default: {
      Graph g = disjoint_union(
          make_gnp(6 + static_cast<NodeId>(rng.next_below(12)), 0.3, rng),
          make_line(4 + static_cast<NodeId>(rng.next_below(12))));
      randomize_ids(g, rng);
      return g;
    }
  }
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, MisAlgorithms) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Graph g = random_instance(rng);
  const int flips = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(g.num_nodes()) + 1));
  auto pred = perturbed_provider(flips)->provide(g, ProblemKind::kMis, rng);
  const int e1 = eta1_mis(g, pred);
  ProgramFactory (*factories[])() = {
      &mis_simple_greedy,      &mis_consecutive_gather,
      &mis_consecutive_linial, &mis_interleaved_gather,
      &mis_parallel_linial,    &mis_simple_bw};
  for (auto f : factories) {
    auto result = run_with_predictions(g, pred, f());
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
    if (e1 == 0) {
      EXPECT_EQ(result.rounds, 3);
    }
    // The distributed verifier agrees with the checker.
    EXPECT_TRUE(verify_mis_locally(g, result.outputs).accepted);
  }
  // Observation 7's bound as a blanket invariant for the Simple template.
  auto simple = run_with_predictions(g, pred, mis_simple_greedy());
  EXPECT_LE(simple.rounds, e1 + 3);
}

TEST_P(FuzzTest, MatchingAlgorithms) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  Graph g = random_instance(rng);
  const int breaks = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(g.num_nodes()) + 1));
  auto pred =
      perturbed_provider(breaks)->provide(g, ProblemKind::kMatching, rng);
  const int e1 = eta1_matching(g, pred);
  ProgramFactory (*factories[])() = {&matching_simple_greedy,
                                     &matching_consecutive_linegraph,
                                     &matching_parallel_linegraph,
                                     &matching_interleaved_linegraph};
  for (auto f : factories) {
    auto result = run_with_predictions(g, pred, f());
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(is_valid_maximal_matching(g, result.outputs))
        << check_matching(g, result.outputs);
    if (e1 == 0) {
      EXPECT_EQ(result.rounds, 2);
    }
    EXPECT_TRUE(verify_matching_locally(g, result.outputs).accepted);
  }
}

TEST_P(FuzzTest, ColoringAlgorithms) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 3);
  Graph g = random_instance(rng);
  const int scrambles = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(g.num_nodes()) + 1));
  auto pred =
      perturbed_provider(scrambles)->provide(g, ProblemKind::kColoring, rng);
  const int e1 = eta1_coloring(g, pred);
  const Value palette = g.max_degree() + 1;
  ProgramFactory (*factories[])() = {&coloring_simple_greedy,
                                     &coloring_consecutive_linial,
                                     &coloring_parallel_linial,
                                     &coloring_interleaved_linial};
  for (auto f : factories) {
    auto result = run_with_predictions(g, pred, f());
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(is_valid_coloring(g, result.outputs, palette))
        << check_coloring(g, result.outputs, palette);
    if (e1 == 0) {
      EXPECT_EQ(result.rounds, 2);
    }
    EXPECT_TRUE(
        verify_coloring_locally(g, result.outputs, palette).accepted);
  }
}

TEST_P(FuzzTest, EdgeColoringAlgorithms) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843 + 11);
  Graph g = random_instance(rng);
  const int scrambles = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(g.num_edges()) + 1));
  auto pred = perturbed_provider(scrambles)->provide(
      g, ProblemKind::kEdgeColoring, rng);
  const int e1 = eta1_edge_coloring(g, pred);
  ProgramFactory (*factories[])() = {&edge_coloring_simple_greedy,
                                     &edge_coloring_consecutive_linegraph,
                                     &edge_coloring_parallel_linegraph,
                                     &edge_coloring_interleaved_linegraph};
  for (auto f : factories) {
    auto result = run_with_predictions(g, pred, f());
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(is_valid_edge_coloring(g, result.edge_outputs))
        << check_edge_coloring(g, result.edge_outputs);
    if (e1 == 0) {
      EXPECT_EQ(result.rounds, 1);
    }
    std::vector<Value> claimed(g.offsets().back(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (auto [key, c] : result.edge_outputs[v]) {
        claimed[g.edge_slot(v, key)] = c;
      }
    }
    EXPECT_TRUE(verify_edge_coloring_locally(g, claimed).accepted);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace dgap
