// Scale guardrails: the simulator and the headline algorithms must handle
// thousand-node instances in well under a second each, and the paper's
// n-independence claims must survive at scale.
#include <gtest/gtest.h>

#include <chrono>

#include "common/rng.hpp"
#include "coloring/linial.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Stress, GreedyMisOnFourThousandNodes) {
  Rng rng(1);
  Graph g = make_gnp(4000, 0.002, rng);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = run_algorithm(g, greedy_mis_algorithm());
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(g, result.outputs));
  EXPECT_LT(seconds_since(t0), 60.0);  // generous: must hold under ASan too
}

TEST(Stress, ParallelTemplateCapHoldsAtScale) {
  // The Corollary 12 cap is independent of n: a 4096-node sorted line
  // with adversarial predictions finishes in the same rounds as a small
  // one, and quickly.
  Graph g = make_line(4096);
  sorted_ids(g);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  const auto t0 = std::chrono::steady_clock::now();
  auto result = run_with_predictions(g, pred, mis_parallel_linial());
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(g, result.outputs));
  const int r1 = linial_total_rounds(g.id_bound(), g.max_degree());
  EXPECT_LE(result.rounds, 3 + r1 + 1 + g.max_degree() + 3);
  EXPECT_LT(seconds_since(t0), 60.0);  // generous: must hold under ASan too
}

TEST(Stress, TreeParallelAtScale) {
  Rng rng(2);
  RootedTree t = make_rooted_random_tree(5000, rng);
  randomize_ids(t.graph, rng);
  auto pred = Predictions(std::vector<Value>(t.graph.num_nodes(), 0));
  const auto t0 = std::chrono::steady_clock::now();
  auto result = run_with_predictions(t.graph, pred, tree_mis_parallel(t));
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(t.graph, result.outputs));
  EXPECT_LE(result.rounds, 30);  // O(log* d) all the way up
  EXPECT_LT(seconds_since(t0), 60.0);  // generous: must hold under ASan too
}

TEST(Stress, ManyComponentsScaleLinearly) {
  Graph g = make_line(8);
  for (int i = 1; i < 500; ++i) g = disjoint_union(g, make_line(8));
  Rng rng(3);
  auto pred = perturbed_provider(400)->provide(g, ProblemKind::kMis, rng);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = run_with_predictions(g, pred, mis_simple_greedy());
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(g, result.outputs));
  EXPECT_LE(result.rounds, 8 + 3);  // components solved in parallel
  EXPECT_LT(seconds_since(t0), 60.0);  // generous: must hold under ASan too
}

}  // namespace
}  // namespace dgap
