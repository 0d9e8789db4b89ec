// Template assemblies for the Section 8 problems: Maximal Matching,
// (Δ+1)-Vertex Coloring, (2Δ−1)-Edge Coloring — validity across prediction
// regimes, consistency constants, reference round bounds independent of n,
// and the robustness caps.
#include <gtest/gtest.h>

#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "edgecoloring/checkers.hpp"
#include "edgecoloring/linegraph.hpp"
#include "graph/generators.hpp"
#include "matching/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/problems_with_predictions.hpp"

namespace dgap {
namespace {

const char* kThreeTemplateNames[] = {"simple", "consecutive", "parallel",
                                     "interleaved"};

Graph test_graph(int index, Rng& rng) {
  switch (index % 5) {
    case 0: {
      Graph g = make_line(14);
      randomize_ids(g, rng);
      return g;
    }
    case 1: {
      Graph g = make_ring(11);
      randomize_ids(g, rng);
      return g;
    }
    case 2: {
      Graph g = make_grid(4, 4);
      randomize_ids(g, rng);
      return g;
    }
    case 3:
      return make_gnp(15, 0.25, rng);
    default: {
      Graph g = disjoint_union(make_clique(5), make_line(7));
      randomize_ids(g, rng);
      return g;
    }
  }
}

// ---- Line-graph Linial reference (standalone) ---------------------------------

TEST(LineGraphLinial, ProducesValidEdgeColoring) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    auto result = run_algorithm(g, line_graph_edge_coloring_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_edge_coloring(g, result.edge_outputs))
        << "graph " << i << ": "
        << check_edge_coloring(g, result.edge_outputs);
  }
}

TEST(LineGraphLinial, RoundsIndependentOfN) {
  // Fixed Δ = 2 and fixed identifier domain: the same round count on a
  // ring of 12 and a ring of 200.
  Rng rng(2);
  Graph small = make_ring(12);
  Graph large = make_ring(200);
  randomize_ids_sparse(small, 4000, rng);
  randomize_ids_sparse(large, 4000, rng);
  auto rs = run_algorithm(small, line_graph_edge_coloring_algorithm());
  auto rl = run_algorithm(large, line_graph_edge_coloring_algorithm());
  EXPECT_EQ(rs.rounds, rl.rounds);
  EXPECT_LE(rl.rounds, line_graph_linial_total_rounds(4000, 2) + 1);
}

TEST(LineGraphLinial, MessageWidthBoundedByDegree) {
  Rng rng(3);
  Graph g = make_grid(5, 5);  // Δ = 4
  randomize_ids(g, rng);
  auto result = run_algorithm(g, line_graph_edge_coloring_algorithm());
  // [count, (id,color)*deg, count, used*deg] ≤ 2 + 3Δ words.
  EXPECT_LE(result.max_message_words, 2 + 3 * g.max_degree());
}

// ---- Matching assemblies --------------------------------------------------------

using MatchingFactory = ProgramFactory (*)();
class MatchingTemplates : public ::testing::TestWithParam<int> {};

TEST_P(MatchingTemplates, ValidAcrossRegimes) {
  MatchingFactory factories[] = {&matching_simple_greedy,
                                 &matching_consecutive_linegraph,
                                 &matching_parallel_linegraph,
                                 &matching_interleaved_linegraph};
  auto factory = factories[GetParam()];
  Rng rng(100 + GetParam());
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int breaks : {0, 2, 100}) {
      auto pred = provide_with_seed(*perturbed_provider(breaks), g,
                                    ProblemKind::kMatching, seed);
      auto result = run_with_predictions(g, pred, factory());
      ASSERT_TRUE(result.completed) << "graph " << i << " breaks " << breaks;
      EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs))
          << "graph " << i << " breaks " << breaks << ": "
          << check_matching(g, result.outputs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, MatchingTemplates, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kThreeTemplateNames[info.param]);
                         });

TEST(MatchingTemplates, ConsistencyTwoRounds) {
  Rng rng(7);
  Graph g = make_grid(5, 5);
  randomize_ids(g, rng);
  auto pred = exact_provider()->provide(g, ProblemKind::kMatching, rng);
  for (auto factory : {&matching_simple_greedy,
                       &matching_consecutive_linegraph,
                       &matching_parallel_linegraph,
                       &matching_interleaved_linegraph}) {
    auto result = run_with_predictions(g, pred, (*factory)());
    EXPECT_EQ(result.rounds, 2);
    EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs));
  }
}

TEST(MatchingTemplates, RobustnessCapsWorstCase) {
  // All-⊥ predictions on a sorted line: the uniform matcher alone needs
  // ~3n/2 rounds, the reference-capped templates stay near the line-graph
  // Linial bound (independent of n for fixed Δ and d).
  Graph g = make_line(240);
  sorted_ids(g);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), kNoNode));
  auto simple = run_with_predictions(g, pred, matching_simple_greedy());
  auto consecutive =
      run_with_predictions(g, pred, matching_consecutive_linegraph());
  auto parallel =
      run_with_predictions(g, pred, matching_parallel_linegraph());
  EXPECT_TRUE(is_valid_maximal_matching(g, consecutive.outputs));
  EXPECT_TRUE(is_valid_maximal_matching(g, parallel.outputs));
  EXPECT_GE(simple.rounds, 200);  // Θ(n)
  const int ref = matching_reference_total_rounds(g.id_bound(),
                                                  g.max_degree());
  EXPECT_LE(consecutive.rounds, 2 + (ref + 1) + 1 + ref + 3);
  EXPECT_LE(parallel.rounds,
            2 + line_graph_linial_total_rounds(g.id_bound(), g.max_degree()) +
                3 + 1 + 2 * g.max_degree() + 2);
  EXPECT_LT(parallel.rounds, simple.rounds / 2);
}

// ---- Vertex-coloring assemblies ---------------------------------------------------

class ColoringTemplates : public ::testing::TestWithParam<int> {};

TEST_P(ColoringTemplates, ValidAcrossRegimes) {
  using Factory = ProgramFactory (*)();
  Factory factories[] = {&coloring_simple_greedy,
                         &coloring_consecutive_linial,
                         &coloring_parallel_linial,
                         &coloring_interleaved_linial};
  auto factory = factories[GetParam()];
  Rng rng(200 + GetParam());
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int scrambles : {0, 3, 100}) {
      auto pred = provide_with_seed(*perturbed_provider(scrambles), g,
                                    ProblemKind::kColoring, seed);
      auto result = run_with_predictions(g, pred, factory());
      ASSERT_TRUE(result.completed)
          << "graph " << i << " scrambles " << scrambles;
      EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1))
          << "graph " << i << " scrambles " << scrambles << ": "
          << check_coloring(g, result.outputs, g.max_degree() + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, ColoringTemplates, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kThreeTemplateNames[info.param]);
                         });

TEST(ColoringTemplates, ConsistencyTwoRounds) {
  Rng rng(8);
  Graph g = make_grid(5, 5);
  randomize_ids(g, rng);
  auto pred = exact_provider()->provide(g, ProblemKind::kColoring, rng);
  for (auto factory : {&coloring_simple_greedy, &coloring_consecutive_linial,
                       &coloring_parallel_linial,
                       &coloring_interleaved_linial}) {
    auto result = run_with_predictions(g, pred, (*factory)());
    EXPECT_EQ(result.rounds, 2);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1));
  }
}

TEST(ColoringTemplates, ParallelCapIndependentOfN) {
  // Same Δ, same d: the Parallel coloring's worst-case rounds should not
  // grow with n (all predictions illegal → pure robustness regime).
  Rng rng(9);
  Graph small = make_ring(16);
  Graph large = make_ring(400);
  randomize_ids_sparse(small, 1000, rng);
  randomize_ids_sparse(large, 1000, rng);
  // Out-of-palette predictions.
  auto bad_small = Predictions(std::vector<Value>(small.num_nodes(), 99));
  auto bad_large = Predictions(std::vector<Value>(large.num_nodes(), 99));
  auto rs = run_with_predictions(small, bad_small, coloring_parallel_linial());
  auto rl = run_with_predictions(large, bad_large, coloring_parallel_linial());
  EXPECT_TRUE(is_valid_coloring(large, rl.outputs, 3));
  EXPECT_LE(std::abs(rl.rounds - rs.rounds), 2);
}

// ---- Edge-coloring assemblies -----------------------------------------------------

class EdgeColoringTemplates : public ::testing::TestWithParam<int> {};

TEST_P(EdgeColoringTemplates, ValidAcrossRegimes) {
  using Factory = ProgramFactory (*)();
  Factory factories[] = {&edge_coloring_simple_greedy,
                         &edge_coloring_consecutive_linegraph,
                         &edge_coloring_parallel_linegraph,
                         &edge_coloring_interleaved_linegraph};
  auto factory = factories[GetParam()];
  Rng rng(300 + GetParam());
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int scrambles : {0, 3, 100}) {
      auto pred = provide_with_seed(*perturbed_provider(scrambles), g,
                                    ProblemKind::kEdgeColoring, seed);
      auto result = run_with_predictions(g, pred, factory());
      ASSERT_TRUE(result.completed)
          << "graph " << i << " scrambles " << scrambles;
      EXPECT_TRUE(is_valid_edge_coloring(g, result.edge_outputs))
          << "graph " << i << " scrambles " << scrambles << ": "
          << check_edge_coloring(g, result.edge_outputs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, EdgeColoringTemplates, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kThreeTemplateNames[info.param]);
                         });

TEST(EdgeColoringTemplates, ConsistencyOneRound) {
  Rng rng(10);
  Graph g = make_grid(5, 5);
  randomize_ids(g, rng);
  auto pred = exact_provider()->provide(g, ProblemKind::kEdgeColoring, rng);
  for (auto factory : {&edge_coloring_simple_greedy,
                       &edge_coloring_consecutive_linegraph,
                       &edge_coloring_parallel_linegraph,
                       &edge_coloring_interleaved_linegraph}) {
    auto result = run_with_predictions(g, pred, (*factory)());
    EXPECT_EQ(result.rounds, 1);
    EXPECT_TRUE(is_valid_edge_coloring(g, result.edge_outputs));
  }
}

TEST(EdgeColoringTemplates, ConsecutiveCapIndependentOfN) {
  Rng rng(11);
  Graph small = make_ring(16);
  Graph large = make_ring(300);
  randomize_ids_sparse(small, 2000, rng);
  randomize_ids_sparse(large, 2000, rng);
  // Same illegal prediction everywhere → pure robustness regime.
  auto bad_small =
      Predictions::for_edges(small, std::vector<Value>(2 * 16, 99));
  auto bad_large =
      Predictions::for_edges(large, std::vector<Value>(2 * 300, 99));
  auto rs = run_with_predictions(small, bad_small,
                                 edge_coloring_consecutive_linegraph());
  auto rl = run_with_predictions(large, bad_large,
                                 edge_coloring_consecutive_linegraph());
  EXPECT_TRUE(is_valid_edge_coloring(large, rl.edge_outputs));
  // The cap is a pure function of (d, Δ): base + U budget + reference.
  const int ref = line_graph_linial_total_rounds(2000, 2) + 1;
  const int cap = 2 + (ref + 1) + ref;
  EXPECT_LE(rl.rounds, cap);
  EXPECT_LE(std::abs(rl.rounds - rs.rounds), 6);
}

}  // namespace
}  // namespace dgap
