#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"

namespace dgap {
namespace {

// ---- MIS base status / error components -------------------------------------

TEST(MisBase, CorrectPredictionDecidesEverything) {
  Rng rng(1);
  Graph g = make_grid(5, 5);
  auto pred = exact_provider()->provide(g, ProblemKind::kMis, rng);
  auto status = mis_base_status(g, pred);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_NE(status[v], -1);
  EXPECT_TRUE(mis_error_components(g, pred).empty());
}

TEST(MisBase, AllOnesLeavesEverythingActiveOnEdgyGraphs) {
  // With every prediction 1, no node has all-zero neighbors (unless
  // isolated), so the base algorithm decides nothing.
  Graph g = make_ring(6);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  auto comps = mis_error_components(g, pred);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 6u);
  EXPECT_EQ(eta1_mis(g, pred), 6);
}

TEST(MisBase, AllZerosLeavesEverythingActive) {
  Graph g = make_line(7);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 0));
  EXPECT_EQ(eta1_mis(g, pred), 7);
}

TEST(MisBase, IsolatedNodePredictingOneIsDecided) {
  Graph g(3);  // three isolated nodes
  Predictions pred(std::vector<Value>{1, 0, 1});
  auto status = mis_base_status(g, pred);
  EXPECT_EQ(status[0], 1);
  EXPECT_EQ(status[1], -1);  // 0 with no 1-neighbor: not maximal, active
  EXPECT_EQ(status[2], 1);
}

TEST(MisBase, TwoAdjacentOnesStayActive) {
  Graph g = make_line(2);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  auto status = mis_base_status(g, pred);
  EXPECT_EQ(status[0], -1);
  EXPECT_EQ(status[1], -1);
}

TEST(MisErrorComponents, LocalizedFlipGivesLocalError) {
  // Line 0-1-...-19 with the unique "even positions" MIS; flipping one
  // prediction creates a small error component, not a global one.
  Graph g = make_line(20);
  std::vector<Value> x(20, 0);
  for (NodeId v = 0; v < 20; v += 2) x[v] = 1;
  Predictions correct{x};
  EXPECT_EQ(eta1_mis(g, correct), 0);
  x[10] = 0;  // now 9,10,11 are all-zero around 10
  Predictions bad{x};
  const int e1 = eta1_mis(g, bad);
  EXPECT_GT(e1, 0);
  EXPECT_LE(e1, 5);
}

// ---- η2 ≤ η1 (paper inequality) ---------------------------------------------

TEST(ErrorMeasures, Eta2AtMostEta1Everywhere) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = make_gnp(18, 0.2, rng);
    const int errors = static_cast<int>(rng.next_below(10));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    EXPECT_LE(eta2_mis(g, pred), eta1_mis(g, pred)) << "trial " << trial;
  }
}

TEST(ErrorMeasures, CliqueAllOnes_Eta2IsTwo) {
  // μ2(K_k) = 2·min{α, τ} = 2·min{1, k−1} = 2, while μ1 = k.
  Graph g = make_clique(8);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  EXPECT_EQ(eta1_mis(g, pred), 8);
  EXPECT_EQ(eta2_mis(g, pred), 2);
}

TEST(ErrorMeasures, StarAllOnes_Eta2IsTwo) {
  // τ(star) = 1, so μ2 = 2 though μ1 = n.
  Graph g = make_star(9);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  EXPECT_EQ(eta1_mis(g, pred), 9);
  EXPECT_EQ(eta2_mis(g, pred), 2);
}

// ---- η_bw (Section 5 / Figure 2) --------------------------------------------

TEST(ErrorMeasures, EtaBwAtMostEta1) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = make_gnp(18, 0.25, rng);
    const int errors = static_cast<int>(rng.next_below(12));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    EXPECT_LE(eta_bw_mis(g, pred), eta1_mis(g, pred));
  }
}

TEST(ErrorMeasures, Figure2Grid_Eta1IsN_EtaBwIsFour) {
  // The 4-striped grid: every node is active after the base algorithm
  // (each black node has a black neighbor; each white node has only
  // white/black-undecided neighbors), η1 = n but η_bw = 4.
  const NodeId w = 16, h = 16;
  Graph g = make_grid(w, h);
  auto pred =
      provide_with_seed(*grid_stripe_provider(w, h), g, ProblemKind::kMis, 0);
  EXPECT_EQ(eta1_mis(g, pred), w * h);
  EXPECT_EQ(eta_bw_mis(g, pred), 4);
}

TEST(ErrorMeasures, AllSamePredictionMakesEtaBwEqualEta1) {
  Graph g = make_ring(8);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  EXPECT_EQ(eta_bw_mis(g, pred), eta1_mis(g, pred));
}

// ---- η_t (Section 9.2) -------------------------------------------------------

TEST(ErrorMeasures, EtaTDirectedLineExample) {
  // Paper example: a directed line of 3k nodes, white at distance ≡ 0
  // (mod 3) from the root, black otherwise. η1 = 3k but η_t = 2.
  const NodeId k = 6;
  RootedTree t = make_rooted_line(3 * k);
  std::vector<Value> x(static_cast<std::size_t>(3 * k), 1);
  for (NodeId v = 0; v < 3 * k; v += 3) x[v] = 0;
  Predictions pred{x};
  EXPECT_EQ(eta1_mis(t.graph, pred), 3 * k);
  EXPECT_EQ(eta_t_mis(t, pred), 2);
}

TEST(ErrorMeasures, EtaTAtMostEtaBw) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    RootedTree t = make_rooted_random_tree(25, rng);
    const int errors = static_cast<int>(rng.next_below(12));
    auto pred =
        perturbed_provider(errors)->provide(t.graph, ProblemKind::kMis, rng);
    EXPECT_LE(eta_t_mis(t, pred), eta_bw_mis(t.graph, pred));
    EXPECT_LE(eta_bw_mis(t.graph, pred), eta1_mis(t.graph, pred));
  }
}

TEST(ErrorMeasures, EtaTZeroOnCorrectPredictions) {
  Rng rng(5);
  RootedTree t = make_rooted_binary_tree(4);
  auto pred = exact_provider()->provide(t.graph, ProblemKind::kMis, rng);
  EXPECT_EQ(eta_t_mis(t, pred), 0);
}

// ---- η_H (the rejected global measure) ---------------------------------------

TEST(ErrorMeasures, HammingZeroIffPredictionIsSomeMis) {
  Graph g = make_line(4);
  Predictions good(std::vector<Value>{1, 0, 0, 1});
  EXPECT_EQ(eta_hamming_mis(g, good), 0);
  Predictions bad(std::vector<Value>{1, 1, 0, 1});
  EXPECT_GT(eta_hamming_mis(g, bad), 0);
}

TEST(ErrorMeasures, HammingIsGlobalWhileEta1IsLocal) {
  // Many disjoint broken triangles: η_H grows with the number of
  // components, η1 stays at the size of one component. This is exactly
  // why the paper rejects η_H (Section 5).
  Graph one = make_clique(3);
  Graph g = one;
  for (int i = 0; i < 4; ++i) g = disjoint_union(g, one);
  // Every triangle fully wrong.
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  EXPECT_EQ(eta1_mis(g, pred), 3);
  EXPECT_GE(eta_hamming_mis(g, pred), 5 * 2);  // 2 flips per triangle
}

TEST(ErrorMeasures, Eta2BoundsSandwichExactValue) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g = make_gnp(16, 0.25, rng);
    const int errors = static_cast<int>(rng.next_below(10));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    const int exact = eta2_mis(g, pred);
    const auto bounds = eta2_mis_bounds(g, pred);
    EXPECT_LE(bounds.lo, exact) << "trial " << trial;
    EXPECT_GE(bounds.hi, exact) << "trial " << trial;
    EXPECT_LE(bounds.lo, bounds.hi);
  }
}

TEST(ErrorMeasures, Eta2BoundsScaleToLargeComponents) {
  // A 3000-node instance whose exact α would be expensive: the bounds are
  // instant and still informative.
  Graph g = make_ring(3000);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  const auto bounds = eta2_mis_bounds(g, pred);
  EXPECT_GT(bounds.lo, 1000);   // α and τ are both ~n/2 or more
  EXPECT_LE(bounds.hi, 3001);
  EXPECT_LE(bounds.lo, bounds.hi);
}

TEST(ErrorMeasures, SumMeasureDominatesEta1) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(18, 0.2, rng);
    const int errors = static_cast<int>(rng.next_below(10));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    EXPECT_GE(eta_sum_mis(g, pred), eta1_mis(g, pred));
  }
  // Disjoint components make the gap arbitrarily large.
  Graph g = make_clique(3);
  for (int i = 1; i < 6; ++i) g = disjoint_union(g, make_clique(3));
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  EXPECT_EQ(eta1_mis(g, pred), 3);
  EXPECT_EQ(eta_sum_mis(g, pred), 18);
}

// ---- Monotonicity of μ1 (Section 5 requirement) -------------------------------

TEST(ErrorMeasures, Mu1MonotoneUnderErrorRemoval) {
  // Fixing one wrong prediction never increases η1 on a line.
  Graph g = make_line(12);
  std::vector<Value> x(12, 0);
  for (NodeId v = 0; v < 12; v += 2) x[v] = 1;
  x[4] = 0;
  x[8] = 0;  // two errors
  const int before = eta1_mis(g, Predictions{x});
  x[8] = 1;  // remove one error
  const int after = eta1_mis(g, Predictions{x});
  EXPECT_LE(after, before);
}

// ---- Figure 1: diameter is NOT monotone --------------------------------------

TEST(ErrorMeasures, WheelDiameterNonMonotonicity) {
  // F_k: the whole graph has diameter 4, yet the induced rim component —
  // an error component when the hub predicts 1 and the rest 0 — has
  // diameter ⌊k/2⌋ > 4. So "max diameter of an error component" would
  // *increase* when predictions improve: not a valid error measure.
  const NodeId k = 12;
  Graph g = make_wheel_fk(k);
  std::vector<Value> x(static_cast<std::size_t>(2 * k + 1), 0);
  x[0] = 1;  // hub predicted in, everything else out
  Predictions hub_only{x};
  auto comps = mis_error_components(g, hub_only);
  ASSERT_EQ(comps.size(), 1u);
  auto [rim, map] = g.induced(comps[0]);
  EXPECT_EQ(diameter(rim), k / 2);

  // Strictly worse predictions.
  auto worse = Predictions(std::vector<Value>(g.num_nodes(), 1));
  auto comps2 = mis_error_components(g, worse);
  ASSERT_EQ(comps2.size(), 1u);
  auto [whole, map2] = g.induced(comps2[0]);
  EXPECT_EQ(diameter(whole), 4);
  EXPECT_GT(diameter(rim), diameter(whole));  // the anomaly
}

// ---- Other problems' error components -----------------------------------------

TEST(MatchingBase, MutualPredictionsMatch) {
  Graph g = make_line(4);  // ids 1,2,3,4
  Predictions pred(std::vector<Value>{2, 1, kNoNode, kNoNode});
  auto status = matching_base_status(g, pred);
  EXPECT_EQ(status[0], 1);
  EXPECT_EQ(status[1], 1);
  EXPECT_EQ(status[2], -1);  // ⊥ but neighbor 3 is unmatched
  EXPECT_EQ(status[3], -1);
}

TEST(MatchingBase, NonReciprocalPredictionIgnored) {
  Graph g = make_line(3);
  Predictions pred(std::vector<Value>{2, 3, 2});  // 1→2 not reciprocated
  auto status = matching_base_status(g, pred);
  EXPECT_EQ(status[0], -1);
  EXPECT_EQ(status[1], 1);
  EXPECT_EQ(status[2], 1);
}

TEST(ColoringBase, DistinctPredictionsDecided) {
  Graph g = make_line(3);
  Predictions pred(std::vector<Value>{1, 2, 1});
  auto status = coloring_base_status(g, pred);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(status[v], 1);
  EXPECT_EQ(eta1_coloring(g, pred), 0);
}

TEST(ColoringBase, ClashingAndIllegalPredictionsActive) {
  Graph g = make_line(3);  // Δ = 2, palette {1,2,3}
  Predictions pred(std::vector<Value>{2, 2, 9});
  auto status = coloring_base_status(g, pred);
  EXPECT_EQ(status[0], -1);
  EXPECT_EQ(status[1], -1);
  EXPECT_EQ(status[2], -1);  // out of palette
  EXPECT_EQ(eta1_coloring(g, pred), 3);
}

TEST(EdgeColoringBase, CorrectPredictionColorsEverything) {
  Rng rng(6);
  Graph g = make_ring(6);
  auto pred = exact_provider()->provide(g, ProblemKind::kEdgeColoring, rng);
  auto colored = edge_coloring_base_colored(g, pred);
  for (NodeId v = 0; v < 6; ++v) {
    for (bool c : colored[v]) EXPECT_TRUE(c);
  }
  EXPECT_TRUE(edge_coloring_error_components(g, pred).empty());
}

TEST(EdgeColoringBase, MismatchedEdgeStaysUncolored) {
  Graph g = make_line(3);  // Δ=2, palette {1,2,3}
  auto pred = Predictions::for_edges(g, {{1}, {2, 3}, {3}});
  auto colored = edge_coloring_base_colored(g, pred);
  EXPECT_FALSE(colored[0][0]);  // 1 vs 2 disagree
  EXPECT_TRUE(colored[1][1]);   // 3 == 3
  const auto comps = edge_coloring_error_components(g, pred);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 2u);  // nodes 0 and 1
  EXPECT_EQ(eta1_edge_coloring(g, pred), 2);
}

TEST(EdgeColoringBase, DuplicateProposalAtEndpointBlocksBoth) {
  // Node 1 predicts color 1 on both incident edges: neither proposal is
  // unique, so neither edge is colored even if the other side agrees.
  Graph g = make_line(3);
  auto pred = Predictions::for_edges(g, {{1}, {1, 1}, {1}});
  auto colored = edge_coloring_base_colored(g, pred);
  EXPECT_FALSE(colored[0][0]);
  EXPECT_FALSE(colored[1][0]);
  EXPECT_FALSE(colored[1][1]);
}

}  // namespace
}  // namespace dgap
