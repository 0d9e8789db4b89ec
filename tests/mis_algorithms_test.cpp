#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"

namespace dgap {
namespace {

// ---- Checkers ----------------------------------------------------------------

TEST(MisCheckers, ValidMisAccepted) {
  Graph g = make_line(4);
  EXPECT_TRUE(is_valid_mis(g, {1, 0, 0, 1}));
  EXPECT_TRUE(is_valid_mis(g, {0, 1, 0, 1}));
}

TEST(MisCheckers, AdjacentOnesRejected) {
  Graph g = make_line(3);
  EXPECT_FALSE(is_valid_mis(g, {1, 1, 0}));
  EXPECT_NE(check_mis(g, {1, 1, 0}).find("both output 1"), std::string::npos);
}

TEST(MisCheckers, NonMaximalRejected) {
  Graph g = make_line(5);
  EXPECT_FALSE(is_valid_mis(g, {1, 0, 0, 0, 1}));  // node 2 uncovered
}

TEST(MisCheckers, MissingOutputRejected) {
  Graph g = make_line(2);
  EXPECT_FALSE(is_valid_mis(g, {1, kUndefined}));
  EXPECT_FALSE(is_valid_mis(g, {1, kLeftoverActive}));
}

TEST(MisCheckers, ExtendablePartialSolutions) {
  Graph g = make_line(5);
  // Node 1 in the set, 0 and 2 out: extendable.
  EXPECT_TRUE(is_extendable_partial_mis(g, {0, 1, 0, kUndefined, kUndefined}));
  // Node 1 in the set but neighbor 2 undecided: NOT extendable.
  EXPECT_FALSE(
      is_extendable_partial_mis(g, {0, 1, kUndefined, kUndefined, kUndefined}));
  // Node 0 out with no decided 1-neighbor: NOT extendable.
  EXPECT_FALSE(
      is_extendable_partial_mis(g, {0, kUndefined, kUndefined, kUndefined,
                                    kUndefined}));
  // Empty partial solution is trivially extendable.
  EXPECT_TRUE(is_extendable_partial_mis(
      g, std::vector<Value>(5, kUndefined)));
}

// ---- Greedy MIS (Algorithm 1) --------------------------------------------------

TEST(GreedyMis, ValidOnFamilies) {
  Rng rng(1);
  for (auto make : {+[]() { return make_line(17); },
                    +[]() { return make_ring(12); },
                    +[]() { return make_clique(8); },
                    +[]() { return make_star(9); },
                    +[]() { return make_grid(5, 4); },
                    +[]() { return make_wheel_fk(7); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_mis_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
  }
}

// Lemma 1: round complexity at most the largest component size.
TEST(GreedyMis, Lemma1RoundBound) {
  Rng rng(2);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g = make_gnp(20, 0.15, rng);
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_mis_algorithm());
    NodeId mu1 = 0;
    for (const auto& comp : connected_components(g)) {
      mu1 = std::max(mu1, static_cast<NodeId>(comp.size()));
    }
    EXPECT_LE(result.rounds, std::max<NodeId>(mu1, 1)) << "trial " << trial;
  }
}

// Lemma 2: round complexity at most μ2 + 1.
TEST(GreedyMis, Lemma2RoundBound) {
  Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g = make_gnp(16, 0.25, rng);
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_mis_algorithm());
    int mu2 = mu2_max(g, connected_components(g));
    EXPECT_LE(result.rounds, mu2 + 1) << "trial " << trial;
  }
}

// Lemma 2 on a clique: 2α = 2, done in ≤ 3 rounds regardless of size.
TEST(GreedyMis, FastOnCliques) {
  Graph g = make_clique(40);
  auto result = run_algorithm(g, greedy_mis_algorithm());
  EXPECT_LE(result.rounds, 3);
  EXPECT_TRUE(is_valid_mis(g, result.outputs));
}

// Lemma 5 tightness: on a line with identifiers increasing left-to-right,
// only the right end makes progress — Θ(n) rounds.
TEST(GreedyMis, WorstCaseLineIsLinear) {
  Graph g = make_line(30);
  sorted_ids(g);
  auto result = run_algorithm(g, greedy_mis_algorithm());
  EXPECT_GE(result.rounds, (30 - 5) / 2);
  EXPECT_TRUE(is_valid_mis(g, result.outputs));
}

// Measure-uniformity: the round count on a subgraph-sized instance does not
// depend on the identifier domain d.
TEST(GreedyMis, MeasureUniformInIdDomain) {
  Rng rng(4);
  Graph g1 = make_ring(9);
  randomize_ids(g1, rng);
  Graph g2 = g1;
  // Same structure, ids spread over a domain 10^6 times larger.
  std::vector<Value> big;
  for (Value id : g1.ids()) big.push_back(id * 1000000);
  g2.set_ids(big);
  auto r1 = run_algorithm(g1, greedy_mis_algorithm());
  auto r2 = run_algorithm(g2, greedy_mis_algorithm());
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.outputs, r2.outputs);
}

// Every prefix of the run is an extendable partial solution at even rounds.
TEST(GreedyMis, PartialSolutionsExtendableAtEvenRounds) {
  Rng rng(5);
  Graph g = make_gnp(14, 0.2, rng);
  randomize_ids(g, rng);
  for (int cut = 2; cut <= 8; cut += 2) {
    EngineOptions opt;
    opt.max_rounds = cut;
    auto result = run_algorithm(g, greedy_mis_algorithm(), opt);
    EXPECT_TRUE(is_extendable_partial_mis(g, result.outputs))
        << "cut at round " << cut;
  }
}

// ---- Base / Init algorithms -----------------------------------------------------

std::vector<Value> run_phase_outputs(const Graph& g, const Predictions& pred,
                                     PhaseFactory factory, int* rounds = nullptr) {
  auto result =
      run_with_predictions(g, pred, phase_as_algorithm(std::move(factory)));
  if (rounds) *rounds = result.rounds;
  return result.outputs;
}

TEST(MisBasePhase, CorrectPredictionOutputsItInThreeRounds) {
  Rng rng(6);
  Graph g = make_grid(4, 4);
  auto pred = exact_provider()->provide(g, ProblemKind::kMis, rng);
  int rounds = 0;
  auto outputs = run_phase_outputs(g, pred, make_mis_base(), &rounds);
  EXPECT_EQ(rounds, kMisBaseRounds);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(outputs[v], pred.node(v)) << "node " << v;
  }
  EXPECT_TRUE(is_valid_mis(g, outputs));
}

TEST(MisBasePhase, MatchesAnalyticStatus) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(15, 0.25, rng);
    randomize_ids(g, rng);
    const int errors = static_cast<int>(rng.next_below(8));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    auto outputs = run_phase_outputs(g, pred, make_mis_base());
    auto status = mis_base_status(g, pred);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (status[v] == -1) {
        EXPECT_EQ(outputs[v], kLeftoverActive);
      } else {
        EXPECT_EQ(outputs[v], status[v]);
      }
    }
    EXPECT_TRUE(is_extendable_partial_mis(g, outputs));
  }
}

TEST(MisBasePhase, PruningProperty) {
  // Every node that outputs, outputs its own prediction.
  Rng rng(8);
  Graph g = make_gnp(15, 0.3, rng);
  auto pred = perturbed_provider(4)->provide(g, ProblemKind::kMis, rng);
  auto outputs = run_phase_outputs(g, pred, make_mis_base());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (mis_output_defined(outputs[v])) {
      EXPECT_EQ(outputs[v], pred.node(v));
    }
  }
}

TEST(MisInitPhase, ContainsBaseSolution) {
  // The init algorithm's independent set contains the base algorithm's
  // (reasonable initialization, Section 4).
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(15, 0.25, rng);
    randomize_ids(g, rng);
    const int errors = static_cast<int>(rng.next_below(8));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    auto base = run_phase_outputs(g, pred, make_mis_base());
    auto init = run_phase_outputs(g, pred, make_mis_init());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (base[v] == 1) {
        EXPECT_EQ(init[v], 1) << "node " << v;
      }
    }
    EXPECT_TRUE(is_extendable_partial_mis(g, init));
  }
}

TEST(MisInitPhase, BreaksTiesByIdentifierAmongAdjacentOnes) {
  Graph g = make_line(2);  // ids 1, 2; both predict 1
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  auto outputs = run_phase_outputs(g, pred, make_mis_init());
  EXPECT_EQ(outputs[1], 1);  // larger id wins
  EXPECT_EQ(outputs[0], 0);
}

TEST(MisInitPhase, ConsistencyIsThreeRounds) {
  Rng rng(10);
  Graph g = make_random_connected(30, 12, rng);
  auto pred = exact_provider()->provide(g, ProblemKind::kMis, rng);
  int rounds = 0;
  auto outputs = run_phase_outputs(g, pred, make_mis_init(), &rounds);
  EXPECT_EQ(rounds, kMisInitRounds);
  EXPECT_TRUE(is_valid_mis(g, outputs));
}

// ---- Cleanup ---------------------------------------------------------------------

TEST(MisCleanup, CoversNeighborsOfWinners) {
  // Run greedy for exactly 1 round (odd cutoff): winners exist whose
  // neighbors are undecided; one cleanup round restores extendability.
  Rng rng(11);
  Graph g = make_gnp(12, 0.3, rng);
  randomize_ids(g, rng);
  auto cut = [&](int rounds) {
    EngineOptions opt;
    opt.max_rounds = rounds;
    return run_algorithm(g, greedy_mis_algorithm(), opt);
  };
  auto after1 = cut(1);
  // Typically not extendable after an odd round (winners uncovered).
  std::vector<std::unique_ptr<PhaseProgram>> unused;
  auto combined = phase_as_algorithm([&](NodeId) {
    std::vector<std::unique_ptr<PhaseProgram>> phases;
    phases.push_back(std::make_unique<BudgetedPhase>(
        std::make_unique<GreedyMisPhase>(), 1, true));
    phases.push_back(std::make_unique<MisCleanupPhase>());
    return std::make_unique<SequencePhase>(std::move(phases));
  });
  auto result = run_algorithm(g, combined, EngineOptions{.max_rounds = 2});
  EXPECT_TRUE(is_extendable_partial_mis(g, result.outputs));
  (void)after1;
}

// ---- Coloring → MIS (part 2 of Corollary 12's reference) ---------------------------

TEST(ColorToMis, ProducesValidMisFromSequentialColoring) {
  Rng rng(12);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.3, rng);
    randomize_ids(g, rng);
    // Color with the sequential solver, then run only part 2.
    auto colors = std::make_shared<std::vector<Value>>(
        [&] {
          std::vector<Value> c;
          Graph copy = g;
          for (NodeId v = 0; v < g.num_nodes(); ++v) c.push_back(0);
          return c;
        }());
    {
      // Greedy proper coloring.
      const Value palette = g.max_degree() + 1;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
        for (NodeId u : g.neighbors(v)) {
          if ((*colors)[u] >= 1) used[(*colors)[u]] = true;
        }
        for (Value c = 1; c <= palette; ++c) {
          if (!used[c]) {
            (*colors)[v] = c;
            break;
          }
        }
      }
    }
    const Value palette = g.max_degree() + 1;
    auto factory = phase_as_algorithm([colors, palette, &g](NodeId v) {
      return std::make_unique<ColorToMisPhase>(
          palette, [colors, v] { return (*colors)[v]; },
          [colors](NodeId u) { return (*colors)[u]; });
    });
    auto result = run_algorithm(g, factory);
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs))
        << check_mis(g, result.outputs);
    EXPECT_LE(result.rounds, palette + 1);
  }
}

}  // namespace
}  // namespace dgap
