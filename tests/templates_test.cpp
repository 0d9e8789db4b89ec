#include <gtest/gtest.h>

#include "coloring/linial.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "mis/gather.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/templates.hpp"

namespace dgap {
namespace {

struct Regime {
  const char* name;
  int flips;  // -1 means all-ones adversarial
};

Predictions make_regime(const Graph& g, const Regime& regime, Rng& rng) {
  const ProviderPtr provider = regime.flips < 0
                                   ? constant_provider(1)
                                   : perturbed_provider(regime.flips);
  return provider->provide(g, ProblemKind::kMis, rng);
}

const Regime kRegimes[] = {
    {"correct", 0}, {"two_flips", 2}, {"six_flips", 6}, {"all_ones", -1}};

class MisTemplateTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

using Factory = ProgramFactory (*)();
Factory kFactories[] = {
    &mis_simple_greedy,      &mis_simple_linial,   &mis_consecutive_gather,
    &mis_consecutive_linial, &mis_interleaved_gather, &mis_parallel_linial,
    &mis_simple_bw,
};
const char* kFactoryNames[] = {
    "simple_greedy",      "simple_linial",      "consecutive_gather",
    "consecutive_linial", "interleaved_gather", "parallel_linial",
    "simple_bw",
};

TEST_P(MisTemplateTest, ValidOutputAcrossRegimesAndGraphs) {
  const auto [factory_index, regime_index] = GetParam();
  Rng rng(1000 + 17 * factory_index + regime_index);
  for (auto make : {+[](Rng& r) { Graph g = make_line(13); randomize_ids(g, r); return g; },
                    +[](Rng& r) { Graph g = make_ring(10); randomize_ids(g, r); return g; },
                    +[](Rng& r) { Graph g = make_grid(4, 4); randomize_ids(g, r); return g; },
                    +[](Rng& r) { return make_gnp(15, 0.25, r); },
                    +[](Rng& r) { Graph g = make_wheel_fk(6); randomize_ids(g, r); return g; }}) {
    Graph g = make(rng);
    auto pred = make_regime(g, kRegimes[regime_index], rng);
    auto result =
        run_with_predictions(g, pred, kFactories[factory_index]());
    EXPECT_TRUE(result.completed)
        << kFactoryNames[factory_index] << " / "
        << kRegimes[regime_index].name;
    EXPECT_TRUE(is_valid_mis(g, result.outputs))
        << kFactoryNames[factory_index] << " / "
        << kRegimes[regime_index].name << ": " << check_mis(g, result.outputs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplatesAllRegimes, MisTemplateTest,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kFactoryNames[std::get<0>(info.param)]) + "_" +
             kRegimes[std::get<1>(info.param)].name;
    });

// ---- Consistency: every template terminates in 3 rounds on correct preds -------

TEST(TemplateConsistency, AllTemplatesConsistencyThree) {
  Rng rng(2);
  Graph g = make_random_connected(40, 20, rng);
  auto pred = exact_provider()->provide(g, ProblemKind::kMis, rng);
  for (int i = 0; i < 7; ++i) {
    auto result = run_with_predictions(g, pred, kFactories[i]());
    EXPECT_TRUE(is_valid_mis(g, result.outputs)) << kFactoryNames[i];
    EXPECT_EQ(result.rounds, 3) << kFactoryNames[i];
  }
}

// ---- Observation 7: Simple(init, Greedy) is η1+3 and η2+4 degrading -------------

TEST(SimpleTemplate, Observation7Bounds) {
  Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g = make_gnp(16, 0.2, rng);
    randomize_ids(g, rng);
    const int errors = static_cast<int>(rng.next_below(10));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    auto result = run_with_predictions(g, pred, mis_simple_greedy());
    const int e1 = eta1_mis(g, pred);
    const int e2 = eta2_mis(g, pred);
    EXPECT_LE(result.rounds, e1 + 3) << "trial " << trial;
    EXPECT_LE(result.rounds, e2 + 4) << "trial " << trial;
  }
}

// ---- Lemma 8: Consecutive is 2f(η)-degrading and robust w.r.t. R ----------------

TEST(ConsecutiveTemplate, Lemma8DegradationAndRobustness) {
  Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.25, rng);
    randomize_ids(g, rng);
    const int errors = static_cast<int>(rng.next_below(8));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    auto result = run_with_predictions(g, pred, mis_consecutive_gather());
    const int e1 = eta1_mis(g, pred);
    // 2f(η) + c(n): f = μ1 for Greedy MIS, c = 3.
    EXPECT_LE(result.rounds, 2 * std::max(e1, 1) + 3 + 2) << "trial " << trial;
    // Robustness: O(r(n)) — the budgeted structure caps the total at
    // c + (r + c') + c' + r.
    const int r = mis_gather_total_rounds(g.num_nodes());
    EXPECT_LE(result.rounds, 3 + (r + 1) + 1 + r);
  }
}

// ---- Lemma 11 / Corollary 12: Parallel = min of the two behaviours -------------

TEST(ParallelTemplate, Corollary12MinBound) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.3, rng);
    randomize_ids(g, rng);
    const int errors = static_cast<int>(rng.next_below(8));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    auto result = run_with_predictions(g, pred, mis_parallel_linial());
    const int e2 = eta2_mis(g, pred);
    const int r1 = linial_total_rounds(g.id_bound(), g.max_degree());
    const int r1_even = r1 + (r1 % 2);
    const int degrading = e2 + 4;
    const int robust = 3 + r1_even + (g.max_degree() + 2);
    EXPECT_LE(result.rounds, std::max(degrading, 3))
        << "trial " << trial << " (degradation side)";
    EXPECT_LE(result.rounds, robust) << "trial " << trial;
  }
}

// The robustness side really bites: with adversarial all-ones predictions
// on a line with sorted ids, Greedy alone would take Θ(n) rounds, but the
// Parallel algorithm is capped by the reference bound, which for fixed Δ
// grows only like log* d.
TEST(ParallelTemplate, RobustnessCapsWorstCase) {
  Graph g = make_line(400);
  sorted_ids(g);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  auto greedy_only = run_with_predictions(g, pred, mis_simple_greedy());
  auto parallel = run_with_predictions(g, pred, mis_parallel_linial());
  EXPECT_TRUE(is_valid_mis(g, parallel.outputs));
  EXPECT_GE(greedy_only.rounds, 150);  // Θ(n)
  const int r1 = linial_total_rounds(g.id_bound(), g.max_degree());
  EXPECT_LE(parallel.rounds, 3 + r1 + 1 + g.max_degree() + 2);
  EXPECT_LT(parallel.rounds, greedy_only.rounds / 4);
}

// ---- Lemma 9 / Corollary 10: Interleaved --------------------------------------

TEST(InterleavedTemplate, DegradationBound) {
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.25, rng);
    randomize_ids(g, rng);
    const int errors = static_cast<int>(rng.next_below(6));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    auto result = run_with_predictions(g, pred, mis_interleaved_gather());
    const int e1 = eta1_mis(g, pred);
    // 2f(η) + c(n) + O(1): segments double, so the U time spent before the
    // solving segment is < 2 f(η) + first-segment slack.
    EXPECT_LE(result.rounds, 2 * std::max(e1, 2) + 3 + 4) << "trial " << trial;
  }
}

TEST(InterleavedTemplate, RobustWorstCase) {
  // All-ones on a sorted line: the gather reference phases solve it in
  // O(n) total rounds even though Greedy alone is also Θ(n); the point is
  // the bound c + 2·Σ r_i holds.
  Graph g = make_line(120);
  sorted_ids(g);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  auto result = run_with_predictions(g, pred, mis_interleaved_gather());
  EXPECT_TRUE(is_valid_mis(g, result.outputs));
  int total_ref = 0;
  for (int i = 1; (1 << i) < 120 - 1; ++i) total_ref += 1 << i;
  total_ref += 1 << [] {
    int m = 1;
    while ((1 << m) < 119) ++m;
    return m;
  }();
  EXPECT_LE(result.rounds, 3 + 2 * total_ref + 2);
}

// ---- Section 9.1: U_bw exploits black/white structure ---------------------------

TEST(BwTemplate, GridStripesFastDespiteHugeEta1) {
  const NodeId w = 12, h = 12;
  Graph g = make_grid(w, h);
  Rng rng(7);
  randomize_ids(g, rng);
  auto pred =
      provide_with_seed(*grid_stripe_provider(w, h), g, ProblemKind::kMis, 0);
  ASSERT_EQ(eta1_mis(g, pred), w * h);
  ASSERT_EQ(eta_bw_mis(g, pred), 4);
  auto bw = run_with_predictions(g, pred, mis_simple_bw());
  EXPECT_TRUE(is_valid_mis(g, bw.outputs)) << check_mis(g, bw.outputs);
  // U_bw processes 4-node monochromatic blocks: constant rounds, far below
  // the grid size.
  EXPECT_LE(bw.rounds, 2 * (2 * 4) + 4);
  auto plain = run_with_predictions(g, pred, mis_simple_greedy());
  EXPECT_TRUE(is_valid_mis(g, plain.outputs));
}

TEST(BwTemplate, ParallelBwCombinesBothWorlds) {
  // Section 9.1's closing remark realized: U_bw in the Parallel template.
  // On the striped grid it inherits U_bw's constant-round behaviour; on an
  // adversarial sorted line it is capped by the Linial reference.
  Rng rng(12);
  {
    Graph g = make_grid(12, 12);
    randomize_ids(g, rng);
    auto pred = provide_with_seed(*grid_stripe_provider(12, 12), g,
                                  ProblemKind::kMis, 0);
    auto r = run_with_predictions(g, pred, mis_parallel_bw());
    EXPECT_TRUE(is_valid_mis(g, r.outputs)) << check_mis(g, r.outputs);
    EXPECT_LE(r.rounds, 24);  // O(eta_bw), far below the grid size
  }
  {
    Graph g = make_line(300);
    sorted_ids(g);
    auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
    auto r = run_with_predictions(g, pred, mis_parallel_bw());
    EXPECT_TRUE(is_valid_mis(g, r.outputs));
    const int r1 = linial_total_rounds(g.id_bound(), g.max_degree());
    EXPECT_LE(r.rounds, 3 + r1 + 1 + 1 + g.max_degree() + 2 + 1);
  }
  // Consistency is inherited from the initialization algorithm.
  {
    Graph g = make_grid(6, 6);
    randomize_ids(g, rng);
    auto pred = exact_provider()->provide(g, ProblemKind::kMis, rng);
    auto r = run_with_predictions(g, pred, mis_parallel_bw());
    EXPECT_EQ(r.rounds, 3);
  }
}

// ---- Trade-off knob (E14): smaller λ favours robustness -------------------------

TEST(TradeoffKnob, LambdaZeroSkipsUniformPhase) {
  Rng rng(8);
  Graph g = make_line(60);
  sorted_ids(g);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  // λ = 0: straight to the reference after init (robust, not degrading).
  auto r0 = run_with_predictions(g, pred, mis_consecutive_linial_lambda(0, 1));
  // λ = 1: full Lemma 8 behaviour.
  auto r1 = run_with_predictions(g, pred, mis_consecutive_linial_lambda(1, 1));
  EXPECT_TRUE(is_valid_mis(g, r0.outputs));
  EXPECT_TRUE(is_valid_mis(g, r1.outputs));
  EXPECT_LT(r0.rounds, r1.rounds);  // bad predictions: skipping U wins
}

}  // namespace
}  // namespace dgap
