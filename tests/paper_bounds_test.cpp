// Parameterized per-instance verification of the paper's quantitative
// claims. Every instance in the sweep must satisfy the corresponding
// inequality exactly as stated (with the constants our constructions
// achieve) — not merely on average.
#include <gtest/gtest.h>

#include "coloring/linial.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "mis/gather.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

struct SweepCase {
  const char* family;
  int size;
  int flips;
};

std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
  return os << c.family << "_" << c.size << "_f" << c.flips;
}

Graph build(const SweepCase& c, Rng& rng) {
  Graph g;
  const std::string f = c.family;
  if (f == "line") {
    g = make_line(c.size);
  } else if (f == "ring") {
    g = make_ring(c.size);
  } else if (f == "grid") {
    g = make_grid(c.size, c.size);
  } else if (f == "gnp") {
    g = make_gnp(c.size, 0.2, rng);
  } else if (f == "tree") {
    g = make_random_tree(c.size, rng);
  } else {
    g = make_wheel_fk(c.size);
  }
  randomize_ids(g, rng);
  return g;
}

class PaperBoundsTest : public ::testing::TestWithParam<SweepCase> {};

// Observation 7 + Lemmas 1/2: Simple(Init, Greedy) obeys both η1+3 and
// η2+4 on every instance.
TEST_P(PaperBoundsTest, Observation7) {
  const auto& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.size * 131 + c.flips));
  Graph g = build(c, rng);
  auto pred = perturbed_provider(c.flips)->provide(g, ProblemKind::kMis, rng);
  auto result = run_with_predictions(g, pred, mis_simple_greedy());
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
  EXPECT_LE(result.rounds, eta1_mis(g, pred) + 3);
  if (g.num_nodes() <= 40) {
    EXPECT_LE(result.rounds, eta2_mis(g, pred) + 4);
  }
}

// Lemma 8: Consecutive(Init, Greedy, Cleanup, Gather) is 2f(η)-degrading
// and robust with respect to the gather reference.
TEST_P(PaperBoundsTest, Lemma8) {
  const auto& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.size * 733 + c.flips));
  Graph g = build(c, rng);
  auto pred = perturbed_provider(c.flips)->provide(g, ProblemKind::kMis, rng);
  auto result = run_with_predictions(g, pred, mis_consecutive_gather());
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(is_valid_mis(g, result.outputs));
  const int eta = eta1_mis(g, pred);
  const int r = mis_gather_total_rounds(g.num_nodes());
  EXPECT_LE(result.rounds, 2 * eta + kMisInitRounds + 2);
  EXPECT_LE(result.rounds,
            kMisInitRounds + (r + kMisCleanupRounds) + kMisCleanupRounds + r);
}

// Lemma 9: Interleaved(Init, Greedy, Gather-phases) is 2f(η)+O(1)
// degrading and capped by c + 2·Σ r_i.
TEST_P(PaperBoundsTest, Lemma9) {
  const auto& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.size * 937 + c.flips));
  Graph g = build(c, rng);
  auto pred = perturbed_provider(c.flips)->provide(g, ProblemKind::kMis, rng);
  auto result = run_with_predictions(g, pred, mis_interleaved_gather());
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(is_valid_mis(g, result.outputs));
  const int eta = eta1_mis(g, pred);
  EXPECT_LE(result.rounds, 2 * std::max(eta, 2) + kMisInitRounds + 4);
  int total_ref = 0;
  int m = 1;
  while ((1 << m) < std::max(g.num_nodes() - 1, 1)) ++m;
  for (int i = 1; i <= m; ++i) total_ref += 1 << i;
  EXPECT_LE(result.rounds, kMisInitRounds + 2 * total_ref + 2);
}

// Lemma 11 / Corollary 12: Parallel(Init, Greedy, Linial+ColorToMis) is
// η2-degrading AND capped by the reference bound.
TEST_P(PaperBoundsTest, Corollary12) {
  const auto& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.size * 389 + c.flips));
  Graph g = build(c, rng);
  auto pred = perturbed_provider(c.flips)->provide(g, ProblemKind::kMis, rng);
  auto result = run_with_predictions(g, pred, mis_parallel_linial());
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(is_valid_mis(g, result.outputs));
  if (g.num_nodes() <= 40) {
    const int eta2 = eta2_mis(g, pred);
    EXPECT_LE(result.rounds, eta2 + 4);
  }
  const int r1 = linial_total_rounds(g.id_bound(), g.max_degree());
  EXPECT_LE(result.rounds,
            kMisInitRounds + r1 + 1 + (g.max_degree() + 2) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PaperBoundsTest,
    ::testing::Values(SweepCase{"line", 12, 0}, SweepCase{"line", 12, 2},
                      SweepCase{"line", 24, 6}, SweepCase{"ring", 12, 3},
                      SweepCase{"ring", 18, 9}, SweepCase{"grid", 4, 2},
                      SweepCase{"grid", 5, 8}, SweepCase{"gnp", 15, 0},
                      SweepCase{"gnp", 15, 4}, SweepCase{"gnp", 22, 11},
                      SweepCase{"tree", 16, 3}, SweepCase{"tree", 25, 12},
                      SweepCase{"wheel", 6, 4}, SweepCase{"wheel", 9, 9}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

// Theorem 6 context: the measure-uniform lower bound — Greedy MIS is
// Θ(μ1) on sorted lines at several sizes (matching the Ramsey-based
// Lemma 5 lower bound up to constants).
class LineLowerBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(LineLowerBoundTest, GreedyTakesLinearRounds) {
  const int n = GetParam();
  Graph g = make_line(n);
  sorted_ids(g);
  auto result = run_algorithm(g, greedy_mis_algorithm());
  EXPECT_GE(result.rounds, (n - 5) / 2);
  EXPECT_LE(result.rounds, n + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LineLowerBoundTest,
                         ::testing::Values(10, 25, 50, 101, 200));

}  // namespace
}  // namespace dgap
