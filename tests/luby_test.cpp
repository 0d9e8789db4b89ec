#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "random/luby.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

TEST(Luby, ValidAcrossFamiliesAndSeeds) {
  Rng rng(1);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (auto make : {+[]() { return make_line(15); },
                      +[]() { return make_ring(12); },
                      +[]() { return make_clique(8); },
                      +[]() { return make_grid(4, 4); }}) {
      Graph g = make();
      randomize_ids(g, rng);
      auto result = run_algorithm(g, luby_mis_algorithm(seed));
      EXPECT_TRUE(result.completed);
      EXPECT_TRUE(is_valid_mis(g, result.outputs))
          << check_mis(g, result.outputs);
    }
  }
}

TEST(Luby, LogarithmicOnLongLines) {
  // Unlike Greedy MIS on sorted identifiers (Θ(n)), Luby finishes a long
  // line in O(log n) rounds with high probability.
  Graph g = make_line(500);
  sorted_ids(g);
  int worst = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto result = run_algorithm(g, luby_mis_algorithm(seed));
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs));
    worst = std::max(worst, result.rounds);
  }
  EXPECT_LE(worst, 60);  // ≈ 2·c·log2(500), generous
}

TEST(Luby, DifferentSeedsGiveDifferentSets) {
  Graph g = make_ring(20);
  auto a = run_algorithm(g, luby_mis_algorithm(1));
  auto b = run_algorithm(g, luby_mis_algorithm(2));
  EXPECT_TRUE(is_valid_mis(g, a.outputs));
  EXPECT_TRUE(is_valid_mis(g, b.outputs));
  EXPECT_NE(a.outputs, b.outputs);  // astronomically unlikely to collide
}

TEST(Luby, SameSeedReproduces) {
  Graph g = make_grid(5, 5);
  auto a = run_algorithm(g, luby_mis_algorithm(9));
  auto b = run_algorithm(g, luby_mis_algorithm(9));
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(LubyTemplate, SimpleWithLubyIsConsistentAndValid) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(20, 0.2, rng);
    randomize_ids(g, rng);
    // One seed: `bad` is `correct` with 6 bits flipped.
    const std::uint64_t seed = rng.next();
    auto correct =
        provide_with_seed(*exact_provider(), g, ProblemKind::kMis, seed);
    auto r = run_with_predictions(g, correct, mis_simple_luby(trial));
    EXPECT_TRUE(is_valid_mis(g, r.outputs));
    EXPECT_EQ(r.rounds, 3);  // consistency from the initialization
    auto bad =
        provide_with_seed(*perturbed_provider(6), g, ProblemKind::kMis, seed);
    auto rb = run_with_predictions(g, bad, mis_simple_luby(trial));
    EXPECT_TRUE(is_valid_mis(g, rb.outputs)) << check_mis(g, rb.outputs);
  }
}

// Section 10's phenomenon: with many small components, the MAX completion
// round over components exceeds the typical per-component completion —
// the expectation is not bounded by O(log η1).
TEST(Luby, MaxOverManyComponentsExceedsSingleComponent) {
  // 200 disjoint 6-node lines (η1-style components of size 6).
  Graph many = make_line(6);
  for (int i = 1; i < 200; ++i) many = disjoint_union(many, make_line(6));
  Graph one = make_line(6);
  double avg_single = 0, avg_many = 0;
  const int kTrials = 10;
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    avg_single += run_algorithm(one, luby_mis_algorithm(seed)).rounds;
    avg_many += run_algorithm(many, luby_mis_algorithm(seed + 1000)).rounds;
  }
  avg_single /= kTrials;
  avg_many /= kTrials;
  // The max over 200 components is strictly (and noticeably) worse than a
  // single component of the same size.
  EXPECT_GT(avg_many, avg_single + 0.9);
}

}  // namespace
}  // namespace dgap
