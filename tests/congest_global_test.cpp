// The CONGEST universal MIS reference: correctness across families,
// strict 2-word message compliance, schedule exactness, atomic
// per-component decisions, and its use inside the Consecutive template.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mis/checkers.hpp"
#include "mis/congest_global.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

TEST(CongestGlobal, SolvesSmallFamilies) {
  Rng rng(1);
  for (auto make : {+[]() { return make_line(9); },
                    +[]() { return make_ring(8); },
                    +[]() { return make_clique(6); },
                    +[]() { return make_grid(3, 4); },
                    +[]() { return make_star(7); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto result = run_algorithm(g, congest_global_mis_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
    EXPECT_EQ(result.rounds, congest_global_total_rounds(g.num_nodes()));
  }
}

TEST(CongestGlobal, StrictlyCongest) {
  Rng rng(2);
  Graph g = make_random_connected(16, 10, rng);
  randomize_ids(g, rng);
  EngineOptions opt;
  opt.congest_word_limit = 2;
  auto result = run_algorithm(g, congest_global_mis_algorithm(), opt);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.congest_violations, 0);
  EXPECT_LE(result.max_message_words, 2);
}

TEST(CongestGlobal, RandomSweep) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(12, 0.25, rng);
    randomize_ids(g, rng);
    auto result = run_algorithm(g, congest_global_mis_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
  }
}

TEST(CongestGlobal, WholeGraphDecidesAtScheduleEnd) {
  Rng rng(4);
  Graph g = make_random_connected(14, 6, rng);
  randomize_ids(g, rng);
  auto result = run_algorithm(g, congest_global_mis_algorithm());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(result.termination_round[v],
              congest_global_total_rounds(g.num_nodes()));
  }
}

TEST(CongestGlobal, DisconnectedComponentsElectSeparateLeaders) {
  Graph g = disjoint_union(make_clique(5), make_ring(6));
  auto result = run_algorithm(g, congest_global_mis_algorithm());
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(g, result.outputs));
}

TEST(CongestGlobal, ConsecutiveTemplateAssembly) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(12, 0.25, rng);
    randomize_ids(g, rng);
    // One seed: `bad` is `correct` with 6 bits flipped.
    const std::uint64_t seed = rng.next();
    auto correct =
        provide_with_seed(*exact_provider(), g, ProblemKind::kMis, seed);
    // Consistency.
    auto rc = run_with_predictions(g, correct, mis_consecutive_congest());
    EXPECT_TRUE(is_valid_mis(g, rc.outputs));
    EXPECT_EQ(rc.rounds, 3);
    // Degradation + robustness under errors.
    auto bad =
        provide_with_seed(*perturbed_provider(6), g, ProblemKind::kMis, seed);
    auto rb = run_with_predictions(g, bad, mis_consecutive_congest());
    EXPECT_TRUE(is_valid_mis(g, rb.outputs)) << check_mis(g, rb.outputs);
    const int e1 = eta1_mis(g, bad);
    EXPECT_LE(rb.rounds, 2 * std::max(e1, 1) + 5);
    // Entirely CONGEST end to end.
    EngineOptions opt;
    opt.congest_word_limit = 2;
    auto strict =
        run_with_predictions(g, bad, mis_consecutive_congest(), opt);
    EXPECT_EQ(strict.congest_violations, 0);
  }
}

TEST(CongestGlobal, RoundBudgetsAreInt64Safe) {
  // n² at n = 100'000 overflows int32; the budget functions must not.
  EXPECT_EQ(congest_global_stage2_rounds(100'000), 10'000'000'000LL);
  EXPECT_EQ(congest_global_total_rounds(100'000),
            100'001LL + 10'000'000'000LL + 200'002LL);
  // Stretched variant doubles the record stages only.
  EXPECT_EQ(congest_global_record_stride(1), 2);
  EXPECT_EQ(congest_global_record_stride(2), 1);
  EXPECT_EQ(congest_global_record_stride(0), 1);
  EXPECT_EQ(congest_global_stage1_rounds(100'000, 1), 100'001LL);
  EXPECT_EQ(congest_global_stage2_rounds(100'000, 1), 20'000'000'000LL);
  EXPECT_EQ(congest_global_stage3_rounds(100'000, 1), 400'004LL);
}

TEST(CongestGlobal, HonestUnderEnforcedTwoWordBudget) {
  // The acceptance run: a real 2-word-per-link budget (defer policy). The
  // protocol sends at most one <= 2-word message per link per round, so
  // nothing defers and the enforced run equals the audited one exactly.
  Rng rng(6);
  Graph g = make_random_connected(16, 10, rng);
  randomize_ids(g, rng);
  auto audited = run_algorithm(g, congest_global_mis_algorithm());
  EngineOptions opt;
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 2;
  auto result = run_algorithm(g, congest_global_mis_algorithm(), opt);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
  EXPECT_EQ(result.congest_violations, 0);
  EXPECT_EQ(result.deferred_messages, 0);
  EXPECT_EQ(result.rounds_with_backlog, 0);
  EXPECT_EQ(result.rounds, congest_global_total_rounds(g.num_nodes(), 2));
  EXPECT_EQ(result.rounds, audited.rounds);
  EXPECT_EQ(result.outputs, audited.outputs);
  EXPECT_EQ(result.total_words, audited.total_words);
}

TEST(CongestGlobal, StretchedScheduleUnderOneWordBudget) {
  // Below the 2-word record width the protocol stretches stages 2 and 3
  // by the record stride; records then need two rounds per link and the
  // run leans on the deferral scheduler every record.
  Rng rng(8);
  for (auto make : {+[]() { return make_line(7); },
                    +[]() { return make_clique(5); },
                    +[]() { return make_grid(3, 3); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    EngineOptions opt;
    opt.congest_policy = CongestPolicy::kDefer;
    opt.congest_word_limit = 1;
    auto result = run_algorithm(g, congest_global_mis_algorithm(), opt);
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs))
        << check_mis(g, result.outputs);
    EXPECT_EQ(result.rounds, congest_global_total_rounds(g.num_nodes(), 1));
    EXPECT_GT(result.deferred_messages, 0);
    // A link never buffers more than one record's carried-over word.
    EXPECT_LE(result.link_backlog_peak_words, 1);
  }
}

}  // namespace
}  // namespace dgap
