#include <gtest/gtest.h>

#include "coloring/checkers.hpp"
#include "coloring/linial.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

TEST(LinialSchedule, StepsUsePrimesAboveKDelta) {
  auto s = linial_schedule(1'000'000, 4);
  for (const auto& step : s.steps) {
    EXPECT_TRUE(is_prime(step.q));
    EXPECT_GT(step.q, step.k * 4);
    EXPECT_GE(ipow_sat(step.q, static_cast<int>(step.k + 1)), 1);
  }
  EXPECT_GT(s.total_rounds, 0);
}

TEST(LinialSchedule, ZeroDegreeIsTrivial) {
  auto s = linial_schedule(100, 0);
  EXPECT_TRUE(s.steps.empty());
  EXPECT_EQ(s.final_colors, 1);
  EXPECT_EQ(s.total_rounds, 1);
}

TEST(LinialSchedule, IterationCountGrowsLikeLogStar) {
  // Doubling d exponentially should add only O(1) iterations.
  const auto small = linial_schedule(1 << 10, 3).steps.size();
  const auto large = linial_schedule(1LL << 40, 3).steps.size();
  EXPECT_LE(large, small + 3);
}

TEST(LinialSchedule, FinalPaletteIndependentOfD) {
  const auto a = linial_schedule(1000, 5);
  const auto b = linial_schedule(1'000'000'000, 5);
  EXPECT_EQ(a.final_colors, b.final_colors);
  EXPECT_EQ(a.reduction_rounds, b.reduction_rounds);
}

TEST(LinialColoring, ProperOnFamilies) {
  Rng rng(1);
  for (auto make : {+[]() { return make_line(12); },
                    +[]() { return make_ring(9); },
                    +[]() { return make_clique(6); },
                    +[]() { return make_grid(4, 4); },
                    +[]() { return make_star(8); },
                    +[]() { return make_hypercube(4); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto result = run_algorithm(g, linial_coloring_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1))
        << check_coloring(g, result.outputs, g.max_degree() + 1);
  }
}

TEST(LinialColoring, RoundsMatchSchedule) {
  Rng rng(2);
  Graph g = make_ring(20);
  randomize_ids(g, rng);
  auto result = run_algorithm(g, linial_coloring_algorithm());
  // The wrapper outputs in the round the phase reports finished.
  EXPECT_EQ(result.rounds, linial_total_rounds(g.id_bound(), g.max_degree()));
}

TEST(LinialColoring, RoundsIndependentOfNForFixedDelta) {
  // Round count depends on (d, Δ) only — the hallmark the Parallel template
  // exploits. Same Δ and d ⇒ same round count on very different n.
  Rng rng(3);
  Graph small = make_ring(8);
  Graph large = make_ring(200);
  randomize_ids_sparse(small, 1000, rng);
  randomize_ids_sparse(large, 1000, rng);
  auto rs = run_algorithm(small, linial_coloring_algorithm());
  auto rl = run_algorithm(large, linial_coloring_algorithm());
  EXPECT_EQ(rs.rounds, rl.rounds);
}

TEST(LinialColoring, SparseHugeIdentifiersStillWork) {
  Rng rng(4);
  Graph g = make_grid(5, 4);
  randomize_ids_sparse(g, 1'000'000'000, rng);
  auto result = run_algorithm(g, linial_coloring_algorithm());
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1));
}

TEST(LinialColoring, CongestFriendly) {
  // Linial sends one word per message (the current color).
  Rng rng(5);
  Graph g = make_ring(16);
  randomize_ids(g, rng);
  EngineOptions opt;
  opt.congest_word_limit = 1;
  auto result = run_algorithm(g, linial_coloring_algorithm(), opt);
  EXPECT_EQ(result.congest_violations, 0);
}

// Fault injection: kill a random subset of nodes mid-run; the surviving
// partial coloring must stay proper — this is the fault tolerance that
// Lemma 11 requires of part 1.
class KillSwitchColoring final : public NodeProgram {
 public:
  KillSwitchColoring(int kill_round, bool victim)
      : kill_round_(kill_round), victim_(victim) {}

  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_.on_send(ctx, ch);
  }
  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (victim_ && ctx.round() == kill_round_) {
      ctx.set_output(-1);  // "crashed" marker
      ctx.terminate();
      return;
    }
    if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
      ctx.set_output(phase_.palette_color());
      ctx.terminate();
    }
  }

 private:
  LinialColoringPhase phase_;
  int kill_round_;
  bool victim_;
};

TEST(LinialColoring, FaultTolerantUnderMidRunCrashes) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(16, 0.25, rng);
    randomize_ids(g, rng);
    const int total = linial_total_rounds(g.id_bound(), g.max_degree());
    std::vector<bool> victim(16, false);
    for (NodeId v = 0; v < 16; ++v) victim[v] = rng.flip(0.3);
    const int kill_round = 1 + static_cast<int>(rng.next_below(
                                   static_cast<std::uint64_t>(total)));
    auto result = run_algorithm(g, [&](NodeId v) {
      return std::make_unique<KillSwitchColoring>(kill_round, victim[v]);
    });
    EXPECT_TRUE(result.completed);
    // Survivors must form a proper partial coloring.
    auto outputs = result.outputs;
    for (auto& o : outputs) {
      if (o == -1) o = kUndefined;  // crashed nodes have no color
    }
    EXPECT_TRUE(is_proper_partial_coloring(g, outputs, g.max_degree() + 1))
        << "trial " << trial << " kill_round " << kill_round;
  }
}

TEST(LinialSchedule, RespectingVariantReexaminesEveryClass) {
  const auto plain = linial_schedule(10000, 4);
  const auto full = linial_schedule(10000, 4, /*reduce_all_classes=*/true);
  EXPECT_EQ(full.final_colors, plain.final_colors);
  EXPECT_EQ(full.reduction_rounds, full.final_colors);
  EXPECT_GT(full.total_rounds, plain.total_rounds);
  EXPECT_EQ(linial_total_rounds_respecting(10000, 4), full.total_rounds);
}

// The output-respecting mode must extend a proper partial coloring: some
// nodes pre-terminate with fixed palette colors; survivors run Linial and
// the union must stay proper.
TEST(LinialColoring, RespectMode_ExtendsPartialColorings) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(16, 0.3, rng);
    randomize_ids(g, rng);
    // Pre-color a random independent-ish subset greedily.
    std::vector<Value> fixed(16, kUndefined);
    const Value palette = g.max_degree() + 1;
    for (NodeId v = 0; v < 16; ++v) {
      if (!rng.flip(0.4)) continue;
      std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
      for (NodeId u : g.neighbors(v)) {
        if (fixed[u] != kUndefined) used[fixed[u]] = true;
      }
      for (Value c = 1; c <= palette; ++c) {
        if (!used[c]) {
          fixed[v] = c;
          break;
        }
      }
    }
    class Program final : public NodeProgram {
     public:
      Program(Value fixed_color)
          : fixed_(fixed_color),
            phase_(LinialOptions{.respect_terminated_outputs = true}) {}
      void on_send(NodeContext& ctx) override {
        Channel ch(ctx, 0);
        if (fixed_ == kUndefined) phase_.on_send(ctx, ch);
      }
      void on_receive(NodeContext& ctx) override {
        Channel ch(ctx, 0);
        if (fixed_ != kUndefined) {
          ctx.set_output(fixed_);
          ctx.terminate();
          return;
        }
        if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
          ctx.set_output(phase_.palette_color());
          ctx.terminate();
        }
      }

     private:
      Value fixed_;
      LinialColoringPhase phase_;
    };
    auto result = run_algorithm(g, [&](NodeId v) {
      return std::make_unique<Program>(fixed[v]);
    });
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, palette))
        << "trial " << trial << ": "
        << check_coloring(g, result.outputs, palette);
  }
}

TEST(LinialKw, ScheduleShorterForLargerDelta) {
  // The KW block reduction replaces the O(Δ²) class-by-class tail with
  // O(Δ log Δ) rounds; for Δ = 8 the win is already large.
  for (int delta : {6, 8, 12, 16}) {
    const int plain = linial_total_rounds(1'000'000, delta);
    const int kw = linial_total_rounds_kw(1'000'000, delta);
    EXPECT_LE(kw, plain) << "delta " << delta;  // never worse
    if (delta >= 8) {
      EXPECT_LT(kw, plain) << "delta " << delta;
    }
  }
  // Both still grow only like log* in d.
  const int small_d = linial_total_rounds_kw(1 << 10, 8);
  const int large_d = linial_total_rounds_kw(1LL << 40, 8);
  EXPECT_LE(large_d, small_d + 4);
}

TEST(LinialKw, ProperColoringsOnFamilies) {
  Rng rng(21);
  for (auto make : {+[]() { return make_ring(16); },
                    +[]() { return make_clique(8); },
                    +[]() { return make_grid(4, 5); },
                    +[]() { return make_hypercube(4); },
                    +[]() { return make_complete_bipartite(5, 6); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto factory = [](NodeId) -> std::unique_ptr<NodeProgram> {
      class Program final : public NodeProgram {
       public:
        Program()
            : phase_(LinialOptions{.respect_terminated_outputs = false,
                                   .kw_reduction = true}) {}
        void on_send(NodeContext& ctx) override {
          Channel ch(ctx, 0);
          phase_.on_send(ctx, ch);
        }
        void on_receive(NodeContext& ctx) override {
          Channel ch(ctx, 0);
          if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
            ctx.set_output(phase_.palette_color());
            ctx.terminate();
          }
        }

       private:
        LinialColoringPhase phase_;
      };
      return std::make_unique<Program>();
    };
    auto result = run_algorithm(g, factory);
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1))
        << check_coloring(g, result.outputs, g.max_degree() + 1);
    EXPECT_EQ(result.rounds,
              linial_total_rounds_kw(g.id_bound(), g.max_degree()));
  }
}

TEST(LinialKw, ParallelTemplateVariantValidAndCapped) {
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(20, 0.35, rng);  // denser: larger Δ, KW matters
    randomize_ids(g, rng);
    const int errors = static_cast<int>(rng.next_below(12));
    auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
    auto result = run_with_predictions(g, pred, mis_parallel_linial_kw());
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
    const int r1 = linial_total_rounds_kw(g.id_bound(), g.max_degree());
    EXPECT_LE(result.rounds, 3 + r1 + 1 + g.max_degree() + 2 + 1);
  }
}

TEST(LinialMisReference, SolvesMis) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(14, 0.3, rng);
    randomize_ids(g, rng);
    auto result =
        run_algorithm(g, phase_as_algorithm(make_linial_mis_reference()));
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
    EXPECT_LE(result.rounds,
              linial_mis_total_rounds(g.id_bound(), g.max_degree()));
  }
}

}  // namespace
}  // namespace dgap
