// The message-reduction compiler pass (sim/compile.hpp):
//
//  1. Equivalence: for every wrapped algorithm, the compiled run's
//     outputs, rounds, termination rounds, and kRounds transcript are
//     byte-identical to the uncompiled run's, across threads {1, 2, 4, 8};
//     payload transcripts differ ONLY in the suppressed flag.
//  2. Accounting: total == sent + suppressed exactly (nominal invariance),
//     a knobs-off run suppresses nothing, and the split is identical
//     across thread counts (the resend cache is keyed to receiver-shard
//     ownership, so every delivery path replays the same hit sequence).
//  3. Reduction: flood_min re-sends collapse (> 30% of words off the wire).
//  4. Composition hazards: a suppressed re-send meeting a terminating
//     neighbor (the PR 3 stale-tentative hazard, now with caching), and
//     mid-run cut sweeps of the compiled template assemblies
//     (property_sweep_test pattern).
//  5. Enforced CONGEST interaction: suppression never touches a link
//     budget — a fully-suppressible workload under kDefer at B = 1 runs
//     exactly like the unenforced one (the free lunch).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "matching/algorithms.hpp"
#include "matching/checkers.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "predict/provider.hpp"
#include "sim/compile.hpp"
#include "sim/transcript.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"

namespace dgap {
namespace {

CompileOptions cache_and_defaults() {
  return {.cache_resends = true, .decode_defaults = true};
}

enum class Pred { kNone, kMis, kMatching };

struct Equiv {
  const char* name;
  ProgramFactory (*make_factory)();
  Pred pred;
};

ProgramFactory make_flood() { return flood_min_algorithm(); }

const Equiv kEquivCases[] = {
    {"flood_min", &make_flood, Pred::kNone},
    {"greedy_mis", &greedy_mis_algorithm, Pred::kNone},
    {"greedy_matching", &greedy_matching_algorithm, Pred::kNone},
    {"mis_simple_greedy", &mis_simple_greedy, Pred::kMis},
    {"matching_simple_greedy", &matching_simple_greedy, Pred::kMatching},
};

// ---------------------------------------------------------------------------
// 1 + 2. Equivalence and accounting across threads {1, 2, 4, 8}.
// ---------------------------------------------------------------------------

TEST(CompileEquivalence, IdenticalOutputsAndKRoundsTranscriptAcrossThreads) {
  Rng rng(11);
  Graph g = make_random_connected(40, 30, rng);
  const Predictions mis_pred =
      perturbed_provider(6)->provide(g, ProblemKind::kMis, rng);
  const Predictions match_pred =
      exact_provider()->provide(g, ProblemKind::kMatching, rng);

  for (const Equiv& c : kEquivCases) {
    SCOPED_TRACE(c.name);
    const Predictions& p = c.pred == Pred::kMis       ? mis_pred
                           : c.pred == Pred::kMatching ? match_pred
                                                       : empty_predictions();

    EngineOptions base;
    const auto uncompiled =
        record_run(g, p, c.make_factory(), base, TraceDetail::kRounds, c.name);
    ASSERT_TRUE(uncompiled.result.completed);
    EXPECT_EQ(uncompiled.result.messages_suppressed, 0);
    EXPECT_EQ(uncompiled.result.words_suppressed, 0);
    EXPECT_EQ(uncompiled.result.messages_sent,
              uncompiled.result.total_messages);

    std::int64_t suppressed_t1 = -1;
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(threads);
      EngineOptions opt;
      opt.num_threads = threads;
      opt.compile = cache_and_defaults();
      const auto compiled = record_run(g, p, c.make_factory(), opt,
                                       TraceDetail::kRounds, c.name);
      // Behavior is invariant: suppressed messages are synthesized at the
      // receiver, so the entire observable run matches byte for byte.
      EXPECT_EQ(compiled.transcript, uncompiled.transcript);
      EXPECT_EQ(compiled.result.outputs, uncompiled.result.outputs);
      EXPECT_EQ(compiled.result.edge_outputs, uncompiled.result.edge_outputs);
      EXPECT_EQ(compiled.result.rounds, uncompiled.result.rounds);
      EXPECT_EQ(compiled.result.termination_round,
                uncompiled.result.termination_round);
      // Accounting identity: nominal totals are unchanged and split
      // exactly into sent + suppressed.
      EXPECT_EQ(compiled.result.total_messages,
                uncompiled.result.total_messages);
      EXPECT_EQ(compiled.result.total_words, uncompiled.result.total_words);
      EXPECT_EQ(compiled.result.messages_sent +
                    compiled.result.messages_suppressed,
                compiled.result.total_messages);
      EXPECT_EQ(compiled.result.words_sent + compiled.result.words_suppressed,
                compiled.result.total_words);
      // The cache is keyed to receiver-shard ownership and walked in
      // global send order: the split cannot depend on the thread count.
      if (suppressed_t1 < 0) {
        suppressed_t1 = compiled.result.messages_suppressed;
      } else {
        EXPECT_EQ(compiled.result.messages_suppressed, suppressed_t1);
      }
    }
  }
}

TEST(CompileEquivalence, PayloadTranscriptsDifferOnlyInSuppressedFlag) {
  Rng rng(12);
  Graph g = make_random_connected(32, 20, rng);

  EngineOptions opt;
  opt.compile.cache_resends = true;
  const auto base = record_run(g, empty_predictions(), flood_min_algorithm(),
                               EngineOptions{}, TraceDetail::kPayloads);
  const auto compiled = record_run(g, empty_predictions(),
                                   flood_min_algorithm(), opt,
                                   TraceDetail::kPayloads);

  Transcript a = decode_transcript(base.transcript);
  Transcript b = decode_transcript(compiled.transcript);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  std::int64_t flagged = 0;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    ASSERT_EQ(a.rounds[r].messages.size(), b.rounds[r].messages.size());
    EXPECT_EQ(a.rounds[r].terminations, b.rounds[r].terminations);
    for (std::size_t i = 0; i < a.rounds[r].messages.size(); ++i) {
      TranscriptMessage p = a.rounds[r].messages[i];
      TranscriptMessage q = b.rounds[r].messages[i];
      EXPECT_FALSE(p.suppressed);
      if (q.suppressed) ++flagged;
      q.suppressed = p.suppressed;  // the only field allowed to differ
      EXPECT_EQ(p, q);
    }
  }
  EXPECT_EQ(flagged, compiled.result.messages_suppressed);
  // The flags byte survives its own codec: decode(encode(t)) == t.
  EXPECT_EQ(encode_transcript(b), compiled.transcript);
  // And the compiled run verifies against its own recorded transcript.
  EngineOptions opt2 = opt;
  run_verified(g, empty_predictions(), flood_min_algorithm(), opt2, b);
}

// ---------------------------------------------------------------------------
// 3. The transforms actually reduce: flood_min under the resend cache.
// ---------------------------------------------------------------------------

TEST(CompileReduction, FloodMinCacheSavesOverThirtyPercent) {
  Rng rng(13);
  Graph g = make_random_connected(48, 36, rng);
  EngineOptions opt;
  opt.compile.cache_resends = true;
  const auto base = run_algorithm(g, flood_min_algorithm());
  const auto compiled = run_algorithm(g, flood_min_algorithm(), opt);
  EXPECT_EQ(compiled.outputs, base.outputs);
  EXPECT_EQ(compiled.rounds, base.rounds);
  EXPECT_EQ(compiled.total_words, base.total_words);
  // Once the minimum stabilizes (a handful of rounds on a connected
  // graph), every further broadcast is a cache hit; at n rounds total the
  // wire carries a small fraction of the nominal words.
  EXPECT_LT(compiled.words_sent * 10, base.total_words * 7)
      << "expected > 30% reduction, sent " << compiled.words_sent << " of "
      << base.total_words;
}

TEST(CompileReduction, CacheSuppressesExactRepeatsOnly) {
  // Alternating payloads never hit the one-slot cache; constant payloads
  // hit from the second round on every directed edge.
  Graph g = make_ring(6);
  struct Alternator final : NodeProgram {
    int round = 0;
    void on_send(NodeContext& ctx) override {
      ctx.broadcast({Value(round % 2)});
    }
    void on_receive(NodeContext& ctx) override {
      if (++round == 4) {
        ctx.set_output(1);
        ctx.terminate();
      }
    }
  };
  struct Constant final : NodeProgram {
    int round = 0;
    void on_send(NodeContext& ctx) override { ctx.broadcast({Value(7)}); }
    void on_receive(NodeContext& ctx) override {
      if (++round == 4) {
        ctx.set_output(1);
        ctx.terminate();
      }
    }
  };
  EngineOptions opt;
  opt.compile.cache_resends = true;
  const auto alternating = run_algorithm(
      g, [](NodeId) { return std::make_unique<Alternator>(); }, opt);
  EXPECT_EQ(alternating.messages_suppressed, 0);
  const auto constant = run_algorithm(
      g, [](NodeId) { return std::make_unique<Constant>(); }, opt);
  // 12 directed edges, 4 rounds: rounds 2..4 are all hits.
  EXPECT_EQ(constant.messages_suppressed, 12 * 3);
  EXPECT_EQ(constant.messages_sent, 12);
}

// ---------------------------------------------------------------------------
// 4. Composition hazards.
// ---------------------------------------------------------------------------

/// Line of 3: every node re-broadcasts a constant each round; the minimum-
/// identifier node terminates after round 2, so its neighbors' suppressed
/// re-sends meet a terminating receiver exactly when active_neighbors
/// shrinks — the PR 3 stale-tentative hazard with caching in play.
TEST(CompileHazards, SuppressedResendMeetsTerminatingNeighbor) {
  Graph g = make_line(3);
  struct EarlyQuit final : NodeProgram {
    int round = 0;
    void on_send(NodeContext& ctx) override { ctx.broadcast({Value(9)}); }
    void on_receive(NodeContext& ctx) override {
      ++round;
      const bool smallest = [&] {
        for (NodeId u : ctx.active_neighbors()) {
          if (ctx.neighbor_id(u) < ctx.id()) return false;
        }
        return true;
      }();
      if ((smallest && round == 2) || round == 5) {
        ctx.set_output(round);
        ctx.terminate();
      }
    }
  };
  const auto factory = [](NodeId) { return std::make_unique<EarlyQuit>(); };
  const auto base = record_run(g, empty_predictions(), factory,
                               EngineOptions{}, TraceDetail::kPayloads);
  EngineOptions opt;
  opt.compile.cache_resends = true;
  const auto compiled =
      record_run(g, empty_predictions(), factory, opt, TraceDetail::kRounds);
  EXPECT_EQ(compiled.result.outputs, base.result.outputs);
  EXPECT_EQ(compiled.result.termination_round, base.result.termination_round);
  EXPECT_EQ(compiled.result.total_messages, base.result.total_messages);
  EXPECT_GT(compiled.result.messages_suppressed, 0);
  // The termination notices (Section 7 convention) are charged through the
  // same account but are never suppressible.
  EXPECT_EQ(compiled.result.messages_sent + compiled.result.messages_suppressed,
            base.result.total_messages);
}

TEST(CompileHazards, CompiledTemplatesMatchUncompiledAtEveryCut) {
  Rng rng(15);
  Graph g = make_gnp(14, 0.25, rng);
  auto mis_pred = perturbed_provider(4)->provide(g, ProblemKind::kMis, rng);
  auto match_pred = exact_provider()->provide(g, ProblemKind::kMatching, rng);

  struct Case {
    const char* name;
    ProgramFactory (*make_factory)();
    const Predictions* pred;
  };
  const Case cases[] = {
      {"mis_simple_greedy", &mis_simple_greedy, &mis_pred},
      {"matching_simple_greedy", &matching_simple_greedy, &match_pred},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto full = run_with_predictions(g, *c.pred, c.make_factory());
    ASSERT_TRUE(full.completed);
    for (int cut = 1; cut < full.rounds; ++cut) {
      EngineOptions plain;
      plain.max_rounds = cut;
      EngineOptions compiled = plain;
      compiled.compile = cache_and_defaults();
      const auto a = run_with_predictions(g, *c.pred, c.make_factory(), plain);
      const auto b =
          run_with_predictions(g, *c.pred, c.make_factory(), compiled);
      EXPECT_EQ(a.outputs, b.outputs) << "cut " << cut;
      EXPECT_EQ(a.total_words, b.total_words) << "cut " << cut;
      EXPECT_EQ(b.words_sent + b.words_suppressed, a.total_words)
          << "cut " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// 5. Enforced CONGEST: suppression never touches a link budget.
// ---------------------------------------------------------------------------

/// Every message in this program equals the declared default, so under
/// decode_defaults the wire goes silent: 2-word broadcasts that would blow
/// a B = 1 budget never reach the link layer.
struct AllDefault final : NodeProgram {
  int round = 0;
  void on_send(NodeContext& ctx) override {
    ctx.declare_default({Value(5), Value(6)});
    ctx.broadcast({Value(5), Value(6)});
  }
  void on_receive(NodeContext& ctx) override {
    if (++round == 3) {
      ctx.set_output(1);
      ctx.terminate();
    }
  }
};

TEST(CompileCongest, SuppressionBypassesEnforcedBudgetsWithoutDoubleCount) {
  Graph g = make_line(3);
  const auto factory = [](NodeId) { return std::make_unique<AllDefault>(); };
  const auto nominal = run_algorithm(g, factory);

  EngineOptions enforced;
  enforced.congest_policy = CongestPolicy::kDefer;
  enforced.congest_word_limit = 1;
  const auto uncompiled = run_algorithm(g, factory, enforced);

  EngineOptions compiled = enforced;
  compiled.compile.decode_defaults = true;
  const auto r = run_algorithm(g, factory, compiled);
  // Nothing crossed the wire, so B = 1 enforcement has nothing to defer
  // and the run is byte-equal to the unenforced one.
  EXPECT_GT(r.messages_suppressed, 0);
  EXPECT_EQ(r.messages_sent, 0);
  EXPECT_EQ(r.deferred_messages, 0);
  EXPECT_EQ(r.deferred_words, 0);
  EXPECT_EQ(r.link_backlog_peak_words, 0);
  EXPECT_EQ(r.rounds, nominal.rounds);
  EXPECT_EQ(r.outputs, nominal.outputs);
  EXPECT_EQ(r.words_sent + r.words_suppressed, nominal.total_words);
  // The uncompiled 2-word messages DO hit the B = 1 budget — the contrast
  // that makes the bypass observable.
  EXPECT_GT(uncompiled.deferred_words, 0);
  EXPECT_GT(uncompiled.link_backlog_peak_words, 0);
}

}  // namespace
}  // namespace dgap
