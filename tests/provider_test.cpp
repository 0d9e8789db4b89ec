// PredictionProvider contract tests (predict/provider.hpp):
//   1. Determinism — the same (provider, kind, seed, graph) materializes
//      byte-identical Predictions on every call, the engine consumes them
//      identically at num_threads 1 and 4, and provider-carrying batch
//      jobs produce byte-identical transcripts at 1 and 4 workers.
//   2. Digests — the contract is "equal digests => equal provide() output
//      for every (graph, kind, seed)". Spot-check the converse direction
//      across the whole bundled family: differently-parameterized
//      providers never collide, and the payload-carrying providers
//      (warm_start, learned) fold their payloads into the digest.
//   3. provider_slot_digest — the ResultCache key ingredient separates
//      providers, kinds, and seeds.
//   4. The regimes — exact predictions have zero error; perturbed ones
//      corrupt exactly the requested amount — and the sweep contract: with
//      one seed, perturbed_provider(0) is exact_provider(), and the
//      positions that differ from exact nest as the error level grows.
//   5. The "DGWB" weight blob round-trips, and every truncation and every
//      single-byte flip of it fails decode_model with DGAP_REQUIRE
//      (std::invalid_argument) — never UB (asan/ubsan in CI).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "predict/error_measures.hpp"
#include "predict/learned.hpp"
#include "predict/provider.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/result_cache.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

Graph test_graph() { return GraphSpec::gnp(40, 0.1, 17).build(); }

/// A hand-written model: trust the prior iff it is locally valid
/// (bias +1, heavy negative weight on the prior_invalid feature).
LearnedModel tiny_model() {
  LearnedModel model;
  for (auto& row : model.weights) {
    row[0] = kFeatureOne;           // bias
    row[6] = -3 * kFeatureOne;      // prior_invalid
  }
  return model;
}

std::vector<ProviderPtr> node_valued_providers(const Graph& g) {
  const std::vector<Value> prior =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 5)
          .node_values();
  return {neutral_provider(),       constant_provider(1),
          exact_provider(),         perturbed_provider(4),
          stale_graph_provider(3, 3), warm_start_provider(g, prior),
          learned_provider(tiny_model(), prior)};
}

TEST(Provider, MaterializationIsByteIdentical) {
  const Graph g = test_graph();
  for (const ProviderPtr& src : node_valued_providers(g)) {
    for (ProblemKind kind : {ProblemKind::kMis, ProblemKind::kMatching,
                             ProblemKind::kColoring}) {
      const Predictions a = provide_with_seed(*src, g, kind, 99);
      const Predictions b = provide_with_seed(*src, g, kind, 99);
      EXPECT_EQ(a.node_values(), b.node_values())
          << src->name() << " kind " << problem_kind_name(kind);
    }
  }
}

TEST(Provider, ReconstructedProvidersShareNameAndDigest) {
  const Graph g = test_graph();
  const std::vector<Value> prior =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 5)
          .node_values();
  const auto pairs = std::vector<std::pair<ProviderPtr, ProviderPtr>>{
      {neutral_provider(), neutral_provider()},
      {constant_provider(7), constant_provider(7)},
      {perturbed_provider(4), perturbed_provider(4)},
      {grid_stripe_provider(5, 8), grid_stripe_provider(5, 8)},
      {stale_graph_provider(2, 3), stale_graph_provider(2, 3)},
      {warm_start_provider(g, prior), warm_start_provider(g, prior)},
      {learned_provider(tiny_model(), prior),
       learned_provider(tiny_model(), prior)}};
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(a->digest(), b->digest()) << a->name();
  }
}

TEST(Provider, BundledFamilyDigestsNeverCollide) {
  const Graph g = test_graph();
  const std::vector<Value> prior_a =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 5)
          .node_values();
  std::vector<Value> prior_b = prior_a;
  prior_b[0] = prior_b[0] == 0 ? 1 : 0;
  LearnedModel other_model = tiny_model();
  other_model.weights[0][1] += 1;
  const std::vector<ProviderPtr> family{
      neutral_provider(),
      constant_provider(0),
      constant_provider(1),
      exact_provider(),
      perturbed_provider(0),
      perturbed_provider(1),
      perturbed_provider(8),
      grid_stripe_provider(4, 10),
      grid_stripe_provider(10, 4),
      stale_graph_provider(2, 2),
      stale_graph_provider(2, 3),
      warm_start_provider(g, prior_a),
      warm_start_provider(g, prior_b),  // payload differs -> digest differs
      learned_provider(tiny_model(), prior_a),
      learned_provider(tiny_model(), prior_b),
      learned_provider(other_model, prior_a)};
  std::set<std::uint64_t> digests;
  for (const ProviderPtr& src : family) digests.insert(src->digest());
  EXPECT_EQ(digests.size(), family.size());
}

TEST(Provider, SlotDigestSeparatesProvidersKindsAndSeeds) {
  std::set<std::uint64_t> keys;
  std::size_t expected = 0;
  for (const ProviderPtr& src :
       {neutral_provider(), exact_provider(), perturbed_provider(2)}) {
    for (ProblemKind kind : {ProblemKind::kMis, ProblemKind::kMatching}) {
      for (std::uint64_t seed : {0ull, 1ull, 99ull}) {
        keys.insert(provider_slot_digest(*src, kind, seed));
        ++expected;
      }
    }
  }
  EXPECT_EQ(keys.size(), expected);
}

TEST(Provider, EngineConsumesIdenticallyAtOneAndFourThreads) {
  const Graph g = test_graph();
  const Predictions pred =
      provide_with_seed(*perturbed_provider(4), g, ProblemKind::kMis, 99);
  EngineOptions one, four;
  one.num_threads = 1;
  four.num_threads = 4;
  const RunResult a = run_with_predictions(g, pred, mis_simple_greedy(), one);
  const RunResult b = run_with_predictions(g, pred, mis_simple_greedy(), four);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(Provider, BatchTranscriptsByteIdenticalAtOneAndFourWorkers) {
  const Graph g = test_graph();
  std::vector<std::vector<std::uint8_t>> transcripts;
  for (int workers : {1, 4}) {
    BatchRunner runner({workers});
    for (const ProviderPtr& src : node_valued_providers(g)) {
      BatchJob job = make_job(g, mis_simple_greedy());
      job.provider = src;
      job.provider_kind = ProblemKind::kMis;
      job.provider_seed = 99;
      job.capture_transcript = true;
      job.transcript_label = src->name();
      runner.add(std::move(job));
    }
    auto results = runner.run_all();
    for (auto& r : results) {
      ASSERT_TRUE(r.ok) << r.error;
      transcripts.push_back(std::move(r.transcript));
    }
  }
  const std::size_t half = transcripts.size() / 2;
  ASSERT_GT(half, 0u);
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_EQ(transcripts[i], transcripts[half + i]) << "job " << i;
  }
}

TEST(ExactProvider, CorrectPredictionsHaveZeroError) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = make_gnp(25, 0.2, rng);
    const auto pred = exact_provider()->provide(g, ProblemKind::kMis, rng);
    EXPECT_EQ(eta1_mis(g, pred), 0) << "mis trial " << trial;
  }
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp(20, 0.25, rng);
    const auto pred =
        exact_provider()->provide(g, ProblemKind::kMatching, rng);
    EXPECT_EQ(eta1_matching(g, pred), 0) << "matching trial " << trial;
  }
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp(20, 0.3, rng);
    const auto pred =
        exact_provider()->provide(g, ProblemKind::kColoring, rng);
    EXPECT_EQ(eta1_coloring(g, pred), 0) << "coloring trial " << trial;
  }
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp(15, 0.3, rng);
    const auto pred =
        exact_provider()->provide(g, ProblemKind::kEdgeColoring, rng);
    EXPECT_EQ(eta1_edge_coloring(g, pred), 0) << "edge trial " << trial;
  }
}

TEST(PerturbedProvider, FlipBitsFlipsExactlyK) {
  const Graph g = make_line(20);
  const auto base =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 2);
  const auto flipped =
      provide_with_seed(*perturbed_provider(5), g, ProblemKind::kMis, 2);
  int diff = 0;
  for (NodeId v = 0; v < 20; ++v) {
    if (base.node(v) != flipped.node(v)) ++diff;
  }
  EXPECT_EQ(diff, 5);
}

TEST(PerturbedProvider, FlipBitsClampsToN) {
  const Graph g = make_line(4);
  const auto base =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 3);
  const auto flipped =
      provide_with_seed(*perturbed_provider(100), g, ProblemKind::kMis, 3);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(flipped.node(v), 1 - base.node(v));
}

TEST(PerturbedProvider, BreakMatchesIntroducesError) {
  Rng rng(6);
  const Graph g = make_line(20);
  const auto broken =
      perturbed_provider(3)->provide(g, ProblemKind::kMatching, rng);
  EXPECT_GT(eta1_matching(g, broken), 0);
}

TEST(PerturbedProvider, ScrambleEdgeColorsStaysSymmetric) {
  Rng rng(9);
  const Graph g = make_gnp(12, 0.4, rng);
  const auto scrambled =
      perturbed_provider(6)->provide(g, ProblemKind::kEdgeColoring, rng);
  EXPECT_GT(eta1_edge_coloring(g, scrambled), 0);
  for (auto [u, v] : g.edges()) {
    EXPECT_EQ(scrambled.edge(g, u, v), scrambled.edge(g, v, u));
  }
}

/// Every predicted value in one vector: the node values, or the edge rows
/// concatenated in node order.
std::vector<Value> flat_values(const Predictions& p) {
  if (p.has_node_values()) return p.node_values();
  std::vector<Value> out;
  for (const auto& row : p.edge_values()) {
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

TEST(PerturbedProvider, SweepSharesOneBaseAndNestsErrors) {
  const Graph g = GraphSpec::gnp(200, 0.05, 31).build();
  constexpr std::uint64_t kSeed = 7;
  const std::vector<int> levels{0, 1, 2, 5, 10, 30, 100, 1000};
  for (ProblemKind kind : {ProblemKind::kMis, ProblemKind::kMatching,
                           ProblemKind::kColoring,
                           ProblemKind::kEdgeColoring}) {
    SCOPED_TRACE(problem_kind_name(kind));
    const std::vector<Value> exact =
        flat_values(provide_with_seed(*exact_provider(), g, kind, kSeed));
    std::vector<Value> prev = exact;  // the level below, starting at exact
    for (int k : levels) {
      SCOPED_TRACE("errors " + std::to_string(k));
      const Predictions pred =
          provide_with_seed(*perturbed_provider(k), g, kind, kSeed);
      const std::vector<Value> cur = flat_values(pred);
      ASSERT_EQ(cur.size(), exact.size());
      if (k == 0) {
        EXPECT_EQ(cur, exact);
      }
      std::size_t diff = 0;
      for (std::size_t i = 0; i < cur.size(); ++i) {
        if (cur[i] != exact[i]) ++diff;
        // Nested: a position wrong one level down stays wrong, unchanged.
        if (prev[i] != exact[i]) {
          EXPECT_EQ(cur[i], prev[i]) << "position " << i;
        }
      }
      if (kind == ProblemKind::kMis) {
        EXPECT_EQ(diff, std::min<std::size_t>(k, cur.size()));
      }
      if (kind == ProblemKind::kEdgeColoring) {
        for (auto [u, v] : g.edges()) {
          ASSERT_EQ(pred.edge(g, u, v), pred.edge(g, v, u));
        }
      }
      prev = cur;
    }
    EXPECT_NE(prev, exact);  // the top level corrupts something
  }
}

TEST(ConstantProvider, PredictsTheValueEverywhere) {
  const Graph g = make_ring(5);
  const auto p =
      provide_with_seed(*constant_provider(1), g, ProblemKind::kMis, 0);
  ASSERT_EQ(p.node_values().size(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(p.node(v), 1);
}

TEST(GridStripeProvider, MatchesFigure2Pattern) {
  const Graph g = make_grid(8, 8);
  const auto p =
      provide_with_seed(*grid_stripe_provider(8, 8), g, ProblemKind::kMis, 0);
  // (0,0) → both mod-4 coords in {0,1} → black.
  EXPECT_EQ(p.node(grid_index(8, 0, 0)), 1);
  EXPECT_EQ(p.node(grid_index(8, 1, 1)), 1);
  EXPECT_EQ(p.node(grid_index(8, 2, 2)), 1);
  EXPECT_EQ(p.node(grid_index(8, 2, 0)), 0);
  EXPECT_EQ(p.node(grid_index(8, 0, 3)), 0);
  EXPECT_EQ(p.node(grid_index(8, 7, 6)), 1);
  // Eight columns: the pattern repeats in both directions.
  for (NodeId y = 0; y < 8; ++y) {
    for (NodeId x = 0; x < 4; ++x) {
      EXPECT_EQ(p.node(grid_index(8, x, y)), p.node(grid_index(8, x + 4, y)));
    }
  }
}

TEST(WeightBlob, RoundTrips) {
  const LearnedModel model = tiny_model();
  const std::vector<std::uint8_t> blob = encode_model(model);
  const LearnedModel back = decode_model(blob);
  EXPECT_EQ(back.version, model.version);
  EXPECT_EQ(back.weights, model.weights);
  EXPECT_EQ(encode_model(back), blob);
}

TEST(WeightBlob, EveryTruncationFailsCleanly) {
  const std::vector<std::uint8_t> blob = encode_model(tiny_model());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_model(prefix), std::invalid_argument)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WeightBlob, EveryByteFlipFailsCleanly) {
  const std::vector<std::uint8_t> blob = encode_model(tiny_model());
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> corrupt = blob;
      corrupt[i] ^= flip;
      EXPECT_THROW(decode_model(corrupt), std::invalid_argument)
          << "corrupt byte " << i << " (^" << int(flip) << ") decoded";
    }
  }
}

}  // namespace
}  // namespace dgap
