// The dynamic-graph serving pipeline end-to-end:
//   1. Churn property sweep — seeds × churn rates × {MIS, matching,
//      coloring}: every epoch's warm output is a valid complete solution,
//      η is finite, and the per-epoch degradation bound holds exactly.
//   2. Determinism — identical ChurnSpec seeds give byte-identical
//      per-epoch transcripts across batch workers {1,2,4}; the committed
//      epoch-sequence golden re-verifies.
//   3. Result-cache correctness — hits are bit-identical to a forced
//      recompute (transcript bytes as witness), distinct predictions get
//      distinct keys, and a mutated cache entry trips the poisoning guard.
//   4. Identifier stability — node deletion + re-insertion never reuses a
//      live identifier, and stale warm-start predictions referencing
//      deleted nodes are dropped, not passed through.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases.hpp"
#include "graph/edits.hpp"
#include "graph/generators.hpp"
#include "predict/provider.hpp"
#include "sim/epoch.hpp"
#include "sim/result_cache.hpp"
#include "templates/epoch_problems.hpp"

namespace dgap {
namespace {

EpochProblem problem_by_index(int p) {
  switch (p) {
    case 0: return epoch_mis();
    case 1: return epoch_matching();
    default: return epoch_coloring();
  }
}

// ---------------------------------------------------------------------------
// 1. Churn property sweep
// ---------------------------------------------------------------------------

struct ChurnCase {
  int problem;       // 0 = mis, 1 = matching, 2 = coloring
  std::uint64_t seed;
  double rate;       // shared by all four churn fractions
};

std::ostream& operator<<(std::ostream& os, const ChurnCase& c) {
  static const char* names[] = {"mis", "matching", "coloring"};
  return os << names[c.problem] << "_s" << c.seed << "_r"
            << static_cast<int>(c.rate * 100);
}

class ChurnSweepTest : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(ChurnSweepTest, EveryEpochValidAndWithinDegradationBound) {
  const ChurnCase& c = GetParam();
  const EpochProblem problem = problem_by_index(c.problem);
  EpochConfig config;
  config.base = GraphSpec::gnp(30, 0.12, c.seed);
  config.churn.seed = c.seed * 17 + 5;
  config.churn.edge_remove_frac = c.rate;
  config.churn.edge_add_frac = c.rate;
  config.churn.node_remove_frac = c.rate / 2;
  config.churn.node_add_frac = c.rate / 2;
  config.epochs = 4;

  // The harness itself checks validity per epoch (DGAP_ASSERT on the
  // problem's checker), so run() completing is already the validity sweep;
  // the inequalities below are the paper's per-epoch claims.
  EpochHarness harness(problem_by_index(c.problem), config);
  const EpochReport report = harness.run();
  ASSERT_EQ(report.epochs.size(), static_cast<std::size_t>(config.epochs));
  Graph g = config.base.build();
  for (const EpochRecord& e : report.epochs) {
    if (e.epoch > 0) g = apply_edits(g, config.churn.generate(g, e.epoch));
    ASSERT_TRUE(e.warm.completed) << "epoch " << e.epoch;
    ASSERT_TRUE(e.control.completed) << "epoch " << e.epoch;
    EXPECT_TRUE(problem.check(g, e.warm).empty())
        << "epoch " << e.epoch << ": " << problem.check(g, e.warm);
    EXPECT_GE(e.eta, 0) << "epoch " << e.epoch;
    EXPECT_LE(e.eta, e.nodes) << "epoch " << e.epoch;
    EXPECT_LE(e.warm.rounds, problem.degradation_bound(e.eta, g))
        << "epoch " << e.epoch << " (eta " << e.eta << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChurnSweepTest,
    ::testing::Values(ChurnCase{0, 3, 0.02}, ChurnCase{0, 3, 0.10},
                      ChurnCase{0, 11, 0.25}, ChurnCase{1, 3, 0.02},
                      ChurnCase{1, 11, 0.10}, ChurnCase{1, 7, 0.25},
                      ChurnCase{2, 3, 0.02}, ChurnCase{2, 11, 0.10},
                      ChurnCase{2, 7, 0.25}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

// ---------------------------------------------------------------------------
// 2. Determinism across execution axes + the committed golden
// ---------------------------------------------------------------------------

EpochConfig determinism_config() {
  EpochConfig config;
  config.base = GraphSpec::gnp(26, 0.14, 5);
  config.churn.seed = 77;
  config.churn.edge_remove_frac = 0.08;
  config.churn.edge_add_frac = 0.08;
  config.churn.node_remove_frac = 0.05;
  config.churn.node_add_frac = 0.05;
  config.epochs = 4;
  config.capture_transcripts = true;
  config.label = "det";
  return config;
}

TEST(EpochDeterminism, ByteIdenticalAcrossWorkers) {
  std::vector<std::vector<std::uint8_t>> sequences;
  std::vector<std::uint64_t> checksums;
  for (int workers : {1, 2, 4}) {
    EpochConfig config = determinism_config();
    config.workers = workers;
    EpochHarness harness(epoch_mis(), config);
    const EpochReport report = harness.run();
    sequences.push_back(epoch_sequence_of("det", report));
    checksums.push_back(epoch_report_checksum(report));
  }
  for (std::size_t i = 1; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], sequences[0]) << "execution axis " << i;
    EXPECT_EQ(checksums[i], checksums[0]) << "execution axis " << i;
  }
}

TEST(EpochDeterminism, HarnessRunsOnlyOnItsBatchRunner) {
  EpochConfig no_workers = determinism_config();
  no_workers.workers = 0;
  EXPECT_THROW(EpochHarness(epoch_mis(), no_workers), std::invalid_argument);
  EpochConfig threaded = determinism_config();
  threaded.options.num_threads = 2;
  EXPECT_THROW(EpochHarness(epoch_mis(), threaded), std::invalid_argument);
}

TEST(EpochGolden, CommittedEpochSequencesVerifyAgainstLiveReruns) {
  ASSERT_GE(epoch_cases().size(), 1u);
  for (const EpochCase& c : epoch_cases()) {
    const std::string path =
        std::string(DGAP_GOLDEN_DIR) + "/" + golden_file_name(c);
    const std::vector<std::uint8_t> golden = read_transcript_file(path);
    ASSERT_TRUE(is_epoch_sequence(golden)) << c.name;
    EXPECT_EQ(decode_epoch_sequence(golden).label, c.name);
    EXPECT_NO_THROW(verify_epoch_case(c, golden)) << c.name;
    EXPECT_EQ(record_epoch_case(c), golden) << c.name;
  }
}

TEST(EpochSequenceContainer, RoundTripAndCorruptionGuards) {
  const std::vector<std::vector<std::uint8_t>> blobs = {
      {1, 2, 3}, {}, {255, 0, 128, 7}};
  std::vector<std::uint8_t> bytes = encode_epoch_sequence("roundtrip", blobs);
  ASSERT_TRUE(is_epoch_sequence(bytes));
  const EpochSequence seq = decode_epoch_sequence(bytes);
  EXPECT_EQ(seq.label, "roundtrip");
  EXPECT_EQ(seq.epochs, blobs);

  // Every single-byte flip and every truncation is a structural error,
  // never UB (asan/ubsan in CI).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> bad = bytes;
      bad[i] ^= flip;
      EXPECT_THROW(decode_epoch_sequence(bad), std::invalid_argument)
          << "corrupt byte " << i << " (^" << int(flip) << ") decoded";
    }
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_epoch_sequence(cut), std::invalid_argument)
        << "prefix of " << len << " bytes decoded";
  }
  std::vector<std::uint8_t> foreign = bytes;
  foreign[0] = 'X';
  EXPECT_FALSE(is_epoch_sequence(foreign));
  EXPECT_THROW(decode_epoch_sequence(foreign), std::invalid_argument);
}

TEST(EpochSequenceContainer, ForgedLengthsWithValidChecksumFailCleanly) {
  // The checksum catches accidental damage; a forged container re-signs
  // its body, so the framing itself must reject impossible lengths.
  const std::vector<std::uint8_t> bytes =
      encode_epoch_sequence("forged", {{1, 2, 3}, {4}});
  const auto resign = [](std::vector<std::uint8_t> body) {
    const std::uint64_t h = fnv1a_bytes(body);
    for (int b = 0; b < 8; ++b) {
      body.push_back(static_cast<std::uint8_t>((h >> (8 * b)) & 0xffU));
    }
    return body;
  };
  const std::vector<std::uint8_t> body(bytes.begin(), bytes.end() - 8);
  ASSERT_EQ(decode_epoch_sequence(resign(body)).epochs.size(), 2u);
  // Header layout: magic(4) version(4) label_len(4) label(6) count(4),
  // then the first epoch's u64 length. Each field becomes a value far
  // past the container; all-ones lengths would wrap a naive bound check.
  struct Field {
    std::size_t at;
    std::size_t width;
  };
  for (const Field field : {Field{8, 4}, Field{18, 4}, Field{22, 8}}) {
    for (const std::uint8_t fill : {std::uint8_t{0x7f}, std::uint8_t{0xff}}) {
      std::vector<std::uint8_t> forged = body;
      std::fill_n(forged.begin() + static_cast<std::ptrdiff_t>(field.at),
                  field.width, fill);
      EXPECT_THROW(decode_epoch_sequence(resign(forged)),
                   std::invalid_argument)
          << "field at byte " << field.at << " filled with " << int(fill);
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Result-cache correctness
// ---------------------------------------------------------------------------

TEST(EpochResultCache, SecondRunIsServedEntirelyFromCache) {
  EpochConfig config = determinism_config();
  EpochHarness harness(epoch_mis(), config);
  const EpochReport first = harness.run();
  const EpochReport second = harness.run();
  EXPECT_EQ(second.cache_misses, 0);
  EXPECT_EQ(second.cache_hits,
            static_cast<std::int64_t>(2 * config.epochs));  // warm + control
  for (const EpochRecord& e : second.epochs) {
    EXPECT_TRUE(e.warm_cache_hit) << "epoch " << e.epoch;
    EXPECT_TRUE(e.control_cache_hit) << "epoch " << e.epoch;
  }
  EXPECT_EQ(epoch_report_checksum(first), epoch_report_checksum(second));
}

TEST(EpochResultCache, HitsAreBitIdenticalToForcedRecompute) {
  EpochConfig cached = determinism_config();
  EpochHarness harness(epoch_mis(), cached);
  harness.run();  // fill
  const EpochReport hit = harness.run();  // served from cache

  EpochConfig uncached = determinism_config();
  uncached.use_result_cache = false;
  EpochHarness fresh(epoch_mis(), uncached);
  const EpochReport recompute = fresh.run();
  EXPECT_EQ(recompute.cache_hits, 0);
  EXPECT_EQ(recompute.cache_misses, 0);

  // Transcript bytes are the strongest witness: every round event equal.
  EXPECT_EQ(epoch_sequence_of("det", hit), epoch_sequence_of("det", recompute));
  EXPECT_EQ(epoch_report_checksum(hit), epoch_report_checksum(recompute));
}

TEST(EpochResultCache, DistinctPredictionsNeverCollide) {
  const Graph g = GraphSpec::gnp(24, 0.15, 9).build();
  std::vector<Predictions> preds;
  preds.push_back(Predictions(std::vector<Value>(g.num_nodes(), 0)));
  preds.push_back(Predictions(std::vector<Value>(g.num_nodes(), 1)));
  // One perturbed sweep: level k differs from the shared exact base in
  // exactly k bits, so the levels are pairwise distinct.
  for (int flips = 1; flips <= 8; ++flips) {
    preds.push_back(provide_with_seed(*perturbed_provider(flips), g,
                                      ProblemKind::kMis, 1));
  }
  const std::uint64_t instance = graph_digest(g);
  const std::uint64_t options = options_digest(EngineOptions{});
  std::set<std::uint64_t> digests;
  std::set<std::uint64_t> keys;
  for (const Predictions& p : preds) {
    digests.insert(predictions_digest(p));
    keys.insert(result_cache_key(instance, "mis_simple_greedy",
                                 predictions_digest(p), options, false,
                                 TraceDetail::kPayloads));
  }
  EXPECT_EQ(digests.size(), preds.size());
  EXPECT_EQ(keys.size(), preds.size());
}

TEST(EpochResultCache, DefaultCapacityIsUnbounded) {
  ResultCache cache;
  EXPECT_EQ(cache.capacity(), 0u);
  RunResult result;
  for (std::uint64_t k = 0; k < 64; ++k) cache.put(k, result, {});
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(EpochResultCache, CapacityEvictsLeastRecentlyUsed) {
  ResultCache cache;
  cache.set_capacity(2);
  RunResult result;
  result.rounds = 7;
  cache.put(1, result, {});
  cache.put(2, result, {});
  // Touch 1 so 2 becomes the least recently used entry.
  EXPECT_NE(cache.get(1), nullptr);
  cache.put(3, result, {});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.get(2), nullptr);   // evicted
  EXPECT_NE(cache.get(1), nullptr);   // refreshed, survived
  EXPECT_NE(cache.get(3), nullptr);   // newest
}

TEST(EpochResultCache, ShrinkingCapacityEvictsImmediately) {
  ResultCache cache;
  RunResult result;
  for (std::uint64_t k = 0; k < 8; ++k) cache.put(k, result, {});
  cache.set_capacity(3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 5);
  // The three most recently inserted keys survive.
  for (std::uint64_t k = 5; k < 8; ++k) {
    EXPECT_NE(cache.get(k), nullptr) << "key " << k;
  }
  // Eviction never corrupts hit semantics: survivors are bit-exact.
  EXPECT_EQ(cache.get(7)->result.rounds, result.rounds);
}

TEST(EpochResultCache, PoisonedEntryTripsTheGuard) {
  ResultCache cache;
  RunResult result;
  result.rounds = 7;
  cache.put(42, result, {1, 2, 3});
  EXPECT_NE(cache.get(42), nullptr);
  cache.poison_for_test(42);
  EXPECT_THROW(cache.get(42), std::logic_error);
}

// ---------------------------------------------------------------------------
// 4. Identifier stability under churn
// ---------------------------------------------------------------------------

TEST(IdentifierStability, DeletedIdentifiersAreNeverReissued) {
  Graph g = GraphSpec::gnp(20, 0.2, 13).build();
  ChurnSpec churn;
  churn.seed = 99;
  churn.edge_remove_frac = 0.1;
  churn.edge_add_frac = 0.1;
  churn.node_remove_frac = 0.2;
  churn.node_add_frac = 0.2;
  std::set<Value> dead;
  for (int epoch = 1; epoch <= 8; ++epoch) {
    const EditBatch batch = churn.generate(g, epoch);
    for (Value id : batch.remove_nodes) dead.insert(id);
    const std::int64_t old_bound = g.id_bound();
    g = apply_edits(g, batch);
    EXPECT_GE(g.id_bound(), old_bound) << "epoch " << epoch;  // monotone
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(dead.count(g.id(v)), 0u)
          << "identifier " << g.id(v) << " resurrected at epoch " << epoch;
    }
  }
  EXPECT_FALSE(dead.empty()) << "sweep never deleted a node";
}

TEST(IdentifierStability, ReinsertionAfterDeletionGetsAFreshIdentifier) {
  const Graph g = GraphSpec::line(5).build();
  const Value victim = g.id(2);
  EditBatch remove;
  remove.remove_nodes.push_back(victim);
  const Graph smaller = apply_edits(g, remove);
  EditBatch insert;
  insert.add_nodes = 3;
  const Graph bigger = apply_edits(smaller, insert);
  for (NodeId v = 0; v < bigger.num_nodes(); ++v) {
    EXPECT_NE(bigger.id(v), victim);
  }
  // The fresh identifiers sit strictly above the pre-deletion bound.
  EXPECT_EQ(bigger.id_bound(), g.id_bound() + 3);
}

TEST(IdentifierStability, StaleWarmStartPredictionsAreDropped) {
  const Graph prev = GraphSpec::line(4).build();
  // Nodes 0-1 matched with each other, node 2 matched with node 3.
  std::vector<Value> outputs(4);
  outputs[0] = prev.id(1);
  outputs[1] = prev.id(0);
  outputs[2] = prev.id(3);
  outputs[3] = prev.id(2);
  EditBatch batch;
  batch.remove_nodes.push_back(prev.id(3));
  const Graph next = apply_edits(prev, batch);

  const Predictions warm = provide_with_seed(
      *warm_start_provider(prev, outputs), next, ProblemKind::kMatching, 0);
  ASSERT_EQ(warm.node_values().size(), static_cast<std::size_t>(3));
  // Survivors keep partners that survived; the partner of the deleted
  // node is dropped to ⊥, never passed through as a dangling identifier.
  EXPECT_EQ(warm.node_values()[0], prev.id(1));
  EXPECT_EQ(warm.node_values()[1], prev.id(0));
  EXPECT_EQ(warm.node_values()[2], kNoNode);
}

TEST(IdentifierStability, OutOfEncodingOutputsBecomeNeutralPredictions) {
  const Graph prev = GraphSpec::line(3).build();
  const std::vector<Value> garbage = {kUndefined, -999, 17};
  const ProviderPtr warm = warm_start_provider(prev, garbage);
  const Predictions mis = provide_with_seed(*warm, prev, ProblemKind::kMis, 0);
  EXPECT_EQ(mis.node_values(), (std::vector<Value>{0, 0, 0}));
  const Predictions matching =
      provide_with_seed(*warm, prev, ProblemKind::kMatching, 0);
  EXPECT_EQ(matching.node_values()[0], kNoNode);
  EXPECT_EQ(matching.node_values()[1], kNoNode);
  const Predictions coloring =
      provide_with_seed(*warm, prev, ProblemKind::kColoring, 0);
  EXPECT_EQ(coloring.node_values()[0], 0);
  EXPECT_EQ(coloring.node_values()[1], 0);
  EXPECT_EQ(coloring.node_values()[2], 17);  // positive color passes through
}

TEST(PerturbEdges, KeepsNodeSet) {
  Rng rng(4);
  const Graph g = make_random_connected(30, 15, rng);
  const Graph h = perturb_edges(g, 5, 5, rng);
  EXPECT_EQ(h.num_nodes(), 30);
  EXPECT_EQ(h.num_edges(), g.num_edges());  // -5 +5
  EXPECT_EQ(h.ids(), g.ids());
  EXPECT_EQ(h.id_bound(), g.id_bound());
  EXPECT_NE(h.edges(), g.edges());
}

TEST(ApplyEdits, EditBatchesAreContractsNotHints) {
  const Graph g = GraphSpec::line(4).build();
  EditBatch unknown_node;
  unknown_node.remove_nodes.push_back(g.id_bound() + 100);
  EXPECT_THROW(apply_edits(g, unknown_node), std::invalid_argument);

  EditBatch missing_edge;
  missing_edge.remove_edges.emplace_back(g.id(0), g.id(3));  // not adjacent
  EXPECT_THROW(apply_edits(g, missing_edge), std::invalid_argument);

  EditBatch duplicate_edge;
  duplicate_edge.add_edges.emplace_back(g.id(0), g.id(1));  // already there
  EXPECT_THROW(apply_edits(g, duplicate_edge), std::invalid_argument);

  EditBatch added_twice;  // a new edge, listed in both orientations
  added_twice.add_edges.emplace_back(g.id(0), g.id(2));
  added_twice.add_edges.emplace_back(g.id(2), g.id(0));
  EXPECT_THROW(apply_edits(g, added_twice), std::invalid_argument);

  EditBatch self_loop;
  self_loop.add_edges.emplace_back(g.id(0), g.id(0));
  EXPECT_THROW(apply_edits(g, self_loop), std::invalid_argument);
}

}  // namespace
}  // namespace dgap
