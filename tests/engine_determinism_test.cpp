// Determinism guarantees of the engine's data plane (docs/MODEL.md,
// "Simulator internals & performance model"):
//
//  1. A run is a pure function of (graph, factory, options): running twice
//     with the same seed yields a bit-identical RunResult.
//  2. num_threads never affects the result: parallel runs are bit-identical
//     to the serial run (shard slices are pure functions of the active
//     count, and per-shard output is merged in slice order).
//  3. Algorithms break symmetry by identifiers, never internal indices, so
//     permuting the internal node order yields the same per-identifier
//     outputs and the same global metrics.
//  4. The link layer (the kDefer congest policy) preserves all of the
//     above: its schedule is computed serially between the sharded send
//     and receive phases, so num_threads and node-order shuffles cannot
//     change what arrives when.
//  5. A sender that emits a decreasing channel sequence still produces
//     inboxes in (sender, channel, send order) at every thread count,
//     with and without the link layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "mis/congest_global.hpp"
#include "random/luby.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "sim/transcript.hpp"
#include "run_record.hpp"

namespace dgap {
namespace {

/// Everything in RunResult except the host-clock measurements (wall_ms and
/// phase_ns, explicitly excluded from the determinism contract). The
/// suppression split is compared exactly: the
/// per-receiver-shard accounts must merge to the same counters at every
/// thread count.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.termination_round, b.termination_round);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.edge_outputs, b.edge_outputs);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_words, b.total_words);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.words_sent, b.words_sent);
  EXPECT_EQ(a.messages_suppressed, b.messages_suppressed);
  EXPECT_EQ(a.words_suppressed, b.words_suppressed);
  EXPECT_EQ(a.max_message_words, b.max_message_words);
  EXPECT_EQ(a.congest_violations, b.congest_violations);
  EXPECT_EQ(a.deferred_messages, b.deferred_messages);
  EXPECT_EQ(a.deferred_words, b.deferred_words);
  EXPECT_EQ(a.link_backlog_peak_words, b.link_backlog_peak_words);
  EXPECT_EQ(a.rounds_with_backlog, b.rounds_with_backlog);
}

Graph test_graph() {
  Rng rng(2024);
  Graph g = make_gnp(512, 8.0 / 512, rng);
  randomize_ids(g, rng);
  return g;
}

EngineOptions threads_options(int num_threads) {
  EngineOptions opt;
  opt.num_threads = num_threads;
  return opt;
}

TEST(EngineDeterminism, SameSeedSameResult) {
  Graph g = test_graph();
  auto one = run_algorithm(g, luby_mis_algorithm(42), threads_options(1));
  auto two = run_algorithm(g, luby_mis_algorithm(42), threads_options(1));
  ASSERT_TRUE(one.completed);
  expect_identical(one, two);
}

TEST(EngineDeterminism, ThreadCountInvariant) {
  Graph g = test_graph();
  auto serial = run_algorithm(g, luby_mis_algorithm(42), threads_options(1));
  ASSERT_TRUE(serial.completed);
  for (int threads : {2, 4, 8}) {
    auto parallel =
        run_algorithm(g, luby_mis_algorithm(42), threads_options(threads));
    expect_identical(serial, parallel);
  }
}

/// Rebuild g with internal node v placed at index perm[v] (identifiers
/// travel with the nodes, so the logical graph is unchanged).
Graph permute_indices(const Graph& g, const std::vector<NodeId>& perm) {
  const NodeId n = g.num_nodes();
  std::vector<Graph::Edge> edges;
  for (const auto& [u, v] : g.edges()) edges.emplace_back(perm[u], perm[v]);
  Graph h(n, edges);
  std::vector<Value> ids(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) ids[perm[v]] = g.id(v);
  h.set_ids(std::move(ids));
  h.set_id_bound(g.id_bound());
  return h;
}

TEST(EngineDeterminism, NodeOrderShuffleInvariantPerIdentifier) {
  Graph g = test_graph();
  auto base = run_algorithm(g, luby_mis_algorithm(42), threads_options(1));
  ASSERT_TRUE(base.completed);

  Rng rng(99);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<NodeId> perm(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) perm[v] = v;
    rng.shuffle(perm);
    Graph h = permute_indices(g, perm);
    auto shuffled =
        run_algorithm(h, luby_mis_algorithm(42), threads_options(1));

    // Global quantities are index-free and must match exactly.
    EXPECT_EQ(base.completed, shuffled.completed);
    EXPECT_EQ(base.rounds, shuffled.rounds);
    EXPECT_EQ(base.total_messages, shuffled.total_messages);
    EXPECT_EQ(base.total_words, shuffled.total_words);
    EXPECT_EQ(base.max_message_words, shuffled.max_message_words);
    EXPECT_EQ(active_per_round(base), active_per_round(shuffled));

    // Per-node quantities must match after translating indices to ids.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(base.outputs[v], shuffled.outputs[perm[v]])
          << "output of id " << g.id(v);
      EXPECT_EQ(base.termination_round[v], shuffled.termination_round[perm[v]])
          << "termination round of id " << g.id(v);
    }
  }
}

/// A bandwidth-hungry workload for the deferral scheduler: every node
/// broadcasts a 4-word burst for three rounds and stays active until it
/// has received all 3 * degree bursts, folding every delivered word (and
/// its arrival round) into an order-sensitive digest. Under a budget
/// below 4 the link layer must spread the bursts over many rounds, and
/// any scheduling nondeterminism changes some node's digest.
class BurstEchoProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    if (ctx.round() <= 3) {
      ctx.broadcast({ctx.id(), Value{ctx.round()}, 7, 9});
    }
  }
  void on_receive(NodeContext& ctx) override {
    for (const Message& m : ctx.inbox()) {
      ++received_;
      digest_ = digest_ * 1315423911u + static_cast<std::uint64_t>(m.from);
      for (std::size_t i = 0; i < m.words.size(); ++i) {
        digest_ = digest_ * 31u + static_cast<std::uint64_t>(m.words.at(i));
      }
      digest_ = digest_ * 31u + static_cast<std::uint64_t>(ctx.round());
    }
    if (received_ >= 3 * ctx.degree()) {
      ctx.set_output(static_cast<Value>(digest_ >> 1));
      ctx.terminate();
    }
  }

 private:
  int received_ = 0;
  std::uint64_t digest_ = 1;
};

TEST(EngineDeterminism, DeferPolicyThreadCountInvariant) {
  Graph g = test_graph();
  EngineOptions opt = threads_options(1);
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 3;  // below the burst width: every send defers
  auto factory = [](NodeId) { return std::make_unique<BurstEchoProgram>(); };
  auto serial = run_algorithm(g, factory, opt);
  ASSERT_TRUE(serial.completed);
  EXPECT_GT(serial.deferred_words, 0);
  EXPECT_GT(serial.rounds_with_backlog, 0);
  auto repeat = run_algorithm(g, factory, opt);
  expect_identical(serial, repeat);
  for (int threads : {2, 4, 8}) {
    opt.num_threads = threads;
    auto parallel = run_algorithm(g, factory, opt);
    expect_identical(serial, parallel);
  }
}

TEST(EngineDeterminism, DeferPolicyShuffleInvariantPerIdentifier) {
  // congest_global under a 1-word budget exercises the stretched schedule
  // and per-link carry-over; the deferral pattern is a function of the
  // logical graph, so internal node order must not leak into any metric.
  Rng graph_rng(7);
  Graph g = make_random_connected(24, 12, graph_rng);
  randomize_ids(g, graph_rng);
  EngineOptions opt = threads_options(1);
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 1;
  auto base = run_algorithm(g, congest_global_mis_algorithm(), opt);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(is_valid_mis(g, base.outputs));
  EXPECT_GT(base.deferred_messages, 0);

  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    auto parallel = run_algorithm(g, congest_global_mis_algorithm(), topt);
    expect_identical(base, parallel);
  }

  Rng rng(99);
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<NodeId> perm(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) perm[v] = v;
    rng.shuffle(perm);
    Graph h = permute_indices(g, perm);
    auto shuffled = run_algorithm(h, congest_global_mis_algorithm(), opt);
    EXPECT_EQ(base.completed, shuffled.completed);
    EXPECT_EQ(base.rounds, shuffled.rounds);
    EXPECT_EQ(base.total_messages, shuffled.total_messages);
    EXPECT_EQ(base.total_words, shuffled.total_words);
    EXPECT_EQ(base.deferred_messages, shuffled.deferred_messages);
    EXPECT_EQ(base.deferred_words, shuffled.deferred_words);
    EXPECT_EQ(base.link_backlog_peak_words, shuffled.link_backlog_peak_words);
    EXPECT_EQ(base.rounds_with_backlog, shuffled.rounds_with_backlog);
    EXPECT_EQ(active_per_round(base), active_per_round(shuffled));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(base.outputs[v], shuffled.outputs[perm[v]])
          << "output of id " << g.id(v);
      EXPECT_EQ(base.termination_round[v], shuffled.termination_round[perm[v]])
          << "termination round of id " << g.id(v);
    }
  }
}

// A full payload-level transcript is the strongest determinism witness:
// byte equality pins every delivered word of every round, not just the
// aggregate counters expect_identical compares. The serial transcript is
// the reference; any thread count must reproduce it bit-for-bit. (The
// header deliberately omits num_threads, so equal logical runs give equal
// bytes — see sim/transcript.hpp.)
TEST(EngineDeterminism, TranscriptIsThreadCountInvariant) {
  Graph g = test_graph();
  EngineOptions opt = threads_options(1);
  const RecordedRun serial =
      record_run(g, {}, luby_mis_algorithm(42), opt, TraceDetail::kPayloads);
  ASSERT_TRUE(serial.result.completed);
  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    const RecordedRun parallel = record_run(g, {}, luby_mis_algorithm(42),
                                            topt, TraceDetail::kPayloads);
    EXPECT_EQ(serial.transcript, parallel.transcript)
        << "num_threads = " << threads;
    expect_identical(serial.result, parallel.result);
  }
}

TEST(EngineDeterminism, DeferTranscriptIsThreadCountInvariant) {
  // Under kDefer the transcript records effective arrival rounds, so byte
  // equality also pins the whole deferral schedule. Every enforced input
  // runs delivery passes A and B (channel repair, resend cache, charge)
  // sharded before the serial link layer, so sweep the cache off and on:
  // BurstEcho's 4-word bursts defer at B = 3, and flood_min's 1-word
  // re-broadcasts give the cache hits whose suppressed deliveries bypass
  // the link budget.
  Rng rng(33);
  Graph flood_graph = make_random_connected(48, 40, rng);
  randomize_ids(flood_graph, rng);
  struct Input {
    const char* name;
    Graph g;
    ProgramFactory factory;
  };
  const std::vector<Input> inputs = {
      {"burst_echo", test_graph(),
       [](NodeId) { return std::make_unique<BurstEchoProgram>(); }},
      {"flood_min", flood_graph, flood_min_algorithm()},
  };
  for (const Input& in : inputs) {
    for (bool cache : {false, true}) {
      SCOPED_TRACE(std::string(in.name) + (cache ? " cache" : ""));
      EngineOptions opt = threads_options(1);
      opt.congest_policy = CongestPolicy::kDefer;
      opt.congest_word_limit = 3;
      opt.compile.cache_resends = cache;
      const RecordedRun serial =
          record_run(in.g, {}, in.factory, opt, TraceDetail::kPayloads);
      ASSERT_TRUE(serial.result.completed);
      if (std::string(in.name) == "burst_echo") {
        ASSERT_GT(serial.result.deferred_words, 0);
      } else if (cache) {
        ASSERT_GT(serial.result.messages_suppressed, 0);
      }
      for (int threads : {2, 4, 8}) {
        EngineOptions topt = opt;
        topt.num_threads = threads;
        const RecordedRun parallel =
            record_run(in.g, {}, in.factory, topt, TraceDetail::kPayloads);
        EXPECT_EQ(serial.transcript, parallel.transcript)
            << "num_threads = " << threads;
        expect_identical(serial.result, parallel.result);
      }
    }
  }
}

/// Sends on a decreasing channel sequence, so delivery has to repair every
/// sender's record order: in each of rounds 1-3 every node sends channels
/// 2, 1, 2 to each neighbor, then broadcasts on channel 0. Payloads are
/// (send round, per-node send counter). A receiver checks that its inbox
/// is in (sender, send round, channel, send order) — the canonical
/// (sender, channel, send order) within each send round; a slice only
/// spans several send rounds under kDefer carry-over — and outputs its
/// message count once everything arrived, or -1 if any inbox was out of
/// order.
class ChannelRepairProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    if (ctx.round() > 3) return;
    const Value r = ctx.round();
    for (NodeId u : ctx.neighbors()) {
      ctx.send(u, {r, seq_++}, 2);
      ctx.send(u, {r, seq_++}, 1);
      ctx.send(u, {r, seq_++}, 2);
    }
    ctx.broadcast({r, seq_++}, 0);
  }
  void on_receive(NodeContext& ctx) override {
    const auto in = ctx.inbox();
    for (std::size_t i = 0; i < in.size(); ++i) {
      ++received_;
      if (i > 0 && !(key(in[i - 1]) < key(in[i]))) ordered_ = false;
    }
    if (received_ >= 12 * ctx.degree()) {  // 4 per neighbor per send round
      ctx.set_output(ordered_ ? received_ : -1);
      ctx.terminate();
    }
  }

 private:
  static std::tuple<NodeId, Value, int, Value> key(const Message& m) {
    return {m.from, m.words.at(0), m.channel, m.words.at(1)};
  }
  Value seq_ = 0;
  Value received_ = 0;
  bool ordered_ = true;
};

TEST(EngineDeterminism, ChannelRepairOrderIsCanonicalAtEveryThreadCount) {
  Graph g = test_graph();
  auto factory = [](NodeId) {
    return std::make_unique<ChannelRepairProgram>();
  };
  for (CongestPolicy policy : {CongestPolicy::kCount, CongestPolicy::kDefer}) {
    EngineOptions opt = threads_options(1);
    opt.congest_policy = policy;
    opt.congest_word_limit = 4;  // 11 words per link per send round
    SCOPED_TRACE(policy == CongestPolicy::kDefer ? "defer" : "count");
    const RecordedRun serial =
        record_run(g, {}, factory, opt, TraceDetail::kPayloads);
    ASSERT_TRUE(serial.result.completed);
    if (policy == CongestPolicy::kDefer) {
      ASSERT_GT(serial.result.deferred_messages, 0);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(serial.result.outputs[v], 12 * g.degree(v)) << "node " << v;
    }
    for (int threads : {2, 4, 8}) {
      EngineOptions topt = opt;
      topt.num_threads = threads;
      const RecordedRun parallel =
          record_run(g, {}, factory, topt, TraceDetail::kPayloads);
      EXPECT_EQ(serial.transcript, parallel.transcript)
          << "num_threads = " << threads;
      expect_identical(serial.result, parallel.result);
    }
  }
}

// Compile knobs change which delivery path charges the suppression split
// (the parallel pass keys the resend cache to receiver-shard ownership),
// so sweep them together with streamed transcripts: the on-disk bytes of
// a compiled run must be identical for every thread count, and nonzero
// suppression must merge to the same counters.
TEST(EngineDeterminism, CompiledStreamedTranscriptIsThreadCountInvariant) {
  // flood_min re-broadcasts its stabilized minimum every round, so the
  // resend cache must suppress most of the traffic.
  Rng rng(31);
  Graph g = make_random_connected(48, 40, rng);
  randomize_ids(g, rng);
  EngineOptions opt = threads_options(1);
  opt.compile.cache_resends = true;
  opt.compile.decode_defaults = true;
  const std::string serial_path = "/tmp/dgap_det_serial.dgaptr";
  const StreamedRun serial =
      record_run_to_file(serial_path, g, {}, flood_min_algorithm(), opt,
                         TraceDetail::kPayloads, "det_compiled");
  ASSERT_TRUE(serial.result.completed);
  EXPECT_GT(serial.result.messages_suppressed, 0);
  const std::vector<std::uint8_t> serial_bytes =
      read_transcript_file(serial_path);
  std::remove(serial_path.c_str());
  ASSERT_FALSE(serial_bytes.empty());
  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    const std::string path = "/tmp/dgap_det_threaded.dgaptr";
    const StreamedRun parallel =
        record_run_to_file(path, g, {}, flood_min_algorithm(), topt,
                           TraceDetail::kPayloads, "det_compiled");
    const std::vector<std::uint8_t> bytes = read_transcript_file(path);
    std::remove(path.c_str());
    EXPECT_EQ(serial_bytes, bytes) << "num_threads = " << threads;
    expect_identical(serial.result, parallel.result);
  }
}

// The same sweep at kRounds granularity: the cheap spine must be as
// thread-invariant as the full payload capture.
TEST(EngineDeterminism, CompiledRoundsTranscriptIsThreadCountInvariant) {
  Rng rng(32);
  Graph g = make_random_connected(64, 48, rng);
  randomize_ids(g, rng);
  EngineOptions opt = threads_options(1);
  opt.compile.cache_resends = true;
  const RecordedRun serial =
      record_run(g, {}, flood_min_algorithm(), opt, TraceDetail::kRounds);
  ASSERT_TRUE(serial.result.completed);
  EXPECT_GT(serial.result.messages_suppressed, 0);
  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    const RecordedRun parallel =
        record_run(g, {}, flood_min_algorithm(), topt, TraceDetail::kRounds);
    EXPECT_EQ(serial.transcript, parallel.transcript)
        << "num_threads = " << threads;
    expect_identical(serial.result, parallel.result);
  }
}

// The per-round views the test helpers derive from termination_round
// (run_record.hpp) must equal the transcript's own per-round view of the
// same run — also for a run cut short by max_rounds, where some nodes
// never terminate.
TEST(EngineDeterminism, TerminationRoundsMatchTranscriptSpine) {
  Graph g = test_graph();
  for (int max_rounds : {1'000'000, 2}) {
    SCOPED_TRACE("max_rounds = " + std::to_string(max_rounds));
    EngineOptions opt = threads_options(1);
    opt.max_rounds = max_rounds;
    const RecordedRun run = record_run(g, {}, luby_mis_algorithm(42), opt,
                                       TraceDetail::kRounds);
    EXPECT_EQ(run.result.completed, max_rounds > 2);
    const Transcript t = decode_transcript(run.transcript);
    const std::vector<int> active = active_per_round(run.result);
    const auto terminations = terminations_per_round(run.result);
    ASSERT_EQ(t.rounds.size(), active.size());
    ASSERT_EQ(t.rounds.size(), terminations.size());
    for (std::size_t i = 0; i < t.rounds.size(); ++i) {
      EXPECT_EQ(t.rounds[i].active, active[i]);
      std::vector<NodeId> terms;
      for (const TranscriptTermination& term : t.rounds[i].terminations) {
        terms.push_back(term.node);
      }
      EXPECT_EQ(terms, terminations[i]);
    }
  }
}

}  // namespace
}  // namespace dgap
