// The transcript subsystem (sim/transcript.hpp):
//
//  1. Codec round-trip: encode(decode(x)) == x and decode(encode(t)) == t,
//     fuzzed over random event streams at every detail level, including
//     extreme payload values (kUndefined = INT64_MIN).
//  2. Recording: a TranscriptWriter's bytes decode to exactly the run the
//     engine executed, and re-encoding reproduces the bytes.
//  3. Robustness: truncated or corrupted files fail with DGAP_REQUIRE
//     (std::invalid_argument) — never UB (this test runs under
//     asan/ubsan in CI) — and so do well-sealed files carrying a message
//     flag or congest policy outside the format's value set.
//  4. Verification: an identical re-run passes run_verified; a perturbed
//     engine (different algorithm seed) fails with DGAP_ASSERT naming the
//     exact first divergent round.
//  5. Replay: ReplayEngine reconstructs active sets, outputs, and
//     termination rounds bit-identically to the live RunResult.
//  6. Diff: first divergent (round, field) between two recorded runs.
//  7. Golden regression: the committed transcripts under tests/golden/
//     verify against a live re-run of their canonical cases
//     (DGAP_GOLDEN_DIR; the same files gate CI via `dgap_trace verify`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "random/luby.hpp"
#include "sim/transcript.hpp"
#include "run_record.hpp"

namespace dgap {
namespace {

// ---------------------------------------------------------------------------
// Fuzzed codec round-trip
// ---------------------------------------------------------------------------

Value random_value(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0: return kUndefined;  // INT64_MIN — the zigzag worst case
    case 1: return std::numeric_limits<Value>::max();
    case 2: return -1;
    default: return rng.uniform(-1000, 1000);
  }
}

Transcript random_transcript(Rng& rng) {
  Transcript t;
  t.detail = static_cast<TraceDetail>(rng.next_below(3));
  t.label = "fuzz_" + std::to_string(rng.next_below(1000));
  if (rng.flip(0.5)) {
    GraphSpec spec;
    spec.family = static_cast<GraphSpec::Family>(
        rng.next_below(static_cast<std::uint64_t>(GraphSpec::Family::kGnm) + 1));
    spec.a = rng.uniform(0, 1 << 20);
    spec.b = rng.uniform(0, 100);
    spec.p = rng.uniform01();
    spec.seed = rng.next();
    spec.ids = static_cast<GraphSpec::IdPolicy>(rng.next_below(3));
    t.spec = spec;
  }
  t.n = static_cast<NodeId>(rng.uniform(1, 40));
  t.max_rounds = static_cast<int>(rng.uniform(0, 1'000'000));
  t.congest_word_limit = static_cast<int>(rng.uniform(0, 8));
  t.congest_policy = static_cast<CongestPolicy>(rng.next_below(2));
  const int rounds = static_cast<int>(rng.next_below(8));
  for (int r = 1; r <= rounds; ++r) {
    TranscriptRound round;
    round.round = r;
    round.active = static_cast<NodeId>(rng.uniform(0, t.n));
    if (t.detail >= TraceDetail::kMessages) {
      const int messages = static_cast<int>(rng.next_below(10));
      for (int i = 0; i < messages; ++i) {
        TranscriptMessage m;
        m.from = static_cast<NodeId>(rng.next_below(
            static_cast<std::uint64_t>(t.n)));
        m.to = static_cast<NodeId>(rng.next_below(
            static_cast<std::uint64_t>(t.n)));
        m.channel = static_cast<int>(rng.uniform(-3, 3));
        m.len = static_cast<std::uint32_t>(rng.next_below(6));
        m.suppressed = rng.flip(0.1);
        if (t.detail == TraceDetail::kPayloads) {
          for (std::uint32_t w = 0; w < m.len; ++w) {
            m.words.push_back(random_value(rng));
          }
        }
        round.messages.push_back(std::move(m));
      }
    }
    const int terms = static_cast<int>(rng.next_below(4));
    for (int i = 0; i < terms; ++i) {
      TranscriptTermination term;
      term.node = static_cast<NodeId>(rng.next_below(
          static_cast<std::uint64_t>(t.n)));
      term.output = random_value(rng);
      const int edges = static_cast<int>(rng.next_below(3));
      for (int e = 0; e < edges; ++e) {
        term.edge_outputs.emplace_back(
            static_cast<NodeId>(rng.next_below(
                static_cast<std::uint64_t>(t.n))),
            random_value(rng));
      }
      round.terminations.push_back(std::move(term));
    }
    t.rounds.push_back(std::move(round));
  }
  t.summary.completed = rng.flip(0.5);
  t.summary.rounds = rounds;
  t.summary.total_messages = rng.uniform(0, 1 << 20);
  t.summary.total_words = rng.uniform(0, 1 << 20);
  return t;
}

TEST(TranscriptCodec, FuzzedRoundTrip) {
  Rng rng(7001);
  for (int iter = 0; iter < 200; ++iter) {
    const Transcript t = random_transcript(rng);
    const std::vector<std::uint8_t> bytes = encode_transcript(t);
    const Transcript back = decode_transcript(bytes);
    ASSERT_EQ(t, back) << "iteration " << iter;
    // Encoding the decoded form reproduces the bytes exactly.
    ASSERT_EQ(bytes, encode_transcript(back)) << "iteration " << iter;
  }
}

TEST(TranscriptCodec, EveryTruncationFailsCleanly) {
  Rng rng(7002);
  const Transcript t = random_transcript(rng);
  const std::vector<std::uint8_t> bytes = encode_transcript(t);
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_transcript(prefix), std::invalid_argument)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(TranscriptCodec, EveryByteFlipFailsCleanly) {
  Rng rng(7003);
  Transcript t;
  while (t.rounds.empty()) t = random_transcript(rng);
  const std::vector<std::uint8_t> bytes = encode_transcript(t);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[i] ^= flip;
      try {
        const Transcript back = decode_transcript(corrupt);
        // A flip that still decodes must not silently pass itself off as
        // the original (it cannot: checksums cover every byte).
        ADD_FAILURE() << "corrupt byte " << i << " (^" << int(flip)
                      << ") decoded without error";
        (void)back;
      } catch (const std::invalid_argument&) {
        // expected
      }
    }
  }
}

/// FNV-1a, the checksum of the transcript format's round blocks and file.
std::uint64_t fnv1a(const std::uint8_t* p, std::size_t count) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void put_fixed64_at(std::vector<std::uint8_t>& bytes, std::size_t at,
                    std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// A one-message transcript whose header field or message flags byte is
// overwritten and both checksums recomputed, so only the value check can
// reject it: bit 0 of the flags byte is reserved and the policy must name
// kCount or kDefer.
TEST(TranscriptCodec, OutOfRangeFlagsAndPolicyFailCleanly) {
  Transcript t;
  t.detail = TraceDetail::kMessages;
  t.label = "x";
  t.n = 2;
  t.max_rounds = 1;
  t.rounds.push_back({1, 2, {{0, 1, 0, 0, false, {}}}, {}});
  t.summary.rounds = 1;
  const std::vector<std::uint8_t> bytes = encode_transcript(t);
  // Layout: header, then the round block [kTagRound, round 1, active 2,
  // kTagMessage, from 0, to 1, channel 0, flags, len 0], then kTagRoundEnd
  // and its 8-byte checksum, then the 13-byte trailer (tag, completed,
  // rounds, messages, words, 8-byte file checksum).
  const std::size_t round_start = bytes.size() - 13 - 9 - 9;
  const std::size_t policy_at = round_start - 1;
  const std::size_t flags_at = round_start + 7;
  ASSERT_EQ(bytes[round_start], 1);  // kTagRound
  ASSERT_EQ(bytes[policy_at], 0);    // kCount
  ASSERT_EQ(bytes[flags_at], 0);
  const auto patched = [&](std::size_t at, std::uint8_t value) {
    std::vector<std::uint8_t> out = bytes;
    out[at] = value;
    put_fixed64_at(out, round_start + 10,
                   fnv1a(out.data() + round_start, 9));
    put_fixed64_at(out, out.size() - 8, fnv1a(out.data(), out.size() - 8));
    return out;
  };
  EXPECT_EQ(decode_transcript(patched(flags_at, 0)), t);
  EXPECT_TRUE(decode_transcript(patched(flags_at, 2)).rounds[0]
                  .messages[0].suppressed);
  for (const std::uint8_t flags : {1, 3}) {
    EXPECT_THROW(decode_transcript(patched(flags_at, flags)),
                 std::invalid_argument)
        << "flags " << int(flags);
  }
  EXPECT_EQ(decode_transcript(patched(policy_at, 1)).congest_policy,
            CongestPolicy::kDefer);
  for (const std::uint8_t policy : {2, 3}) {
    EXPECT_THROW(decode_transcript(patched(policy_at, policy)),
                 std::invalid_argument)
        << "policy " << int(policy);
  }
}

TEST(TranscriptCodec, GarbageInputFailsCleanly) {
  EXPECT_THROW(decode_transcript({}), std::invalid_argument);
  Rng rng(7004);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::uint8_t> garbage(rng.next_below(200));
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    EXPECT_THROW(decode_transcript(garbage), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Recording real runs
// ---------------------------------------------------------------------------

Graph fixture_graph() {
  Rng rng(505);
  Graph g = make_gnp(64, 6.0 / 64, rng);
  randomize_ids(g, rng);
  return g;
}

TEST(TranscriptRecord, DecodeMatchesRunAndReencodes) {
  const Graph g = fixture_graph();
  const RecordedRun run =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads,
                 "luby_fixture");
  const Transcript t = decode_transcript(run.transcript);

  EXPECT_EQ(t.label, "luby_fixture");
  EXPECT_FALSE(t.spec.has_value());
  EXPECT_EQ(t.n, g.num_nodes());
  EXPECT_EQ(t.summary.completed, run.result.completed);
  EXPECT_EQ(t.summary.rounds, run.result.rounds);
  EXPECT_EQ(t.summary.total_messages, run.result.total_messages);
  EXPECT_EQ(t.summary.total_words, run.result.total_words);
  ASSERT_EQ(static_cast<int>(t.rounds.size()), run.result.rounds);

  // The per-round view matches the one termination_round implies. The
  // trailer totals are the engine's sender-side accounting; the round
  // blocks hold *deliveries*, which exclude sends charged to nodes that
  // had already terminated (see deliver_round_messages), so the walked
  // counts are a lower bound.
  const std::vector<int> active = active_per_round(run.result);
  const auto terminations = terminations_per_round(run.result);
  std::int64_t messages = 0, words = 0;
  for (std::size_t i = 0; i < t.rounds.size(); ++i) {
    EXPECT_EQ(t.rounds[i].active, active[i]);
    std::vector<NodeId> terms;
    for (const TranscriptTermination& term : t.rounds[i].terminations) {
      terms.push_back(term.node);
    }
    EXPECT_EQ(terms, terminations[i]);
    for (const TranscriptMessage& m : t.rounds[i].messages) {
      EXPECT_EQ(m.words.size(), m.len);
      messages += 1;
      words += m.len;
    }
  }
  EXPECT_LE(messages, run.result.total_messages);
  EXPECT_LE(words, run.result.total_words);
  EXPECT_GT(messages, 0);

  // encode_transcript is byte-identical to the writer.
  EXPECT_EQ(encode_transcript(t), run.transcript);
}

TEST(TranscriptRecord, DetailLevelsNest) {
  const Graph g = fixture_graph();
  const RecordedRun payloads = record_run(g, {}, luby_mis_algorithm(11), {},
                                          TraceDetail::kPayloads, "l");
  const RecordedRun messages = record_run(g, {}, luby_mis_algorithm(11), {},
                                          TraceDetail::kMessages, "l");
  const RecordedRun rounds = record_run(g, {}, luby_mis_algorithm(11), {},
                                        TraceDetail::kRounds, "l");
  const Transcript tp = decode_transcript(payloads.transcript);
  const Transcript tm = decode_transcript(messages.transcript);
  const Transcript tr = decode_transcript(rounds.transcript);
  ASSERT_EQ(tp.rounds.size(), tm.rounds.size());
  ASSERT_EQ(tp.rounds.size(), tr.rounds.size());
  EXPECT_LT(rounds.transcript.size(), messages.transcript.size());
  EXPECT_LT(messages.transcript.size(), payloads.transcript.size());
  for (std::size_t i = 0; i < tp.rounds.size(); ++i) {
    EXPECT_EQ(tp.rounds[i].active, tr.rounds[i].active);
    EXPECT_TRUE(tr.rounds[i].messages.empty());
    ASSERT_EQ(tp.rounds[i].messages.size(), tm.rounds[i].messages.size());
    for (std::size_t j = 0; j < tp.rounds[i].messages.size(); ++j) {
      const TranscriptMessage& p = tp.rounds[i].messages[j];
      const TranscriptMessage& m = tm.rounds[i].messages[j];
      EXPECT_EQ(p.from, m.from);
      EXPECT_EQ(p.to, m.to);
      EXPECT_EQ(p.len, m.len);
      EXPECT_TRUE(m.words.empty());
    }
    EXPECT_EQ(tp.rounds[i].terminations, tr.rounds[i].terminations);
  }
}

// ---------------------------------------------------------------------------
// Streaming (write-through) recording
// ---------------------------------------------------------------------------

TEST(TranscriptStream, FileIsByteIdenticalToInMemoryRecording) {
  const Graph g = fixture_graph();
  const std::string path = ::testing::TempDir() + "dgap_stream_test.dgaptr";
  for (const TraceDetail detail :
       {TraceDetail::kRounds, TraceDetail::kMessages, TraceDetail::kPayloads}) {
    const RecordedRun buffered =
        record_run(g, {}, luby_mis_algorithm(11), {}, detail, "stream");
    const StreamedRun streamed = record_run_to_file(
        path, g, {}, luby_mis_algorithm(11), {}, detail, "stream");
    EXPECT_EQ(streamed.result.rounds, buffered.result.rounds);
    EXPECT_EQ(streamed.result.outputs, buffered.result.outputs);
    EXPECT_EQ(streamed.transcript_bytes, buffered.transcript.size());
    EXPECT_EQ(read_transcript_file(path), buffered.transcript)
        << "detail " << static_cast<int>(detail);
    // The decoder accepts the flushed file (checksums carried across
    // flushes land on the same values).
    EXPECT_NO_THROW(decode_transcript(read_transcript_file(path)));
  }
  std::remove(path.c_str());
}

TEST(TranscriptStream, BufferStaysBoundedByOneRoundBlock) {
  // Drive the sink directly with 64 equal-size rounds: the high-water mark
  // must be one round block (~1/64 of the file), the witness that the
  // writer flushes per round instead of dumping once at the end.
  const std::string path = ::testing::TempDir() + "dgap_stream_bound.dgaptr";
  constexpr NodeId kN = 128;
  constexpr int kRounds = 64;
  TranscriptWriter writer(TraceDetail::kPayloads, "bound");
  writer.stream_to(path);
  EngineOptions options;
  writer.on_run_begin(kN, options);
  for (int r = 1; r <= kRounds; ++r) {
    writer.on_round_begin(r, kN);
    for (NodeId v = 0; v + 1 < kN; ++v) {
      const Value words[4] = {1, 2, 3, v};
      writer.on_message({r, v, static_cast<NodeId>(v + 1), 0,
                         WordSpan(words, 4), false});
    }
  }
  RunResult result;
  result.completed = false;
  result.rounds = kRounds;
  writer.on_run_end(result);
  EXPECT_GT(writer.buffer_high_water(), 0u);
  EXPECT_LE(writer.buffer_high_water(),
            writer.streamed_bytes() / (kRounds / 2));
  EXPECT_EQ(read_transcript_file(path).size(), writer.streamed_bytes());
  EXPECT_NO_THROW(decode_transcript(read_transcript_file(path)));
  std::remove(path.c_str());
}

TEST(TranscriptStream, MisuseFailsCleanly) {
  const Graph g = fixture_graph();
  const std::string path = ::testing::TempDir() + "dgap_stream_misuse.dgaptr";
  TranscriptWriter writer(TraceDetail::kRounds, "misuse");
  writer.stream_to(path);
  EXPECT_THROW(writer.stream_to(path), std::invalid_argument);
  EngineOptions options;
  options.trace_sink = &writer;
  Engine engine(g, {}, luby_mis_algorithm(11), options);
  (void)engine.run();
  // The bytes live on disk, not in the writer.
  EXPECT_THROW(writer.bytes(), std::invalid_argument);
  EXPECT_THROW(writer.take_bytes(), std::invalid_argument);
  // And stream_to after the run began is rejected too.
  TranscriptWriter late(TraceDetail::kRounds, "late");
  EngineOptions late_options;
  late_options.trace_sink = &late;
  Engine late_engine(g, {}, luby_mis_algorithm(11), late_options);
  (void)late_engine.run();
  EXPECT_THROW(late.stream_to(path), std::invalid_argument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

TEST(TranscriptVerify, IdenticalRerunPasses) {
  const Graph g = fixture_graph();
  const RecordedRun run =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const Transcript golden = decode_transcript(run.transcript);
  const RunResult result =
      run_verified(g, {}, luby_mis_algorithm(11), {}, golden);
  EXPECT_EQ(result.outputs, run.result.outputs);
  EXPECT_EQ(result.rounds, run.result.rounds);
}

TEST(TranscriptVerify, PerturbedEngineNamesFirstDivergentRound) {
  const Graph g = fixture_graph();
  const RecordedRun run =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const Transcript golden = decode_transcript(run.transcript);

  // A different Luby seed produces different round-1 coin payloads, so
  // verification must fail at round 1 exactly, via DGAP_ASSERT.
  try {
    run_verified(g, {}, luby_mis_algorithm(12), {}, golden);
    FAIL() << "perturbed run verified against the golden transcript";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transcript divergence at round 1"),
              std::string::npos)
        << "divergence message does not name round 1: " << what;
  }
}

TEST(TranscriptVerify, InstanceMismatchIsRequireNotAssert) {
  const Graph g = fixture_graph();
  const RecordedRun run =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const Transcript golden = decode_transcript(run.transcript);
  Rng rng(99);
  const Graph other = make_gnp(32, 0.2, rng);
  EXPECT_THROW(run_verified(other, {}, luby_mis_algorithm(11), {}, golden),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

TEST(TranscriptReplay, ReconstructsRunStateRoundByRound) {
  const Graph g = fixture_graph();
  const RecordedRun run =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const Transcript t = decode_transcript(run.transcript);
  const std::vector<int> active = active_per_round(run.result);

  ReplayEngine replay(t);
  EXPECT_EQ(replay.n(), g.num_nodes());
  EXPECT_EQ(replay.round(), 0);
  EXPECT_EQ(replay.active_count(), g.num_nodes());

  int steps = 0;
  while (replay.step()) {
    ++steps;
    EXPECT_EQ(replay.round(), steps);
    // Start-of-round active count matches the live run's.
    EXPECT_EQ(replay.active_count(),
              active[static_cast<std::size_t>(steps - 1)]);
    EXPECT_EQ(static_cast<NodeId>(replay.active_nodes().size()),
              replay.active_count());
    // Inboxes partition the round's messages.
    std::size_t inbox_total = 0;
    for (NodeId v = 0; v < replay.n(); ++v) {
      inbox_total += replay.inbox(v).size();
    }
    EXPECT_EQ(inbox_total, replay.messages().size());
  }
  EXPECT_EQ(steps, run.result.rounds);
  EXPECT_TRUE(replay.done());

  // After the full walk the accumulated outputs and termination rounds are
  // the RunResult's, bit-identically.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(replay.output(v), run.result.outputs[static_cast<std::size_t>(v)]);
    EXPECT_EQ(replay.termination_round(v),
              run.result.termination_round[static_cast<std::size_t>(v)]);
  }

  replay.reset();
  EXPECT_EQ(replay.round(), 0);
  EXPECT_EQ(replay.active_count(), g.num_nodes());
  EXPECT_TRUE(replay.step());
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

TEST(TranscriptDiff, EqualRunsAreEqual) {
  const Graph g = fixture_graph();
  const RecordedRun a =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const RecordedRun b =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(diff_transcripts(decode_transcript(a.transcript),
                             decode_transcript(b.transcript)),
            std::nullopt);
}

TEST(TranscriptDiff, SeedChangeReportsFirstDivergentRound) {
  const Graph g = fixture_graph();
  const RecordedRun a =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const RecordedRun b =
      record_run(g, {}, luby_mis_algorithm(12), {}, TraceDetail::kPayloads);
  const auto d = diff_transcripts(decode_transcript(a.transcript),
                                  decode_transcript(b.transcript));
  ASSERT_TRUE(d.has_value());
  // Luby coins differ from the very first exchange.
  EXPECT_EQ(d->round, 1);
  EXPECT_FALSE(d->field.empty());
}

// ---------------------------------------------------------------------------
// Golden regression (the committed corpus; same files gate CI)
// ---------------------------------------------------------------------------

TEST(TranscriptGolden, CommittedTranscriptsVerifyAgainstLiveReruns) {
  for (const CanonicalCase& c : canonical_cases()) {
    const std::string path =
        std::string(DGAP_GOLDEN_DIR) + "/" + golden_file_name(c);
    const Transcript golden = decode_transcript(read_transcript_file(path));
    EXPECT_EQ(golden.label, c.name);
    ASSERT_TRUE(golden.spec.has_value()) << c.name;
    EXPECT_EQ(*golden.spec, c.spec) << c.name;
    EXPECT_NO_THROW(verify_canonical_case(c, golden)) << c.name;
    // Re-recording reproduces the committed bytes exactly.
    const RecordedRun rerun = record_canonical_case(c);
    EXPECT_EQ(rerun.transcript, read_transcript_file(path)) << c.name;
  }
}

TEST(TranscriptGolden, CorpusSpansTheThreeEngineRegimes) {
  ASSERT_GE(canonical_cases().size(), 3u);
  bool has_defer = false, has_cut = false, has_predictions = false;
  for (const CanonicalCase& c : canonical_cases()) {
    const std::string path =
        std::string(DGAP_GOLDEN_DIR) + "/" + golden_file_name(c);
    const Transcript golden = decode_transcript(read_transcript_file(path));
    if (golden.congest_policy == CongestPolicy::kDefer) has_defer = true;
    if (!golden.summary.completed) has_cut = true;
    if (c.provider != nullptr) has_predictions = true;
  }
  EXPECT_TRUE(has_defer);
  EXPECT_TRUE(has_cut);
  EXPECT_TRUE(has_predictions);
}

}  // namespace
}  // namespace dgap
