// Binary round transcripts: record a run's full event stream, then verify,
// replay, or diff it.
//
// The engine is deterministic, so the event stream a TraceSink observes
// (sim/trace.hpp) is a complete replay artifact: everything a RunResult
// contains — and the whole per-round communication pattern besides — can
// be reconstructed from it. A transcript is that stream in a versioned,
// self-describing binary form:
//
//   header   magic "DGTR", format version, detail level, a free-text
//            label, an optional GraphSpec (so the instance can be rebuilt
//            from the file alone), n, and the semantically meaningful
//            engine options (max_rounds, congest_word_limit,
//            congest_policy). Execution knobs — num_threads, record
//            flags, sinks — are deliberately excluded: a transcript
//            describes the logical run, so serial, sharded and
//            batch-scheduled executions of the same job produce
//            byte-identical files (the determinism witness the batch and
//            engine tests pin). Wall-clock is likewise excluded.
//   rounds   one block per round: round number, active count, delivered
//            messages (at the recorded detail level), terminations with
//            outputs, and an FNV-1a checksum of the block's bytes.
//   trailer  completed flag, round count, message/word totals (the
//            engine's sender-side accounting, which also charges sends
//            dropped because the receiver had already terminated — so the
//            totals can exceed the sum of the delivered rounds), and an
//            FNV-1a checksum over the whole file — any truncation or
//            byte flip fails decoding with DGAP_REQUIRE, never UB.
//
// Integers are varint-coded (zigzag for signed), checksums fixed 64-bit
// little-endian. Consumers:
//
//   * TranscriptWriter — a TraceSink producing the bytes;
//   * decode_transcript / encode_transcript — structured form and exact
//     round-trip (fuzzed in tests/transcript_test.cpp);
//   * VerifySink / run_verified — run live against a recorded transcript
//     and fail (DGAP_ASSERT) at the first divergent round: the
//     golden-transcript regression gate (`dgap_trace verify`, CI);
//   * ReplayEngine — single-step rounds out of a transcript without
//     re-executing programs, exposing active sets / inboxes / outputs;
//   * diff_transcripts — first divergent (round, field) of two runs.
//
// See docs/MODEL.md, "Transcripts & replay".
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/spec.hpp"
#include "sim/engine.hpp"

namespace dgap {

inline constexpr std::uint32_t kTranscriptVersion = 1;

/// One delivered message. `words` is populated only at TraceDetail::
/// kPayloads; at kMessages only the width survives.
struct TranscriptMessage {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  int channel = 0;
  std::uint32_t len = 0;
  /// Synthesized by the message-reduction pass (sim/compile.hpp). Encoded
  /// as bit 1 of the per-message flags byte (bit 0 is reserved and always
  /// clear), so a suppression-free transcript is byte-identical to a
  /// version-1 file written before the pass existed — no format version
  /// bump.
  bool suppressed = false;
  std::vector<Value> words;

  friend bool operator==(const TranscriptMessage&,
                         const TranscriptMessage&) = default;
};

struct TranscriptTermination {
  NodeId node = kNoNode;
  Value output = kUndefined;
  std::vector<std::pair<NodeId, Value>> edge_outputs;  // sorted by key

  friend bool operator==(const TranscriptTermination&,
                         const TranscriptTermination&) = default;
};

struct TranscriptRound {
  int round = 0;
  NodeId active = 0;  // active nodes at the start of the round
  std::vector<TranscriptMessage> messages;        // canonical inbox order
  std::vector<TranscriptTermination> terminations;  // ascending node order

  friend bool operator==(const TranscriptRound&,
                         const TranscriptRound&) = default;
};

struct TranscriptSummary {
  bool completed = false;
  int rounds = 0;
  std::int64_t total_messages = 0;
  std::int64_t total_words = 0;

  friend bool operator==(const TranscriptSummary&,
                         const TranscriptSummary&) = default;
};

/// A fully decoded transcript. Equality is structural — two byte buffers
/// decode equal iff the logical runs they record are identical.
struct Transcript {
  TraceDetail detail = TraceDetail::kPayloads;
  std::string label;
  std::optional<GraphSpec> spec;  // set when the instance is spec-built
  NodeId n = 0;
  int max_rounds = 0;
  int congest_word_limit = 0;
  CongestPolicy congest_policy = CongestPolicy::kCount;
  std::vector<TranscriptRound> rounds;
  TranscriptSummary summary;

  friend bool operator==(const Transcript&, const Transcript&) = default;
};

/// TraceSink that serializes the run into the binary format. Install via
/// EngineOptions::trace_sink; after run() returns, bytes() holds the
/// complete file image. A writer records exactly one run.
///
/// Large runs: stream_to(path) switches the writer to write-through mode —
/// the buffer is flushed to disk after the header, after every closed
/// round, and mid-round once it exceeds ~1 MiB, so recording kPayloads at
/// n = 10^6 needs a small constant buffer, not the whole file (Luby's
/// all-broadcast round 1 alone can dominate a file; the mid-round flush
/// bounds even that). The flushed file is byte-identical to the in-memory
/// bytes() image by construction: the append sequence is unchanged and
/// both checksums (per-round FNV over the block, whole-file FNV) are
/// carried incrementally across flushes, covering exactly the same bytes.
/// The buffer is reused between flushes (clear() keeps capacity);
/// buffer_high_water() reports the bound actually hit.
class TranscriptWriter final : public TraceSink {
 public:
  explicit TranscriptWriter(TraceDetail detail = TraceDetail::kPayloads,
                            std::string label = {},
                            std::optional<GraphSpec> spec = std::nullopt);
  ~TranscriptWriter() override;
  TranscriptWriter(const TranscriptWriter&) = delete;
  TranscriptWriter& operator=(const TranscriptWriter&) = delete;

  /// Switch to write-through mode before the run begins. Opens `path` for
  /// writing (DGAP_REQUIRE on failure); on_run_end finalizes and closes
  /// the file. bytes()/take_bytes() are unavailable in this mode — read
  /// the file back instead.
  void stream_to(const std::string& path);

  TraceDetail detail() const override { return detail_; }
  void on_run_begin(NodeId n, const EngineOptions& options) override;
  void on_round_begin(int round, NodeId active) override;
  void on_message(const TraceMessage& m) override;
  void on_termination(int round, NodeId node, Value output,
                      std::span<const std::pair<NodeId, Value>>
                          edge_outputs) override;
  void on_run_end(const RunResult& result) override;

  /// The serialized transcript; complete once on_run_end has fired.
  /// In-memory mode only (streaming writers leave the bytes on disk).
  const std::vector<std::uint8_t>& bytes() const;
  std::vector<std::uint8_t> take_bytes();

  /// Write-through stats: bytes flushed to disk so far, and the largest
  /// buffer size seen at a flush point — the memory bound the streaming
  /// mode guarantees (one round block, not the file). Zero in-memory.
  std::uint64_t streamed_bytes() const { return flushed_bytes_; }
  std::size_t buffer_high_water() const { return high_water_; }

 private:
  void close_round();
  void flush_buffer();
  void maybe_partial_flush();

  TraceDetail detail_;
  std::string label_;
  std::optional<GraphSpec> spec_;
  std::vector<std::uint8_t> out_;
  std::size_t round_start_ = 0;  // offset of the open round block
  bool begun_ = false;
  bool in_round_ = false;
  bool finished_ = false;

  // Write-through mode (stream_to). file_hash_ is the running FNV-1a over
  // every flushed byte, continued over the trailer so the final whole-file
  // checksum equals the in-memory one; round_hash_ does the same for the
  // open round block across mid-round flushes. 1469598103934665603 is the
  // FNV-1a offset basis.
  std::string path_;  // empty = in-memory mode
  std::FILE* file_ = nullptr;
  std::uint64_t file_hash_ = 1469598103934665603ULL;
  std::uint64_t round_hash_ = 1469598103934665603ULL;
  std::uint64_t flushed_bytes_ = 0;
  std::size_t high_water_ = 0;
};

/// Parse a serialized transcript. Every structural defect — bad magic,
/// unknown version or tag, truncation, a checksum mismatch, trailing
/// bytes — throws via DGAP_REQUIRE; decoding never exhibits UB on
/// corrupted input (fuzzed under asan/ubsan in CI).
Transcript decode_transcript(std::span<const std::uint8_t> bytes);

/// Serialize a structured transcript — the exact inverse of
/// decode_transcript, and byte-identical to what a TranscriptWriter
/// produces for the run it records.
std::vector<std::uint8_t> encode_transcript(const Transcript& t);

/// File I/O. Both throw (DGAP_REQUIRE) on I/O errors.
void write_transcript_file(const std::string& path,
                           std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> read_transcript_file(const std::string& path);

/// TraceSink that checks a live run against a recorded transcript and
/// fails — DGAP_ASSERT, naming the round and the divergent quantity — at
/// the first event that does not match. Instance/option mismatches at
/// run begin are reported as DGAP_REQUIRE (caller error, not regression).
class VerifySink final : public TraceSink {
 public:
  /// `golden` is borrowed and must outlive the run.
  explicit VerifySink(const Transcript& golden);

  TraceDetail detail() const override { return golden_->detail; }
  void on_run_begin(NodeId n, const EngineOptions& options) override;
  void on_round_begin(int round, NodeId active) override;
  void on_message(const TraceMessage& m) override;
  void on_termination(int round, NodeId node, Value output,
                      std::span<const std::pair<NodeId, Value>>
                          edge_outputs) override;
  void on_run_end(const RunResult& result) override;

 private:
  const TranscriptRound& cur() const;
  void finish_round();

  const Transcript* golden_;
  std::size_t round_idx_ = 0;  // rounds fully verified
  std::size_t msg_idx_ = 0;
  std::size_t term_idx_ = 0;
  bool in_round_ = false;
};

/// Convenience: run (g, predictions, factory, options) live with a
/// VerifySink installed. Returns the (verified) result; throws at the
/// first divergence. `options` must not already carry a trace sink.
RunResult run_verified(const Graph& g, const Predictions& predictions,
                       ProgramFactory factory, EngineOptions options,
                       const Transcript& golden);

/// A recorded run: the result plus its serialized transcript.
struct RecordedRun {
  RunResult result;
  std::vector<std::uint8_t> transcript;
};

/// Convenience: run with a TranscriptWriter installed. `options` must not
/// already carry a trace sink.
RecordedRun record_run(const Graph& g, const Predictions& predictions,
                       ProgramFactory factory, EngineOptions options,
                       TraceDetail detail = TraceDetail::kPayloads,
                       std::string label = {},
                       std::optional<GraphSpec> spec = std::nullopt);

/// A run recorded straight to disk: the result plus the streaming stats.
struct StreamedRun {
  RunResult result;
  std::uint64_t transcript_bytes = 0;  // file size on disk
  std::size_t buffer_high_water = 0;   // writer memory bound actually hit
};

/// Convenience: run with a write-through TranscriptWriter streaming to
/// `path`. The file is byte-identical to the buffer record_run would
/// produce for the same job, but peak writer memory is one round block.
StreamedRun record_run_to_file(const std::string& path, const Graph& g,
                               const Predictions& predictions,
                               ProgramFactory factory, EngineOptions options,
                               TraceDetail detail = TraceDetail::kPayloads,
                               std::string label = {},
                               std::optional<GraphSpec> spec = std::nullopt);

/// Round-stepping debugger over a recorded run: walks the transcript
/// without re-executing any program. After each step() the view is one
/// round r: the active set at the start of r, every node's round-r inbox,
/// and the terminations of r. Outputs and termination rounds accumulate
/// as rounds are applied.
class ReplayEngine {
 public:
  /// `t` is borrowed and must outlive the replay.
  explicit ReplayEngine(const Transcript& t);

  NodeId n() const { return t_->n; }
  int total_rounds() const { return static_cast<int>(t_->rounds.size()); }
  /// The round currently in view; 0 before the first step().
  int round() const { return round_; }
  bool done() const { return idx_ >= t_->rounds.size(); }

  /// Advance to the next round; false when the transcript is exhausted.
  bool step();
  /// Back to the pre-run state (round 0).
  void reset();

  /// Active nodes at the start of the current round.
  NodeId active_count() const { return active_count_; }
  bool node_active(NodeId v) const;
  std::vector<NodeId> active_nodes() const;

  /// The current round's deliveries, in canonical order.
  std::span<const TranscriptMessage> messages() const;
  /// The current round's inbox of node v (pointers into the transcript).
  std::vector<const TranscriptMessage*> inbox(NodeId v) const;
  /// Nodes that terminated at the end of the current round.
  std::span<const TranscriptTermination> terminations() const;

  /// Output of v if it has terminated in a round already stepped past
  /// (kUndefined otherwise); its termination round, -1 while active.
  Value output(NodeId v) const;
  int termination_round(NodeId v) const;

 private:
  const Transcript* t_;
  std::size_t idx_ = 0;  // rounds applied via step()
  int round_ = 0;
  NodeId active_count_ = 0;
  std::vector<std::uint8_t> active_;
  std::vector<Value> outputs_;
  std::vector<int> term_round_;
};

/// First divergence between two transcripts: the round it occurs in
/// (0 for header/summary-level differences) and a human-readable field
/// description. Nullopt iff the transcripts are equal.
struct TranscriptDivergence {
  int round = 0;
  std::string field;
};

std::optional<TranscriptDivergence> diff_transcripts(const Transcript& a,
                                                     const Transcript& b);

}  // namespace dgap
