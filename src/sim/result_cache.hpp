// Content-addressed result cache: repeated jobs are hits, not reruns.
//
// The engine is deterministic, so a simulation's RunResult (and its
// transcript) is a pure function of (instance, algorithm, predictions,
// semantic engine options). A job whose algorithm is named by a stable
// string id can therefore be CONTENT-ADDRESSED: its key is an FNV-1a
// digest of those inputs, and a sweep that re-submits an identical job —
// across batches, epochs (sim/epoch.hpp), or repeated bench passes —
// gets the stored result back without running anything. This layers on
// GraphCache (graph/spec.hpp): the spec cache de-duplicates instance
// CONSTRUCTION, the result cache de-duplicates EXECUTION.
//
// Keys never hash a ProgramFactory (std::function is opaque); the
// algorithm id string is the caller's contract that equal ids mean equal
// per-node behavior. Execution knobs (num_threads, worker counts, trace
// sinks) are excluded from digests, exactly like the transcript header —
// a key names the logical run. Whether a transcript was captured, and at
// which detail, IS part of the key, so a hit always carries the artifacts
// the job asked for.
//
// Poisoning guard: every entry stores a checksum of its own payload at
// put() time, and get() re-derives it — a mutated entry fails with
// DGAP_ASSERT instead of silently serving corrupt results
// (tests/epoch_test.cpp pins this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "graph/spec.hpp"
#include "predict/predictions.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dgap {

// ---- FNV-1a digests over the cache key's components -----------------------

std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes,
                          std::uint64_t h = 1469598103934665603ULL);

/// Structural digest: n, id bound, identifiers, adjacency. Two graphs with
/// equal digests are equal up to hash collision; mutated (non-spec-built)
/// graphs get their key component from this.
std::uint64_t graph_digest(const Graph& g);

/// Digest of a spec's fields — cheaper than building + graph_digest, and
/// equal specs name bit-identical graphs by construction.
std::uint64_t spec_digest(const GraphSpec& spec);

std::uint64_t predictions_digest(const Predictions& pred);

/// The predictions slot of a provider-addressed key: instead of hashing a
/// materialized prediction vector, hash the provider's own digest plus
/// the (kind, seed) it will be asked with. Sound because the provider
/// digest contract (predict/provider.hpp) promises equal digests ⇒ equal
/// provide() output for every (graph, kind, seed) — and the graph is
/// already keyed by the instance digest next to this slot.
std::uint64_t provider_slot_digest(const PredictionProvider& provider,
                                   ProblemKind kind, std::uint64_t seed);

/// Options that change a RunResult: max_rounds, congest budget/policy and
/// the compile transforms. num_threads, trace_sink and profile_phases are
/// execution knobs and excluded.
std::uint64_t options_digest(const EngineOptions& options);

/// The content address of one job. `instance_digest` is spec_digest() or
/// graph_digest(); `capture`/`detail` describe the transcript request.
std::uint64_t result_cache_key(std::uint64_t instance_digest,
                               std::string_view algorithm_id,
                               std::uint64_t predictions_digest,
                               std::uint64_t options_digest,
                               bool capture = false,
                               TraceDetail detail = TraceDetail::kPayloads);

// ---- The cache ------------------------------------------------------------

class ResultCache {
 public:
  struct Entry {
    RunResult result;
    /// Serialized transcript iff the cached job captured one.
    std::vector<std::uint8_t> transcript;
  };

  /// The entry for `key`, or null on a miss. Re-derives the entry's
  /// payload checksum and DGAP_ASSERTs it — a poisoned entry throws.
  std::shared_ptr<const Entry> get(std::uint64_t key);

  /// Store a result (first write wins; a duplicate put is a no-op, which
  /// keeps batch fills deterministic regardless of in-batch duplicates).
  void put(std::uint64_t key, RunResult result,
           std::vector<std::uint8_t> transcript = {});

  /// Bound the entry count: 0 (the default) means unbounded; otherwise
  /// the least-recently-USED entries (get() refreshes recency, put() of
  /// a new key counts as a use) are evicted until size() <= capacity.
  /// Shrinks immediately if the cache is already over the new cap.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;
  std::int64_t evictions() const;

  std::size_t size() const;
  std::int64_t hits() const;
  std::int64_t misses() const;
  void clear();

  /// Test hook: flip a byte of the stored entry so the next get() trips
  /// the poisoning guard. Requires the key to be present.
  void poison_for_test(std::uint64_t key);

 private:
  struct Stored {
    std::shared_ptr<Entry> entry;
    std::uint64_t guard = 0;  // payload checksum at put() time
    std::uint64_t stamp = 0;  // recency tick of the last get()/put()
  };
  static std::uint64_t guard_of(const Entry& e);
  void evict_locked();  // enforce capacity_; requires mu_ held

  mutable std::mutex mu_;
  std::map<std::uint64_t, Stored> entries_;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t tick_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace dgap
