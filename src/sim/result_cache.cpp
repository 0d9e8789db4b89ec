#include "sim/result_cache.hpp"

#include "common/require.hpp"
#include "sim/batch.hpp"

namespace dgap {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix_signed(std::uint64_t h, std::int64_t v) {
  return mix64(h, static_cast<std::uint64_t>(v));
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return mix64(h, bits);
}

}  // namespace

std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes,
                          std::uint64_t h) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = mix_signed(1469598103934665603ULL, g.num_nodes());
  h = mix_signed(h, g.id_bound());
  for (NodeId v = 0; v < g.num_nodes(); ++v) h = mix_signed(h, g.id(v));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (v < u) h = mix_signed(h, static_cast<std::int64_t>(v) *
                                       g.num_nodes() + u);
    }
  }
  return h;
}

std::uint64_t spec_digest(const GraphSpec& spec) {
  // Domain-separated from graph_digest so a spec key and a structural key
  // never collide by construction order alone.
  std::uint64_t h = mix64(1469598103934665603ULL, 0x53504543ULL);  // "SPEC"
  h = mix_signed(h, static_cast<int>(spec.family));
  h = mix_signed(h, spec.a);
  h = mix_signed(h, spec.b);
  h = mix_double(h, spec.p);
  h = mix64(h, spec.seed);
  h = mix_signed(h, static_cast<int>(spec.ids));
  return h;
}

std::uint64_t predictions_digest(const Predictions& pred) {
  std::uint64_t h = 1469598103934665603ULL;
  h = mix_signed(h, static_cast<std::int64_t>(pred.node_values().size()));
  for (Value v : pred.node_values()) h = mix_signed(h, v);
  h = mix_signed(h, static_cast<std::int64_t>(pred.edge_values().size()));
  for (Value v : pred.edge_values()) h = mix_signed(h, v);
  return h;
}

std::uint64_t provider_slot_digest(const PredictionProvider& provider,
                                   ProblemKind kind, std::uint64_t seed) {
  // Domain-separated ("PROV") so a provider-addressed slot can never
  // collide with a raw predictions_digest of the same numeric value.
  std::uint64_t h = mix64(1469598103934665603ULL, 0x50524F56ULL);  // "PROV"
  h = mix64(h, provider.digest());
  h = mix_signed(h, static_cast<int>(kind));
  h = mix64(h, seed);
  return h;
}

std::uint64_t options_digest(const EngineOptions& options) {
  std::uint64_t h = 1469598103934665603ULL;
  h = mix_signed(h, options.max_rounds);
  h = mix_signed(h, options.congest_word_limit);
  h = mix_signed(h, static_cast<int>(options.congest_policy));
  // Compilation changes the wire-side counters (messages_sent, words_sent,
  // the suppressed split), so compiled and uncompiled runs of one job
  // must not share a slot.
  h = mix_signed(h, options.compile.cache_resends ? 1 : 0);
  h = mix_signed(h, options.compile.decode_defaults ? 1 : 0);
  return h;
}

std::uint64_t result_cache_key(std::uint64_t instance_digest,
                               std::string_view algorithm_id,
                               std::uint64_t predictions_digest,
                               std::uint64_t options_digest, bool capture,
                               TraceDetail detail) {
  std::uint64_t h = mix64(1469598103934665603ULL, instance_digest);
  h = mix_signed(h, static_cast<std::int64_t>(algorithm_id.size()));
  for (char c : algorithm_id) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  h = mix64(h, predictions_digest);
  h = mix64(h, options_digest);
  h = mix_signed(h, capture ? 1 : 0);
  h = mix_signed(h, static_cast<int>(detail));
  return h;
}

std::uint64_t ResultCache::guard_of(const Entry& e) {
  return fnv1a_bytes(e.transcript, mix64(1469598103934665603ULL,
                                         result_checksum(e.result)));
}

std::shared_ptr<const ResultCache::Entry> ResultCache::get(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  DGAP_ASSERT(guard_of(*it->second.entry) == it->second.guard,
              "result cache entry was mutated after insertion");
  ++hits_;
  it->second.stamp = ++tick_;
  return it->second.entry;
}

void ResultCache::put(std::uint64_t key, RunResult result,
                      std::vector<std::uint8_t> transcript) {
  auto entry = std::make_shared<Entry>();
  entry->result = std::move(result);
  entry->transcript = std::move(transcript);
  const std::uint64_t guard = guard_of(*entry);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      entries_.emplace(key, Stored{std::move(entry), guard, 0});
  if (inserted) {
    it->second.stamp = ++tick_;
    evict_locked();
  }
}

void ResultCache::evict_locked() {
  if (capacity_ == 0) return;
  while (entries_.size() > capacity_) {
    auto oldest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.stamp < oldest->second.stamp) oldest = it;
    }
    entries_.erase(oldest);
    ++evictions_;
  }
}

void ResultCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  evict_locked();
}

std::size_t ResultCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::int64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::int64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void ResultCache::poison_for_test(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  DGAP_REQUIRE(it != entries_.end(), "poison_for_test: key not present");
  it->second.entry->result.rounds ^= 1;
}

}  // namespace dgap
