#include "predict/provider.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/require.hpp"
#include "graph/edits.hpp"
#include "graph/exact.hpp"

namespace dgap {

namespace {

// Provider digests are FNV-1a over a stable tag plus every configuration
// parameter — independent of sim/result_cache.hpp (which sits above this
// library) but the same construction, so they mix cleanly into cache keys.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
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

std::uint64_t mix_tag(std::uint64_t h, const char* tag) {
  for (const char* c = tag; *c; ++c) {
    h ^= static_cast<std::uint8_t>(*c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t tag_digest(const char* tag) {
  return mix_tag(mix_tag(kFnvBasis, "PROV"), tag);
}

std::vector<Value> filled(const Graph& g, Value value) {
  return std::vector<Value>(static_cast<std::size_t>(g.num_nodes()), value);
}

Predictions neutral_prediction(const Graph& g, ProblemKind kind) {
  if (kind == ProblemKind::kEdgeColoring) {
    std::vector<std::vector<Value>> rows(
        static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      rows[static_cast<std::size_t>(v)].assign(g.neighbors(v).size(), 0);
    }
    return Predictions::for_edges(g, std::move(rows));
  }
  return Predictions(filled(g, neutral_value(kind)));
}

class NeutralProvider final : public PredictionProvider {
 public:
  std::string name() const override { return "neutral"; }
  std::uint64_t digest() const override { return tag_digest("neutral"); }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    return neutral_prediction(g, kind);
  }
};

class ConstantProvider final : public PredictionProvider {
 public:
  explicit ConstantProvider(Value value) : value_(value) {}
  std::string name() const override {
    return "const:" + std::to_string(value_);
  }
  std::uint64_t digest() const override {
    return mix_signed(tag_digest("const"), value_);
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    DGAP_REQUIRE(kind != ProblemKind::kEdgeColoring,
                 "constant_provider serves node-valued kinds only");
    return Predictions(filled(g, value_));
  }

 private:
  Value value_;
};

// ---- Correct solutions (consistency regime) ---------------------------------
//
// Each builder computes a correct solution greedily in a random order, in
// the problem's prediction encoding.

std::vector<NodeId> random_order(NodeId n, Rng& rng) {
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(order);
  return order;
}

/// A maximal independent set in a random node order, as 0/1 bits.
std::vector<Value> mis_solution(const Graph& g, Rng& rng) {
  const auto in = sequential_mis(g, random_order(g.num_nodes(), rng));
  std::vector<Value> x(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) x[i] = in[i] ? 1 : 0;
  return x;
}

/// Partner identifiers of a maximal matching built in a random edge order
/// (kNoNode for unmatched nodes).
std::vector<Value> matching_solution(const Graph& g, Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  const auto mate = sequential_maximal_matching(g, edges);
  std::vector<Value> x(mate.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    x[v] = mate[v] == kNoNode ? Value{kNoNode} : g.id(mate[v]);
  }
  return x;
}

/// A (Δ+1)-coloring in a random node order.
std::vector<Value> coloring_solution(const Graph& g, Rng& rng) {
  return sequential_vertex_coloring(g, random_order(g.num_nodes(), rng));
}

/// A (2Δ−1)-edge coloring in a random edge order, one row per node aligned
/// with its adjacency list.
std::vector<std::vector<Value>> edge_coloring_solution(const Graph& g,
                                                       Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  return sequential_edge_coloring(g, edges);
}

Predictions correct_prediction(const Graph& g, ProblemKind kind, Rng& rng) {
  switch (kind) {
    case ProblemKind::kMis:
      return Predictions(mis_solution(g, rng));
    case ProblemKind::kMatching:
      return Predictions(matching_solution(g, rng));
    case ProblemKind::kColoring:
      return Predictions(coloring_solution(g, rng));
    case ProblemKind::kEdgeColoring:
      return Predictions::for_edges(g, edge_coloring_solution(g, rng));
  }
  DGAP_ASSERT(false, "unknown problem kind");
  return {};
}

// ---- Corruptors (degradation regime) ----------------------------------------
//
// Each takes a freshly built correct solution by value and corrupts
// `errors` random places in it, drawing from the same rng stream.

std::vector<std::size_t> distinct_indices(std::size_t count, std::size_t bound,
                                          Rng& rng) {
  count = std::min(count, bound);
  std::vector<std::size_t> all(bound);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng.shuffle(all);
  all.resize(count);
  return all;
}

std::size_t error_count(int errors) {
  return static_cast<std::size_t>(std::max(errors, 0));
}

/// MIS: flip min(errors, n) distinct bits.
std::vector<Value> flip_bits(std::vector<Value> x, int errors, Rng& rng) {
  for (std::size_t i : distinct_indices(error_count(errors), x.size(), rng)) {
    x[i] = x[i] == 0 ? 1 : 0;
  }
  return x;
}

/// Matching: both endpoints of `errors` random matched pairs revert to ⊥.
std::vector<Value> break_matches(const Graph& g, std::vector<Value> x,
                                 int errors, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (x[v] == kNoNode) continue;
    for (NodeId u : g.neighbors(v)) {
      if (v < u && x[v] == g.id(u) && x[u] == g.id(v)) pairs.emplace_back(v, u);
    }
  }
  rng.shuffle(pairs);
  const std::size_t cut = std::min(pairs.size(), error_count(errors));
  for (std::size_t i = 0; i < cut; ++i) {
    x[pairs[i].first] = kNoNode;
    x[pairs[i].second] = kNoNode;
  }
  return x;
}

/// Coloring: re-color `errors` random nodes with random palette colors
/// (may collide).
std::vector<Value> scramble_colors(const Graph& g, std::vector<Value> x,
                                   int errors, Rng& rng) {
  const Value palette = g.max_degree() + 1;
  for (std::size_t i : distinct_indices(error_count(errors), x.size(), rng)) {
    x[i] = rng.uniform(1, palette);
  }
  return x;
}

/// Edge coloring: re-color `errors` random edges with random palette
/// colors, consistently on both endpoints but possibly clashing with
/// adjacent edges.
std::vector<std::vector<Value>> scramble_edge_colors(
    const Graph& g, std::vector<std::vector<Value>> x, int errors, Rng& rng) {
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);
  auto edges = g.edges();
  rng.shuffle(edges);
  const std::size_t cut = std::min(edges.size(), error_count(errors));
  for (std::size_t i = 0; i < cut; ++i) {
    auto [u, v] = edges[i];
    const Value c = rng.uniform(1, palette);
    // The edge's column in each endpoint's row.
    x[u][g.edge_slot(u, v) - g.offsets()[u]] = c;
    x[v][g.edge_slot(v, u) - g.offsets()[v]] = c;
  }
  return x;
}

Predictions perturbed_prediction(const Graph& g, ProblemKind kind, int errors,
                                 Rng& rng) {
  switch (kind) {
    case ProblemKind::kMis:
      return Predictions(flip_bits(mis_solution(g, rng), errors, rng));
    case ProblemKind::kMatching:
      return Predictions(
          break_matches(g, matching_solution(g, rng), errors, rng));
    case ProblemKind::kColoring:
      return Predictions(
          scramble_colors(g, coloring_solution(g, rng), errors, rng));
    case ProblemKind::kEdgeColoring:
      return Predictions::for_edges(
          g, scramble_edge_colors(g, edge_coloring_solution(g, rng), errors,
                                  rng));
  }
  DGAP_ASSERT(false, "unknown problem kind");
  return {};
}

class ExactProvider final : public PredictionProvider {
 public:
  std::string name() const override { return "exact"; }
  std::uint64_t digest() const override { return tag_digest("exact"); }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& rng) const override {
    return correct_prediction(g, kind, rng);
  }
};

class PerturbedProvider final : public PredictionProvider {
 public:
  explicit PerturbedProvider(int errors) : errors_(errors) {}
  std::string name() const override {
    return "perturbed:" + std::to_string(errors_);
  }
  std::uint64_t digest() const override {
    return mix_signed(tag_digest("perturbed"), errors_);
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& rng) const override {
    // One rng stream end to end: exact source first, then the corruption
    // — the recipe the golden transcripts were recorded with
    // (tools/cases.cpp).
    return perturbed_prediction(g, kind, errors_, rng);
  }

 private:
  int errors_;
};

class GridStripeProvider final : public PredictionProvider {
 public:
  GridStripeProvider(NodeId w, NodeId h) : w_(w), h_(h) {}
  std::string name() const override {
    return "grid_stripe:" + std::to_string(w_) + "x" + std::to_string(h_);
  }
  std::uint64_t digest() const override {
    return mix_signed(mix_signed(tag_digest("grid_stripe"), w_), h_);
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    DGAP_REQUIRE(kind == ProblemKind::kMis,
                 "grid_stripe_provider is Figure 2's MIS pattern");
    DGAP_REQUIRE(g.num_nodes() == w_ * h_,
                 "grid_stripe_provider: graph is not the configured grid");
    // Figure 2: black (prediction 1) where (x mod 4, y mod 4) are both in
    // {0,1} or both in {2,3}; white elsewhere. Node y·w + x sits at (x, y).
    std::vector<Value> x(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const int a = (v % w_) % 4;
      const int b = (v / w_) % 4;
      x[v] = (a <= 1 && b <= 1) || (a >= 2 && b >= 2) ? 1 : 0;
    }
    return Predictions(std::move(x));
  }

 private:
  NodeId w_;
  NodeId h_;
};

class StaleGraphProvider final : public PredictionProvider {
 public:
  StaleGraphProvider(int remove_edges, int add_edges)
      : remove_(remove_edges), add_(add_edges) {}
  std::string name() const override {
    return "stale:-" + std::to_string(remove_) + "+" + std::to_string(add_);
  }
  std::uint64_t digest() const override {
    return mix_signed(mix_signed(tag_digest("stale"), remove_), add_);
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& rng) const override {
    DGAP_REQUIRE(kind != ProblemKind::kEdgeColoring,
                 "stale_graph_provider serves node-valued kinds only (edge "
                 "predictions do not survive an edge-set change)");
    const Graph old = perturb_edges(g, remove_, add_, rng);
    return correct_prediction(old, kind, rng);
  }

 private:
  int remove_;
  int add_;
};

class WarmStartProvider final : public PredictionProvider {
 public:
  WarmStartProvider(Graph prev, std::vector<Value> prev_outputs)
      : prev_(std::move(prev)), outputs_(std::move(prev_outputs)) {
    DGAP_REQUIRE(outputs_.size() ==
                     static_cast<std::size_t>(prev_.num_nodes()),
                 "warm_start_provider needs one output per previous node");
  }
  std::string name() const override { return "warm_start"; }
  std::uint64_t digest() const override {
    // The digest must separate distinct histories: mix the previous
    // graph's identifiers (outputs are keyed by them) and every output.
    std::uint64_t h = tag_digest("warm_start");
    h = mix_signed(h, prev_.num_nodes());
    h = mix_signed(h, prev_.id_bound());
    for (NodeId v = 0; v < prev_.num_nodes(); ++v) {
      h = mix_signed(h, prev_.id(v));
    }
    for (Value out : outputs_) h = mix_signed(h, out);
    return h;
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    DGAP_REQUIRE(kind != ProblemKind::kEdgeColoring,
                 "warm_start_provider serves node-valued kinds only");
    // Translate by identifier: a surviving node inherits its own old
    // output when it is a well-formed prediction; a node inserted since,
    // or one whose old output is stale, gets the neutral value.
    std::unordered_map<Value, NodeId> prev_index;
    prev_index.reserve(static_cast<std::size_t>(prev_.num_nodes()));
    for (NodeId v = 0; v < prev_.num_nodes(); ++v) {
      prev_index.emplace(prev_.id(v), v);
    }
    std::unordered_set<Value> next_ids;
    if (kind == ProblemKind::kMatching) {
      next_ids.reserve(static_cast<std::size_t>(g.num_nodes()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) next_ids.insert(g.id(v));
    }
    const auto keep = [&](Value out) {
      switch (kind) {
        case ProblemKind::kMis:
          return out == 0 || out == 1;
        case ProblemKind::kMatching:
          // Identifiers are positive; anything else (⊥ included) stays ⊥.
          // A partner whose identifier was deleted is dropped.
          return out >= 1 && next_ids.count(out) > 0;
        default:
          // A positive color; 0 lies outside every palette, so the base
          // algorithm treats the node as active.
          return out >= 1;
      }
    };
    auto pred = filled(g, neutral_value(kind));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto it = prev_index.find(g.id(v));
      if (it == prev_index.end()) continue;
      const Value out = outputs_[static_cast<std::size_t>(it->second)];
      if (keep(out)) pred[static_cast<std::size_t>(v)] = out;
    }
    return Predictions(std::move(pred));
  }

 private:
  Graph prev_;
  std::vector<Value> outputs_;
};

}  // namespace

const char* problem_kind_name(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::kMis:
      return "mis";
    case ProblemKind::kMatching:
      return "matching";
    case ProblemKind::kColoring:
      return "coloring";
    case ProblemKind::kEdgeColoring:
      return "edge_coloring";
  }
  DGAP_ASSERT(false, "unknown problem kind");
  return "?";
}

Value neutral_value(ProblemKind kind) {
  return kind == ProblemKind::kMatching ? Value{kNoNode} : Value{0};
}

Predictions provide_with_seed(const PredictionProvider& provider,
                              const Graph& g, ProblemKind kind,
                              std::uint64_t seed) {
  Rng rng(seed);
  return provider.provide(g, kind, rng);
}

ProviderPtr neutral_provider() {
  return std::make_shared<NeutralProvider>();
}

ProviderPtr constant_provider(Value value) {
  return std::make_shared<ConstantProvider>(value);
}

ProviderPtr exact_provider() { return std::make_shared<ExactProvider>(); }

ProviderPtr perturbed_provider(int errors) {
  return std::make_shared<PerturbedProvider>(errors);
}

ProviderPtr grid_stripe_provider(NodeId w, NodeId h) {
  return std::make_shared<GridStripeProvider>(w, h);
}

ProviderPtr stale_graph_provider(int remove_edges, int add_edges) {
  return std::make_shared<StaleGraphProvider>(remove_edges, add_edges);
}

ProviderPtr warm_start_provider(Graph prev, std::vector<Value> prev_outputs) {
  return std::make_shared<WarmStartProvider>(std::move(prev),
                                             std::move(prev_outputs));
}

}  // namespace dgap
