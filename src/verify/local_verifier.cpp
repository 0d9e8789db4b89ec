#include "verify/local_verifier.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace dgap {

namespace {

/// Shared shell: broadcast own claim in round 1, decide from the inbox.
/// The `judge` receives (ctx, inbox) and returns accept/reject.
template <typename Judge>
class OneRoundVerifier final : public NodeProgram {
 public:
  explicit OneRoundVerifier(Judge judge) : judge_(std::move(judge)) {}

  void on_send(NodeContext& ctx) override {
    std::vector<Value> words = claim_words(ctx);
    ctx.broadcast(words);
  }

  void on_receive(NodeContext& ctx) override {
    ctx.set_output(judge_(ctx) ? 1 : 0);
    ctx.terminate();
  }

 private:
  static std::vector<Value> claim_words(NodeContext& ctx) {
    // Node claims: either the scalar prediction, or the per-edge
    // predictions prefixed by the co-endpoint ids.
    std::vector<Value> words;
    words.push_back(ctx.prediction());
    return words;
  }

  Judge judge_;
};

template <typename Judge>
VerificationResult run_scalar_verifier(const Graph& g,
                                       const std::vector<Value>& claimed,
                                       Judge judge) {
  DGAP_REQUIRE(claimed.size() == static_cast<std::size_t>(g.num_nodes()),
               "one claim per node");
  Predictions pred{claimed};
  auto result = run_with_predictions(g, pred, [&](NodeId) {
    return std::make_unique<OneRoundVerifier<Judge>>(judge);
  });
  VerificationResult vr;
  vr.rounds = result.rounds;
  vr.total_messages = result.total_messages;
  vr.accepted = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (result.outputs[v] != 1) {
      vr.accepted = false;
      vr.rejecting.push_back(v);
    }
  }
  return vr;
}

}  // namespace

VerificationResult verify_mis_locally(const Graph& g,
                                      const std::vector<Value>& claimed) {
  return run_scalar_verifier(g, claimed, [](NodeContext& ctx) {
    const Value mine = ctx.prediction();
    if (mine != 0 && mine != 1) return false;
    bool neighbor_in = false;
    for (const Message& m : ctx.inbox()) {
      if (m.words.at(0) == 1) neighbor_in = true;
    }
    return mine == 1 ? !neighbor_in : neighbor_in;
  });
}

VerificationResult verify_matching_locally(const Graph& g,
                                           const std::vector<Value>& claimed) {
  return run_scalar_verifier(g, claimed, [](NodeContext& ctx) {
    const Value mine = ctx.prediction();
    if (mine == kNoNode) {
      // ⊥ is only correct when every neighbor is matched (to someone).
      for (const Message& m : ctx.inbox()) {
        if (m.words.at(0) == kNoNode) return false;
      }
      return true;
    }
    // Must be a neighbor's identifier, and reciprocated.
    for (const Message& m : ctx.inbox()) {
      if (ctx.neighbor_id(m.from) == mine) {
        return m.words.at(0) == ctx.id();
      }
    }
    return false;
  });
}

VerificationResult verify_coloring_locally(const Graph& g,
                                           const std::vector<Value>& claimed,
                                           Value palette) {
  return run_scalar_verifier(g, claimed, [palette](NodeContext& ctx) {
    const Value mine = ctx.prediction();
    if (mine < 1 || mine > palette) return false;
    for (const Message& m : ctx.inbox()) {
      if (m.words.at(0) == mine) return false;
    }
    return true;
  });
}

VerificationResult verify_edge_coloring_locally(
    const Graph& g, const std::vector<Value>& claimed) {
  Predictions pred = Predictions::for_edges(g, claimed);
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);

  class EdgeVerifier final : public NodeProgram {
   public:
    explicit EdgeVerifier(Value palette) : palette_(palette) {}

    void on_send(NodeContext& ctx) override {
      // Send each neighbor the color claimed for the shared edge.
      for (NodeId u : ctx.neighbors()) {
        ctx.send(u, {ctx.edge_prediction(u)});
      }
    }

    void on_receive(NodeContext& ctx) override {
      bool ok = true;
      std::vector<Value> mine;
      for (NodeId u : ctx.neighbors()) mine.push_back(ctx.edge_prediction(u));
      for (std::size_t i = 0; i < mine.size() && ok; ++i) {
        if (mine[i] < 1 || mine[i] > palette_) ok = false;
        for (std::size_t j = i + 1; j < mine.size(); ++j) {
          if (mine[i] == mine[j]) ok = false;
        }
      }
      for (const Message& m : ctx.inbox()) {
        if (m.words.at(0) != ctx.edge_prediction(m.from)) ok = false;
      }
      ctx.set_output(ok ? 1 : 0);
      ctx.terminate();
    }

   private:
    Value palette_;
  };

  auto result = run_with_predictions(g, pred, [palette](NodeId) {
    return std::make_unique<EdgeVerifier>(palette);
  });
  VerificationResult vr;
  vr.rounds = result.rounds;
  vr.total_messages = result.total_messages;
  vr.accepted = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (result.outputs[v] != 1) {
      vr.accepted = false;
      vr.rejecting.push_back(v);
    }
  }
  return vr;
}

}  // namespace dgap
