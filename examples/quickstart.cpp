// Quickstart: build a graph, attach predictions, run an MIS algorithm with
// predictions, and inspect rounds / validity / error measures.
//
//   $ ./quickstart
//
// Walks through the three regimes the paper cares about: correct
// predictions (consistency), mildly wrong predictions (degradation), and
// adversarial predictions (robustness).
#include <cstdio>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

using namespace dgap;

namespace {

void run_one(const char* label, const Graph& g, const Predictions& pred) {
  // Corollary 12's algorithm: Greedy MIS in parallel with Linial coloring.
  auto result = run_with_predictions(g, pred, mis_parallel_linial());
  std::printf("  %-22s eta1=%-4d eta2=%-4d rounds=%-4d valid=%s\n", label,
              eta1_mis(g, pred), eta2_mis(g, pred), result.rounds,
              is_valid_mis(g, result.outputs) ? "yes" : "NO");
}

}  // namespace

int main() {
  std::printf("dgap quickstart: Maximal Independent Set with predictions\n");
  std::printf("algorithm: Parallel template (Greedy MIS || Linial), "
              "Corollary 12\n\n");

  Rng rng(1);
  Graph g = make_grid(8, 8);
  randomize_ids(g, rng);
  std::printf("graph: 8x8 grid, n=%d, Delta=%d, d=%lld\n\n", g.num_nodes(),
              g.max_degree(), static_cast<long long>(g.id_bound()));

  // Every prediction comes from a provider. With one seed, the perturbed
  // ones corrupt the same correct solution the exact one returns.
  auto predict = [&g](const ProviderPtr& provider) {
    return provide_with_seed(*provider, g, ProblemKind::kMis, 2);
  };

  // 1. Perfect predictions: the initialization algorithm confirms them in
  //    3 rounds (consistency).
  run_one("correct", g, predict(exact_provider()));

  // 2. A few wrong bits: rounds degrade linearly with the error, not with
  //    the graph size.
  run_one("4 flipped bits", g, predict(perturbed_provider(4)));
  run_one("12 flipped bits", g, predict(perturbed_provider(12)));

  // 3. Garbage predictions: the reference algorithm caps the damage.
  run_one("all ones (garbage)", g, predict(constant_provider(1)));
  run_one("all zeros (garbage)", g, predict(constant_provider(0)));

  std::printf(
      "\nTakeaway: rounds ~ min{eta2 + 4, O(Delta^2 + log* d)} — fast when "
      "predictions are good, never catastrophically slow when they are "
      "not.\n");
  return 0;
}
