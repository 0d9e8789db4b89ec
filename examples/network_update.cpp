// The paper's Section 1.1 motivating scenario, end to end:
//
//   "an example of where an algorithm with predictions for Maximal
//    Independent Set may be useful is when a maximal independent set has
//    been computed on one network, but now a related network is being
//    used [...] the same set of nodes, but a slightly different set of
//    edges."
//
// We compute an MIS on network G0, evolve the network through several
// epochs of edge churn, and at each epoch reuse the PREVIOUS epoch's
// output as the prediction. Compare against recomputing blind each epoch.
#include <cstdio>

#include "common/rng.hpp"
#include "graph/edits.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

using namespace dgap;

int main() {
  std::printf("dgap example: maintaining an MIS across network updates\n\n");
  Rng rng(7);
  Graph g = make_random_connected(200, 100, rng);
  const int kEpochs = 8;
  const int kChurn = 6;  // edges removed + added per epoch

  // Epoch 0: no prior knowledge — run with garbage predictions.
  const Predictions garbage(std::vector<Value>(g.num_nodes(), 0));
  Predictions current = garbage;
  std::printf("%-7s %-7s %-9s %-14s %-14s %s\n", "epoch", "churn", "eta1",
              "rounds_reuse", "rounds_blind", "valid");
  long long total_reuse = 0, total_blind = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    auto reuse = run_with_predictions(g, current, mis_parallel_linial());
    auto blind = run_with_predictions(g, garbage, mis_parallel_linial());
    total_reuse += reuse.rounds;
    total_blind += blind.rounds;
    std::printf("%-7d %-7d %-9d %-14d %-14d %s\n", epoch,
                epoch == 0 ? 0 : kChurn, eta1_mis(g, current), reuse.rounds,
                blind.rounds, is_valid_mis(g, reuse.outputs) ? "yes" : "NO");

    // The network evolves; this epoch's solution becomes the next epoch's
    // prediction.
    current = Predictions(reuse.outputs);
    g = perturb_edges(g, kChurn, kChurn, rng);
  }
  std::printf("\ntotal rounds across %d epochs: reuse=%lld blind=%lld "
              "(%.1fx saving after warm-up)\n",
              kEpochs, total_reuse, total_blind,
              static_cast<double>(total_blind) /
                  static_cast<double>(total_reuse));
  return 0;
}
