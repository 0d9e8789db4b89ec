// All four problems of the paper on the same graph, with predictions:
// Maximal Independent Set, Maximal Matching, (Δ+1)-Vertex Coloring and
// (2Δ−1)-Edge Coloring (Sections 3 and 8). Each runs its initialization
// algorithm followed by its measure-uniform algorithm, across prediction
// quality levels.
#include <cstdio>

#include "coloring/algorithms.hpp"
#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "edgecoloring/algorithms.hpp"
#include "edgecoloring/checkers.hpp"
#include "graph/generators.hpp"
#include "matching/algorithms.hpp"
#include "matching/checkers.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "templates/mis_with_predictions.hpp"

using namespace dgap;

namespace {

ProgramFactory pipeline(PhaseFactory init, PhaseFactory uniform) {
  return phase_as_algorithm(
      [init = std::move(init), uniform = std::move(uniform)](NodeId v) {
        std::vector<std::unique_ptr<PhaseProgram>> phases;
        phases.push_back(init(v));
        phases.push_back(uniform(v));
        return std::make_unique<SequencePhase>(std::move(phases));
      });
}

}  // namespace

int main() {
  std::printf("dgap example: the four problems of the paper on one graph\n\n");
  Rng rng(5);
  Graph g = make_grid(10, 10);
  randomize_ids(g, rng);
  std::printf("graph: 10x10 grid, n=%d, Delta=%d\n\n", g.num_nodes(),
              g.max_degree());
  std::printf("%-18s %-12s %-7s %-8s %s\n", "problem", "predictions", "eta1",
              "rounds", "valid");

  for (int errors : {0, 5, 40}) {
    const char* label =
        errors == 0 ? "correct" : (errors == 5 ? "5 errors" : "40 errors");
    {
      auto pred =
          perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
      auto r = run_with_predictions(g, pred, mis_simple_greedy());
      std::printf("%-18s %-12s %-7d %-8d %s\n", "MIS", label,
                  eta1_mis(g, pred), r.rounds,
                  is_valid_mis(g, r.outputs) ? "yes" : "NO");
    }
    {
      auto pred =
          perturbed_provider(errors)->provide(g, ProblemKind::kMatching, rng);
      auto r = run_with_predictions(
          g, pred, pipeline(make_matching_init(), make_greedy_matching()));
      std::printf("%-18s %-12s %-7d %-8d %s\n", "MaximalMatching", label,
                  eta1_matching(g, pred), r.rounds,
                  is_valid_maximal_matching(g, r.outputs) ? "yes" : "NO");
    }
    {
      auto pred =
          perturbed_provider(errors)->provide(g, ProblemKind::kColoring, rng);
      auto r = run_with_predictions(
          g, pred, pipeline(make_coloring_init(), make_greedy_coloring()));
      std::printf("%-18s %-12s %-7d %-8d %s\n", "(D+1)-VertexCol", label,
                  eta1_coloring(g, pred), r.rounds,
                  is_valid_coloring(g, r.outputs, g.max_degree() + 1) ? "yes"
                                                                      : "NO");
    }
    {
      auto pred = perturbed_provider(errors)->provide(
          g, ProblemKind::kEdgeColoring, rng);
      auto r = run_with_predictions(
          g, pred,
          pipeline(make_edge_coloring_base(), make_greedy_edge_coloring()));
      std::printf("%-18s %-12s %-7d %-8d %s\n", "(2D-1)-EdgeCol", label,
                  eta1_edge_coloring(g, pred), r.rounds,
                  is_valid_edge_coloring(g, r.edge_outputs) ? "yes" : "NO");
    }
  }
  std::printf("\nEach row: initialization algorithm (consistency) followed "
              "by the problem's\nmeasure-uniform algorithm (degradation in "
              "the error measure, not in n).\n");
  return 0;
}
