// E10 — Section 8: the other three problems with predictions.
//   * Maximal Matching: base consistency 2, measure-uniform ≤ 3⌊s/2⌋;
//   * (Δ+1)-Vertex Coloring: base consistency 2, measure-uniform ≤ s;
//   * (2Δ−1)-Edge Coloring: base consistency 1, measure-uniform O(s).
// Each problem runs Init + measure-uniform over an error sweep.
#include "bench_util.hpp"

#include "coloring/algorithms.hpp"
#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "edgecoloring/algorithms.hpp"
#include "edgecoloring/checkers.hpp"
#include "graph/generators.hpp"
#include "matching/algorithms.hpp"
#include "matching/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "templates/problems_with_predictions.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

ProgramFactory matching_with_predictions() {
  return phase_as_algorithm([](NodeId) {
    std::vector<std::unique_ptr<PhaseProgram>> phases;
    phases.push_back(std::make_unique<MatchingInitPhase>());
    phases.push_back(std::make_unique<GreedyMatchingPhase>());
    return std::make_unique<SequencePhase>(std::move(phases));
  });
}

ProgramFactory coloring_with_predictions() {
  return phase_as_algorithm([](NodeId) {
    std::vector<std::unique_ptr<PhaseProgram>> phases;
    phases.push_back(std::make_unique<ColoringInitPhase>());
    phases.push_back(std::make_unique<GreedyColoringPhase>());
    return std::make_unique<SequencePhase>(std::move(phases));
  });
}

ProgramFactory edge_coloring_with_predictions() {
  return phase_as_algorithm([](NodeId) {
    std::vector<std::unique_ptr<PhaseProgram>> phases;
    phases.push_back(std::make_unique<EdgeColoringBasePhase>());
    phases.push_back(std::make_unique<GreedyEdgeColoringPhase>());
    return std::make_unique<SequencePhase>(std::move(phases));
  });
}

void matching_table() {
  banner("E10a (Section 8.1)",
         "Maximal Matching with predictions (Init + 3-round-group "
         "measure-uniform): rounds track eta1, bounded by eta+2 style "
         "degradation with the 3-floor(s/2) uniform bound.");
  Table table({"graph", "breaks", "eta1", "rounds", "3eta/2+2", "valid"});
  table.print_header();
  Rng rng(3);
  for (NodeId n : {60, 120}) {
    Graph g = make_line(n);
    randomize_ids(g, rng);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int breaks : {0, 1, 4, 16, n / 2}) {
      auto pred = provide_with_seed(*perturbed_provider(breaks), g,
                                    ProblemKind::kMatching, seed);
      auto result = run_with_predictions(g, pred, matching_with_predictions());
      const int e1 = eta1_matching(g, pred);
      table.print_row({"line_" + fmt(n), fmt(breaks), fmt(e1),
                       fmt(result.rounds), fmt(3 * e1 / 2 + 3),
                       is_valid_maximal_matching(g, result.outputs) ? "yes"
                                                                    : "NO"});
    }
  }
}

void coloring_table() {
  banner("E10b (Section 8.2)",
         "(Delta+1)-Vertex Coloring with predictions (Init + local-max "
         "measure-uniform, no clean-up needed): rounds <= eta1 + 2.");
  Table table({"graph", "scrambles", "eta1", "rounds", "eta+2", "valid"});
  table.print_header();
  Rng rng(5);
  for (auto [name, graph] :
       std::vector<std::pair<std::string, Graph>>{
           {"grid_10x10", make_grid(10, 10)},
           {"ring_100", make_ring(100)},
           {"gnp_80", make_gnp(80, 0.08, rng)}}) {
    randomize_ids(graph, rng);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int scrambles : {0, 2, 8, 32}) {
      auto pred = provide_with_seed(*perturbed_provider(scrambles), graph,
                                    ProblemKind::kColoring, seed);
      auto result =
          run_with_predictions(graph, pred, coloring_with_predictions());
      const int e1 = eta1_coloring(graph, pred);
      table.print_row(
          {name, fmt(scrambles), fmt(e1), fmt(result.rounds), fmt(e1 + 2),
           is_valid_coloring(graph, result.outputs, graph.max_degree() + 1)
               ? "yes"
               : "NO"});
    }
  }
}

void edge_coloring_table() {
  banner("E10c (Section 8.3)",
         "(2Delta-1)-Edge Coloring with predictions (base + 2-hop-max "
         "measure-uniform): base consistency 1; rounds O(eta1).");
  Table table({"graph", "scrambles", "eta1", "rounds", "2eta+4", "valid"});
  table.print_header();
  Rng rng(7);
  for (auto [name, graph] :
       std::vector<std::pair<std::string, Graph>>{
           {"line_80", make_line(80)},
           {"ring_60", make_ring(60)},
           {"grid_8x8", make_grid(8, 8)}}) {
    randomize_ids(graph, rng);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int scrambles : {0, 1, 4, 16}) {
      auto pred = provide_with_seed(*perturbed_provider(scrambles), graph,
                                    ProblemKind::kEdgeColoring, seed);
      auto result =
          run_with_predictions(graph, pred, edge_coloring_with_predictions());
      const int e1 = eta1_edge_coloring(graph, pred);
      table.print_row({name, fmt(scrambles), fmt(e1), fmt(result.rounds),
                       fmt(2 * e1 + 4),
                       is_valid_edge_coloring(graph, result.edge_outputs)
                           ? "yes"
                           : "NO"});
    }
  }
}

void template_matrix_table() {
  banner("E10d (Section 8 x Section 7)",
         "Template matrix for the other problems on adversarial sorted "
         "lines: Simple is uncapped; Consecutive/Parallel/Interleaved are "
         "capped by the line-graph/Linial reference bound (independent of "
         "n at fixed Delta, d).");
  Table table({"problem", "n", "simple", "consec", "parallel", "interleav"},
              12);
  table.print_header();
  for (NodeId n : {120, 240}) {
    {
      Graph g = make_line(n);
      sorted_ids(g);
      auto pred = Predictions(std::vector<Value>(g.num_nodes(), kNoNode));
      auto rs = run_with_predictions(g, pred, matching_simple_greedy());
      auto rc =
          run_with_predictions(g, pred, matching_consecutive_linegraph());
      auto rp = run_with_predictions(g, pred, matching_parallel_linegraph());
      auto ri =
          run_with_predictions(g, pred, matching_interleaved_linegraph());
      table.print_row({"matching", fmt(n), fmt(rs.rounds), fmt(rc.rounds),
                       fmt(rp.rounds), fmt(ri.rounds)});
    }
    {
      Graph g = make_line(n);
      sorted_ids(g);
      // Illegal colors everywhere.
      auto pred = Predictions(std::vector<Value>(g.num_nodes(), 99));
      auto rs = run_with_predictions(g, pred, coloring_simple_greedy());
      auto rc = run_with_predictions(g, pred, coloring_consecutive_linial());
      auto rp = run_with_predictions(g, pred, coloring_parallel_linial());
      auto ri = run_with_predictions(g, pred, coloring_interleaved_linial());
      table.print_row({"vertexcol", fmt(n), fmt(rs.rounds), fmt(rc.rounds),
                       fmt(rp.rounds), fmt(ri.rounds)});
    }
    {
      Graph g = make_line(n);
      sorted_ids(g);
      auto pred = Predictions::for_edges(
          g, [&] {
            std::vector<std::vector<Value>> rows(
                static_cast<std::size_t>(n));
            for (NodeId v = 0; v < n; ++v) {
              rows[v].assign(g.neighbors(v).size(), 99);
            }
            return rows;
          }());
      auto rs = run_with_predictions(g, pred, edge_coloring_simple_greedy());
      auto rc = run_with_predictions(g, pred,
                                     edge_coloring_consecutive_linegraph());
      auto rp =
          run_with_predictions(g, pred, edge_coloring_parallel_linegraph());
      auto ri = run_with_predictions(g, pred,
                                     edge_coloring_interleaved_linegraph());
      table.print_row({"edgecol", fmt(n), fmt(rs.rounds), fmt(rc.rounds),
                       fmt(rp.rounds), fmt(ri.rounds)});
    }
  }
}

void BM_MatchingUniform(benchmark::State& state) {
  Rng rng(1);
  Graph g = make_gnp(static_cast<NodeId>(state.range(0)), 0.05, rng);
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_algorithm(g, greedy_matching_algorithm());
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_MatchingUniform)->Arg(100)->Arg(300);

void BM_EdgeColoringUniform(benchmark::State& state) {
  Rng rng(2);
  Graph g = make_gnp(static_cast<NodeId>(state.range(0)), 0.05, rng);
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_algorithm(g, greedy_edge_coloring_algorithm());
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.edge_outputs.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_EdgeColoringUniform)->Arg(60)->Arg(150);

}  // namespace

int main(int argc, char** argv) {
  matching_table();
  coloring_table();
  edge_coloring_table();
  template_matrix_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
