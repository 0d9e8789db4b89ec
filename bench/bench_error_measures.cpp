// E7/E8 — Section 5's error-measure comparisons:
//   * Figure 1 (wheel F_k): diameter of the error component vs the whole
//     graph — the non-monotonicity that disqualifies diameter as a general
//     error measure;
//   * Figure 2 (4-striped grid): η1 = n but η_bw = 4, and U_bw (Section
//     9.1) turns that gap into a round-count gap;
//   * η2 ≤ η1 ≤ n and η_H's global blow-up on disjoint components.
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

void figure1_table() {
  banner("E7 (Figure 1)",
         "Wheel F_k: diameter(F_k) = 4 but the rim error component "
         "(hub predicts 1, rest 0) has diameter floor(k/2) — diameter is "
         "not monotone, hence not a valid error measure.");
  Table table({"k", "diam(F_k)", "rim_diam", "eta1(hub=1)", "eta1(all=1)"});
  table.print_header();
  for (NodeId k : {8, 12, 16, 24, 32}) {
    Graph g = make_wheel_fk(k);
    std::vector<Value> x(static_cast<std::size_t>(2 * k + 1), 0);
    x[0] = 1;
    Predictions hub{x};
    auto comps = mis_error_components(g, hub);
    auto [rim, map] = g.induced(comps.at(0));
    const Predictions all_ones(std::vector<Value>(g.num_nodes(), 1));
    table.print_row({fmt(k), fmt(diameter(g)), fmt(diameter(rim)),
                     fmt(eta1_mis(g, hub)), fmt(eta1_mis(g, all_ones))});
  }
}

void figure2_table() {
  banner("E8 (Figure 2 / Section 9.1)",
         "4-striped grid: eta1 = n while eta_bw = 4; the black/white "
         "alternating U_bw solves it in O(1) rounds where plain Greedy "
         "needs rounds growing with the grid.");
  Table table({"grid", "n", "eta1", "eta_bw", "rounds_bw", "rounds_plain"});
  table.print_header();
  Rng rng(3);
  const std::vector<NodeId> sides{8, 12, 16, 24};
  // Two jobs per grid size, batched; rows print from the ordered results.
  BatchRunner runner({default_batch_workers()});
  std::vector<Graph> graphs;
  graphs.reserve(sides.size());
  std::vector<Predictions> preds;
  for (NodeId side : sides) {
    Graph& g = graphs.emplace_back(make_grid(side, side));
    randomize_ids(g, rng);
    auto pred = provide_with_seed(*grid_stripe_provider(side, side), g,
                                  ProblemKind::kMis, 0);
    runner.add(g, mis_simple_bw(), pred);
    runner.add(g, mis_simple_greedy(), pred);
    preds.push_back(std::move(pred));
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < sides.size(); ++i) {
    const NodeId side = sides[i];
    const Graph& g = graphs[i];
    const Predictions& pred = preds[i];
    table.print_row({fmt(side) + "x" + fmt(side), fmt(side * side),
                     fmt(eta1_mis(g, pred)), fmt(eta_bw_mis(g, pred)),
                     fmt(results[2 * i].rounds), fmt(results[2 * i + 1].rounds)});
  }
}

void eta_comparison_table() {
  banner("E7b (Section 5)",
         "eta2 <= eta1 with large gaps on cliques/stars (all-ones "
         "predictions); eta_H counts globally (sum over components) while "
         "eta1 stays local.");
  Table table({"instance", "eta1", "eta2", "eta_bw", "eta_H", "eta_sum"});
  table.print_header();
  {
    Graph g = make_clique(12);
    auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
    table.print_row({"clique_12_all1", fmt(eta1_mis(g, pred)),
                     fmt(eta2_mis(g, pred)), fmt(eta_bw_mis(g, pred)),
                     fmt(eta_hamming_mis(g, pred)), fmt(eta_sum_mis(g, pred))});
  }
  {
    Graph g = make_star(12);
    auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
    table.print_row({"star_12_all1", fmt(eta1_mis(g, pred)),
                     fmt(eta2_mis(g, pred)), fmt(eta_bw_mis(g, pred)),
                     fmt(eta_hamming_mis(g, pred)), fmt(eta_sum_mis(g, pred))});
  }
  {
    Graph g = make_clique(3);
    for (int i = 1; i < 8; ++i) g = disjoint_union(g, make_clique(3));
    auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
    table.print_row({"8_triangles_all1", fmt(eta1_mis(g, pred)),
                     fmt(eta2_mis(g, pred)), fmt(eta_bw_mis(g, pred)),
                     fmt(eta_hamming_mis(g, pred)), fmt(eta_sum_mis(g, pred))});
  }
  {
    Rng rng(5);
    Graph g = make_line(20);
    auto pred = perturbed_provider(3)->provide(g, ProblemKind::kMis, rng);
    table.print_row({"line_20_3flips", fmt(eta1_mis(g, pred)),
                     fmt(eta2_mis(g, pred)), fmt(eta_bw_mis(g, pred)),
                     fmt(eta_hamming_mis(g, pred)), fmt(eta_sum_mis(g, pred))});
  }
}

void BM_ErrorMeasureComputation(benchmark::State& state) {
  Rng rng(9);
  Graph g = make_grid(static_cast<NodeId>(state.range(0)),
                      static_cast<NodeId>(state.range(0)));
  auto pred = perturbed_provider(10)->provide(g, ProblemKind::kMis, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eta1_mis(g, pred));
    benchmark::DoNotOptimize(eta_bw_mis(g, pred));
  }
}
BENCHMARK(BM_ErrorMeasureComputation)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  figure1_table();
  figure2_table();
  eta_comparison_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
