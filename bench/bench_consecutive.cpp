// E4 — Lemma 8: the Consecutive Template. Two instantiations:
//   * gather reference  (r(n) ∈ O(n), degradation-dominant regime)
//   * Linial reference  (r ∈ O(Δ² + log* d), robustness-dominant regime)
// The table reports rounds against the 2η + c degradation bound and the
// robustness cap, showing the crossover as error grows.
#include "bench_util.hpp"

#include "coloring/linial.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "mis/gather.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

void print_table() {
  banner("E4 (Lemma 8)",
         "Consecutive Template: consistent, 2*f(eta)-degrading, robust "
         "w.r.t. the plugged-in reference R. Small error -> the uniform "
         "algorithm wins (rounds ~ eta); large error -> capped near R's "
         "bound instead of degrading without limit.");
  Table table({"graph", "flips", "eta1", "gather_rds", "linial_rds",
               "2eta+5", "linial_cap", "valid"},
              12);
  table.print_header();
  Rng rng(21);
  // The grid's runs are independent, so the whole sweep is submitted to
  // one batch (two jobs per row) and printed from the ordered results.
  BatchRunner runner({default_batch_workers()});
  struct Row {
    NodeId n;
    int flips;
    int cap;
    Predictions pred;
  };
  std::vector<Row> rows;
  std::vector<Graph> graphs;
  graphs.reserve(2);
  for (NodeId n : {64, 128}) {
    Graph& g = graphs.emplace_back(make_line(n));
    sorted_ids(g);  // worst case for the uniform algorithm
    const std::uint64_t seed = rng.next();  // every level shares one base
    const int cap = kMisInitRounds +
                    2 * (linial_mis_total_rounds(g.id_bound(), g.max_degree()) +
                         kMisCleanupRounds) +
                    kMisCleanupRounds;
    for (int flips : {0, 2, 8, 32, n}) {
      const ProviderPtr provider =
          flips == n ? constant_provider(1) : perturbed_provider(flips);
      auto pred = provide_with_seed(*provider, g, ProblemKind::kMis, seed);
      runner.add(g, mis_consecutive_gather(), pred);
      runner.add(g, mis_consecutive_linial(), pred);
      rows.push_back({n, flips, cap, std::move(pred)});
    }
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const Graph& g = graphs[row.n == 64 ? 0 : 1];
    const RunResult& rg = results[2 * i];
    const RunResult& rl = results[2 * i + 1];
    const int e1 = eta1_mis(g, row.pred);
    const bool ok = is_valid_mis(g, rg.outputs) && is_valid_mis(g, rl.outputs);
    table.print_row({"sorted_line_" + fmt(row.n), fmt(row.flips), fmt(e1),
                     fmt(rg.rounds), fmt(rl.rounds), fmt(2 * e1 + 5),
                     fmt(row.cap), ok ? "yes" : "NO"});
  }
}

void BM_ConsecutiveGather(benchmark::State& state) {
  Rng rng(5);
  Graph g = make_grid(8, 8);
  randomize_ids(g, rng);
  const int errors = static_cast<int>(state.range(0));
  auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_with_predictions(g, pred, mis_consecutive_gather());
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_ConsecutiveGather)->Arg(0)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
