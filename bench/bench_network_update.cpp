// E12 — the Section 1.1 motivating scenario: an MIS was computed on one
// network; the network changes slightly (edges added/removed, same nodes);
// the stale solution is replayed as the prediction. Rounds as a function
// of churn, against computing from scratch (adversarial predictions).
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

// `g` is the current network; the prediction is an MIS of a copy of it
// with `churn` edges removed and `churn` added.
void sweep(const std::string& name, const Graph& g, Rng& rng, Table& table) {
  const auto scratch =
      run_with_predictions(g, Predictions(std::vector<Value>(g.num_nodes(), 0)),
                           mis_parallel_linial());
  for (int churn : {0, 1, 2, 4, 8, 16}) {
    auto pred = stale_graph_provider(churn, churn)->provide(
        g, ProblemKind::kMis, rng);
    auto result = run_with_predictions(g, pred, mis_parallel_linial());
    table.print_row({name, fmt(churn), fmt(eta1_mis(g, pred)),
                     fmt(result.rounds), fmt(scratch.rounds),
                     is_valid_mis(g, result.outputs) ? "yes" : "NO"});
  }
}

void print_table() {
  banner("E12 (Section 1.1 motivation)",
         "Reusing a stale MIS after the network changed: predictions from "
         "the old graph, algorithm = Parallel template. Low churn -> near-"
         "consistency rounds; 'scratch' = the same algorithm with useless "
         "predictions.");
  Table table(
      {"graph", "churn", "eta1", "rounds_stale", "rounds_scratch", "valid"},
      14);
  table.print_header();
  Rng rng(2026);
  {
    Graph g = make_random_connected(150, 60, rng);
    sweep("rand_150", g, rng, table);
  }
  {
    Graph g = make_grid(12, 12);
    randomize_ids(g, rng);
    sweep("grid_12x12", g, rng, table);
  }
  {
    Graph g = make_gnp(120, 0.04, rng);
    sweep("gnp_120", g, rng, table);
  }
}

void BM_NetworkUpdate(benchmark::State& state) {
  Rng rng(5);
  Graph g = make_random_connected(200, 80, rng);
  const int churn = static_cast<int>(state.range(0));
  auto pred =
      stale_graph_provider(churn, churn)->provide(g, ProblemKind::kMis, rng);
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_with_predictions(g, pred, mis_parallel_linial());
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds"] = rounds;
  state.counters["eta1"] = eta1_mis(g, pred);
}
BENCHMARK(BM_NetworkUpdate)->Arg(0)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
