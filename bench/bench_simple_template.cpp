// E3 — Observation 7: the Simple Template (MIS Initialization + Greedy
// MIS). Sweep the number of flipped prediction bits and report measured
// rounds against the η1 + 3 and η2 + 4 degradation bounds; consistency
// (3 rounds at zero error) falls out of the first row of each block.
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

void sweep(const std::string& name, Graph g, Rng& rng, Table& table) {
  const std::uint64_t seed = rng.next();  // every level shares one base
  for (int flips : {0, 1, 2, 4, 8, 16, 32}) {
    if (flips > g.num_nodes()) break;
    auto pred = provide_with_seed(*perturbed_provider(flips), g,
                                  ProblemKind::kMis, seed);
    auto result = run_with_predictions(g, pred, mis_simple_greedy());
    const int e1 = eta1_mis(g, pred);
    const int e2 = g.num_nodes() <= 128 ? eta2_mis(g, pred) : -1;
    table.print_row({name, fmt(flips), fmt(e1),
                     e2 >= 0 ? fmt(e2) : std::string("-"), fmt(result.rounds),
                     fmt(e1 + 3), e2 >= 0 ? fmt(e2 + 4) : std::string("-"),
                     is_valid_mis(g, result.outputs) ? "yes" : "NO"});
  }
}

void print_table() {
  banner("E3 (Observation 7)",
         "Simple Template (Init + Greedy MIS): consistency 3 at eta=0; "
         "rounds <= eta1+3 and <= eta2+4 as the prediction error grows.");
  Table table({"graph", "flips", "eta1", "eta2", "rounds", "eta1+3", "eta2+4",
               "valid"},
              10);
  table.print_header();
  Rng rng(7);
  {
    Graph g = make_line(96);
    randomize_ids(g, rng);
    sweep("line_96", std::move(g), rng, table);
  }
  {
    Graph g = make_grid(10, 10);
    randomize_ids(g, rng);
    sweep("grid_10x10", std::move(g), rng, table);
  }
  {
    Graph g = make_gnp(90, 0.08, rng);
    sweep("gnp_90", std::move(g), rng, table);
  }
  {
    Graph g = make_random_tree(100, rng);
    randomize_ids(g, rng);
    sweep("tree_100", std::move(g), rng, table);
  }
}

void BM_SimpleTemplate(benchmark::State& state) {
  Rng rng(11);
  Graph g = make_grid(10, 10);
  randomize_ids(g, rng);
  const int errors = static_cast<int>(state.range(0));
  auto pred = perturbed_provider(errors)->provide(g, ProblemKind::kMis, rng);
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_with_predictions(g, pred, mis_simple_greedy());
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds"] = rounds;
  state.counters["eta1"] = eta1_mis(g, pred);
}
BENCHMARK(BM_SimpleTemplate)->Arg(0)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
