// E9 — Section 9.2 / Corollary 15: MIS with predictions on rooted trees.
// Reports η_t ≤ η_bw ≤ η1, the Simple(TreeInit, Algorithm 6) rounds vs
// ⌈η_t/2⌉ + 5, and the Parallel(TreeInit, Alg6, GPS→MIS) rounds vs
// min{⌈η_t/2⌉ + 5, O(log* d)}.
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "tree/gps.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

void sweep(const std::string& name, const RootedTree& t, Rng& rng,
           Table& table) {
  const std::uint64_t seed = rng.next();  // every level shares one base
  const int cap = 4 + gps_total_rounds(t.graph.id_bound()) + 1 + 2 + 1;
  for (int flips : {0, 2, 8, 32, static_cast<int>(t.graph.num_nodes())}) {
    if (flips > t.graph.num_nodes()) break;
    const ProviderPtr provider = flips == t.graph.num_nodes()
                                     ? constant_provider(0)
                                     : perturbed_provider(flips);
    auto pred = provide_with_seed(*provider, t.graph, ProblemKind::kMis, seed);
    auto simple = run_with_predictions(t.graph, pred, tree_mis_simple(t));
    auto parallel = run_with_predictions(t.graph, pred, tree_mis_parallel(t));
    const int et = eta_t_mis(t, pred);
    const bool ok = is_valid_mis(t.graph, simple.outputs) &&
                    is_valid_mis(t.graph, parallel.outputs);
    table.print_row({name, fmt(flips), fmt(eta1_mis(t.graph, pred)),
                     fmt(eta_bw_mis(t.graph, pred)), fmt(et),
                     fmt(simple.rounds), fmt(parallel.rounds),
                     fmt((et + 1) / 2 + 5), fmt(cap), ok ? "yes" : "NO"});
  }
}

void print_table() {
  banner("E9 (Section 9.2 / Corollary 15)",
         "Rooted trees: eta_t <= eta_bw <= eta1; Simple(TreeInit, Alg.6) "
         "<= ceil(eta_t/2)+5; Parallel adds the GPS O(log* d) cap.");
  Table table({"tree", "flips", "eta1", "eta_bw", "eta_t", "simple",
               "parallel", "etat_bnd", "gps_cap", "valid"},
              10);
  table.print_header();
  Rng rng(13);
  {
    RootedTree t = make_rooted_line(120);
    sweep("dline_120", t, rng, table);
  }
  {
    RootedTree t = make_rooted_binary_tree(7);
    randomize_ids(t.graph, rng);
    sweep("binary_h7", t, rng, table);
  }
  {
    RootedTree t = make_rooted_random_tree(150, rng);
    randomize_ids(t.graph, rng);
    sweep("random_150", t, rng, table);
  }
  {
    RootedTree t = make_rooted_kary_tree(4, 4);
    randomize_ids(t.graph, rng);
    sweep("4ary_4lvl", t, rng, table);
  }

  banner("E9b (Section 9.2 example)",
         "Directed line, white every third node: the base algorithm "
         "decides nothing (eta1 = n) but the Rooted Tree Initialization "
         "finishes by round 3 (eta_t = 2).");
  Table ex({"n", "eta1", "eta_t", "simple_rounds", "parallel_rounds"});
  ex.print_header();
  for (NodeId k : {10, 40, 100}) {
    RootedTree t = make_rooted_line(3 * k);
    std::vector<Value> x(static_cast<std::size_t>(3 * k), 1);
    for (NodeId v = 0; v < 3 * k; v += 3) x[v] = 0;
    Predictions pred{x};
    auto simple = run_with_predictions(t.graph, pred, tree_mis_simple(t));
    auto parallel = run_with_predictions(t.graph, pred, tree_mis_parallel(t));
    ex.print_row({fmt(3 * k), fmt(eta1_mis(t.graph, pred)),
                  fmt(eta_t_mis(t, pred)), fmt(simple.rounds),
                  fmt(parallel.rounds)});
  }
}

void BM_TreeParallel(benchmark::State& state) {
  Rng rng(7);
  RootedTree t =
      make_rooted_random_tree(static_cast<NodeId>(state.range(0)), rng);
  randomize_ids(t.graph, rng);
  // Adversarial.
  auto pred = Predictions(std::vector<Value>(t.graph.num_nodes(), 0));
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_with_predictions(t.graph, pred, tree_mis_parallel(t));
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_TreeParallel)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
