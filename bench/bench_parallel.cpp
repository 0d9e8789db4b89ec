// E6 — Lemma 11 / Corollary 12: the Parallel Template. Running Greedy MIS
// in parallel with the fault-tolerant Linial coloring gives
// min{η2 + 4, c + r1 + Δ + O(1)} WITHOUT the factor-2 loss of the
// Consecutive/Interleaved templates. The crossover as error grows is the
// headline shape.
#include "bench_util.hpp"

#include "coloring/linial.hpp"
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

void sweep(const std::string& name, Graph g, Rng& rng, Table& table,
           bool compute_eta2) {
  const std::uint64_t seed = rng.next();  // every level shares one base
  const int r1 = linial_total_rounds(g.id_bound(), g.max_degree());
  const int cap = 3 + r1 + 1 + g.max_degree() + 2 + 1;
  for (int flips : {0, 1, 2, 4, 8, 16, 64}) {
    if (flips > g.num_nodes()) break;
    auto pred = provide_with_seed(*perturbed_provider(flips), g,
                                  ProblemKind::kMis, seed);
    auto result = run_with_predictions(g, pred, mis_parallel_linial());
    const int e2 = compute_eta2 ? eta2_mis(g, pred) : -1;
    table.print_row(
        {name, fmt(flips), fmt(eta1_mis(g, pred)),
         e2 >= 0 ? fmt(e2) : std::string("-"), fmt(result.rounds),
         e2 >= 0 ? fmt(e2 + 4) : std::string("-"), fmt(cap),
         is_valid_mis(g, result.outputs) ? "yes" : "NO"});
  }
}

void print_table() {
  banner("E6 (Lemma 11 / Corollary 12)",
         "Parallel Template (Greedy MIS || Linial coloring -> MIS): rounds "
         "= min{eta2+4, O(Delta^2 + log* d)} — degradation WITHOUT the "
         "factor 2, robustness from the reference cap.");
  Table table({"graph", "flips", "eta1", "eta2", "rounds", "eta2+4",
               "robust_cap", "valid"},
              11);
  table.print_header();
  Rng rng(17);
  {
    Graph g = make_line(100);
    sorted_ids(g);
    sweep("sorted_line_100", std::move(g), rng, table, true);
  }
  {
    Graph g = make_grid(10, 10);
    randomize_ids(g, rng);
    sweep("grid_10x10", std::move(g), rng, table, true);
  }
  {
    Graph g = make_gnp(80, 0.06, rng);
    sweep("gnp_80", std::move(g), rng, table, true);
  }
}

void kw_table() {
  banner("E6b (reduction ablation)",
         "Corollary 12's reference cap with the classic O(Delta^2) class-"
         "by-class reduction vs the Kuhn-Wattenhofer O(Delta log Delta) "
         "block reduction, measured on adversarial predictions (pure "
         "robustness regime). Paper cites O(Delta + log* d); KW closes "
         "most of the gap.");
  Table table({"graph", "Delta", "cap_plain", "cap_kw", "rounds_plain",
               "rounds_kw"},
              13);
  table.print_header();
  Rng rng(23);
  for (int target_delta : {4, 8, 16}) {
    Graph g = make_gnp(60, target_delta / 60.0 * 1.1, rng);
    randomize_ids(g, rng);
    auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
    auto rp = run_with_predictions(g, pred, mis_parallel_linial());
    auto rk = run_with_predictions(g, pred, mis_parallel_linial_kw());
    table.print_row(
        {"gnp_60", fmt(g.max_degree()),
         fmt(linial_total_rounds(g.id_bound(), g.max_degree())),
         fmt(linial_total_rounds_kw(g.id_bound(), g.max_degree())),
         fmt(rp.rounds), fmt(rk.rounds)});
  }
  {
    Graph g = make_hypercube(6);  // Delta = 6, n = 64
    Rng rng2(3);
    randomize_ids(g, rng2);
    auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
    auto rp = run_with_predictions(g, pred, mis_parallel_linial());
    auto rk = run_with_predictions(g, pred, mis_parallel_linial_kw());
    table.print_row(
        {"hypercube6", fmt(g.max_degree()),
         fmt(linial_total_rounds(g.id_bound(), g.max_degree())),
         fmt(linial_total_rounds_kw(g.id_bound(), g.max_degree())),
         fmt(rp.rounds), fmt(rk.rounds)});
  }
}

void BM_ParallelVsGreedyWorstCase(benchmark::State& state) {
  Graph g = make_line(static_cast<NodeId>(state.range(0)));
  sorted_ids(g);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_with_predictions(g, pred, mis_parallel_linial());
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_ParallelVsGreedyWorstCase)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  kw_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
