// E5 — Lemma 9 / Corollary 10: the Interleaved Template with the
// phase-decomposed gather reference. The resulting algorithm terminates at
// min{~2η + c, c + 2Σr_i}: small errors finish during early U segments,
// adversarial errors are solved by a doubling-radius reference phase.
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

int reference_total(NodeId n) {
  int total = 0;
  int m = 1;
  while ((1 << m) < std::max<NodeId>(n - 1, 1)) ++m;
  for (int i = 1; i <= m; ++i) total += 1 << i;
  return total;
}

void print_table() {
  banner("E5 (Lemma 9 / Corollary 10)",
         "Interleaved Template: rounds <= c + 2*f(eta) while also capped by "
         "c + 2*sum(r_i). The doubling phase budgets mean good predictions "
         "exit in the first U segments.");
  Table table(
      {"graph", "flips", "eta1", "rounds", "2eta+7", "robust_cap", "valid"},
      12);
  table.print_header();
  Rng rng(31);
  for (NodeId n : {60, 120}) {
    Graph g = make_line(n);
    sorted_ids(g);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int flips : {0, 1, 4, 16, n}) {
      const ProviderPtr provider =
          flips == n ? constant_provider(0) : perturbed_provider(flips);
      auto pred = provide_with_seed(*provider, g, ProblemKind::kMis, seed);
      auto result = run_with_predictions(g, pred, mis_interleaved_gather());
      const int e1 = eta1_mis(g, pred);
      table.print_row({"sorted_line_" + fmt(n), fmt(flips), fmt(e1),
                       fmt(result.rounds), fmt(2 * std::max(e1, 2) + 7),
                       fmt(3 + 2 * reference_total(n) + 2),
                       is_valid_mis(g, result.outputs) ? "yes" : "NO"});
    }
  }
  {
    Graph g = make_grid(10, 10);
    randomize_ids(g, rng);
    const std::uint64_t seed = rng.next();  // every level shares one base
    for (int flips : {0, 4, 16, 64}) {
      auto pred = provide_with_seed(*perturbed_provider(flips), g,
                                    ProblemKind::kMis, seed);
      auto result = run_with_predictions(g, pred, mis_interleaved_gather());
      const int e1 = eta1_mis(g, pred);
      table.print_row({"grid_10x10", fmt(flips), fmt(e1), fmt(result.rounds),
                       fmt(2 * std::max(e1, 2) + 7),
                       fmt(3 + 2 * reference_total(100) + 2),
                       is_valid_mis(g, result.outputs) ? "yes" : "NO"});
    }
  }
}

void BM_Interleaved(benchmark::State& state) {
  Rng rng(3);
  Graph g = make_line(static_cast<NodeId>(state.range(0)));
  sorted_ids(g);
  auto pred = Predictions(std::vector<Value>(g.num_nodes(), 1));
  int rounds = 0;
  for (auto _ : state) {
    auto result = run_with_predictions(g, pred, mis_interleaved_gather());
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_Interleaved)->Arg(64)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
