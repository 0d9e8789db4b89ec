// E-LEARNED — closing the prediction loop (DESIGN.md, provider layer).
//
// The paper treats predictions as given; this bench manufactures them.
// A dependency-free logistic model (predict/learned.hpp) is trained on
// one graph's staleness sweep, then serves predictions on a DIFFERENT
// serving instance through the same PredictionProvider interface as
// every synthetic source. Per problem {MIS, matching, coloring} the
// serving scenario is one churn step: a correct solution on a stale
// snapshot is the prior, and four providers compete on the current graph:
//   exact       — oracle floor (η = 0);
//   neutral     — no-information baseline (η = giant component: every
//                 node stays active under the base algorithm);
//   warm_start  — the hand-written epoch adapter repairing the prior;
//   learned     — the trained model deciding per node whether to trust
//                 the prior, from 1-hop features alone.
// Hard checks (nonzero exit, re-asserted from BENCH_learned.json by CI):
//   * every provider's template run is valid and its rounds are within
//     the problem's degradation bound at the MEASURED η — the paper's
//     guarantee holds at any prediction, learned ones included;
//   * learned η is strictly below neutral η on all three problems — the
//     model beats knowing nothing, so the loop actually closes.
#include "bench_util.hpp"

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/edits.hpp"
#include "predict/learned.hpp"
#include "sim/engine.hpp"
#include "templates/epoch_problems.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

// Training instance (the committed dgap_fit corpus family) and the
// disjoint serving instance — train/serve split across graphs.
Graph training_graph() { return GraphSpec::gnp(64, 0.05, 77).build(); }
Graph serving_graph() { return GraphSpec::gnp(96, 0.05, 505).build(); }

LearnedModel train_model() {
  const Graph g = training_graph();
  const int n = g.num_nodes();
  const std::vector<int> levels{0, n / 16, n / 4, n};
  LearnedModel model;
  for (ProblemKind kind : {ProblemKind::kMis, ProblemKind::kMatching,
                           ProblemKind::kColoring}) {
    fit_logistic(model, kind, stale_training_corpus(g, kind, levels, 71),
                 400, 0.5);
  }
  return model;
}

EpochProblem problem_of(int p) {
  switch (p) {
    case 0: return epoch_mis();
    case 1: return epoch_matching();
    default: return epoch_coloring();
  }
}

bool run_all(bool json) {
  banner("LEARNED",
         "A trained logistic provider vs the synthetic sources, one churn "
         "step per problem. `eta` is measured on the served prediction; "
         "`bound` is the problem's degradation bound at that eta — rounds "
         "must stay within it (hard check), and the learned provider's "
         "eta must be strictly below neutral's (hard check).");
  Table table({"problem", "provider", "eta", "rounds", "bound", "valid"},
              13);
  table.print_header();
  JsonRecorder out(json, "BENCH_learned.json");
  const LearnedModel model = train_model();
  bool ok = true;

  static const char* names[] = {"mis", "matching", "coloring"};
  for (int p = 0; p < 3; ++p) {
    const EpochProblem problem = problem_of(p);
    const Graph g = serving_graph();
    // One churn step: the prior is a correct solution on a stale snapshot
    // of the serving graph (same node set, edited edges).
    Rng churn_rng(606);
    const Graph stale = perturb_edges(g, 12, 12, churn_rng);
    const std::vector<Value> prior =
        provide_with_seed(*exact_provider(), stale, problem.kind, 707)
            .node_values();

    int neutral_eta = -1, learned_eta = -1;
    for (ProviderPtr src :
         {exact_provider(), neutral_provider(),
          warm_start_provider(stale, prior), learned_provider(model, prior)}) {
      const Predictions pred =
          provide_with_seed(*src, g, problem.kind, 808);
      const int eta = problem.eta(g, pred);
      const RunResult result =
          run_with_predictions(g, pred, problem.factory());
      const int bound = problem.degradation_bound(eta, g);
      const std::string error = problem.check(g, result);
      const bool row_ok =
          error.empty() && result.completed && result.rounds <= bound;
      ok = ok && row_ok;
      if (!row_ok) {
        std::fprintf(stderr, "FATAL: %s/%s invalid or out of bound: %s\n",
                     problem.name.c_str(), src->name().c_str(),
                     error.empty() ? "rounds exceed bound" : error.c_str());
      }
      if (src->name() == "neutral") neutral_eta = eta;
      if (src->name().rfind("learned", 0) == 0) learned_eta = eta;
      table.print_row({names[p], src->name(), fmt(eta),
                       fmt(result.rounds), fmt(bound),
                       row_ok ? "yes" : "NO"});
      out.begin_record();
      out.field("problem", names[p]);
      out.field("provider", src->name());
      out.field("eta", eta);
      out.field("rounds", result.rounds);
      out.field("degradation_bound", bound);
      out.field("within_bound",
                static_cast<std::int64_t>(result.rounds <= bound));
      out.field("valid", static_cast<std::int64_t>(error.empty()));
    }
    // The loop-closing inequality: the model must beat knowing nothing.
    if (!(learned_eta >= 0 && neutral_eta >= 0 &&
          learned_eta < neutral_eta)) {
      std::fprintf(stderr,
                   "FATAL: %s learned eta %d does not beat neutral eta %d\n",
                   problem.name.c_str(), learned_eta, neutral_eta);
      ok = false;
    }
  }

  out.finish();
  if (!ok) std::fprintf(stderr, "FATAL: learned bench self-check failed\n");
  return ok;
}

void BM_LearnedProvide(benchmark::State& state) {
  const LearnedModel model = train_model();
  const Graph g = serving_graph();
  Rng churn_rng(606);
  const Graph stale = perturb_edges(g, 12, 12, churn_rng);
  const std::vector<Value> prior =
      provide_with_seed(*exact_provider(), stale, ProblemKind::kMis, 707)
          .node_values();
  const ProviderPtr provider = learned_provider(model, prior);
  for (auto _ : state) {
    Predictions pred = provide_with_seed(*provider, g, ProblemKind::kMis, 808);
    benchmark::DoNotOptimize(pred.node_values().data());
  }
  state.counters["n"] = g.num_nodes();
}
BENCHMARK(BM_LearnedProvide);

}  // namespace

int main(int argc, char** argv) {
  const bool json = dgap::benchutil::take_json_flag(&argc, &argv[0]);
  const bool ok = run_all(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
