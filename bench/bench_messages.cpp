// Rounds vs messages under the message-reduction compiler pass
// (sim/compile.hpp). The paper's predictions buy *rounds*; this bench
// measures what the Bitton–Emek–Izumi–Kutten-style compile transforms buy
// in *message words* on the same runs — without changing a single round or
// output (suppressed messages are synthesized at the receiver, so the
// compiled run is byte-identical in behavior; compile_test carries the
// transcript witness, this bench carries the cost curves).
//
// Every row runs a workload twice — knobs off, knobs on — and hard-fails
// unless (a) rounds and outputs are identical, (b) the compiled run's
// physical words_sent <= the uncompiled total, and (c) the accounting
// identity sent + suppressed == uncompiled total holds exactly. `--json`
// writes BENCH_messages.json; CI re-asserts (b), (c) and the >=30%
// reduction floor from the artifact.
#include "bench_util.hpp"

#include <utility>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "matching/algorithms.hpp"
#include "mis/algorithms.hpp"
#include "mis/congest_global.hpp"
#include "predict/provider.hpp"
#include "random/luby.hpp"
#include "sim/compile.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

struct Workload {
  std::string name;
  std::string graph;
  const Graph* g = nullptr;
  const Predictions* pred = nullptr;  // nullptr: run without predictions
  ProgramFactory factory;
  CompileOptions compile;             // the knobs-on configuration
  std::string transforms;             // human/JSON label for the knobs
};

RunResult run_workload(const Workload& w, const CompileOptions& compile,
                       int threads = 1) {
  EngineOptions opt;
  opt.compile = compile;
  opt.num_threads = threads;
  if (w.pred != nullptr) {
    return run_with_predictions(*w.g, *w.pred, w.factory, opt);
  }
  return run_algorithm(*w.g, w.factory, opt);
}

bool sweep(bool json) {
  banner("Message-reduction compilation (PAPERS.md: \"a Free Lunch\")",
         "Each workload twice: compile knobs off vs on. Rounds and outputs "
         "must be identical; words_sent is the physical wire cost; "
         "sent + suppressed must equal the uncompiled total exactly.");
  Table table({"workload", "graph", "rounds", "words", "words_sent",
               "suppressed", "reduction%"},
              22);
  table.print_header();
  JsonRecorder out(json, "BENCH_messages.json");

  // Instances. Seeds fixed: every row is reproducible.
  Rng rng(21);
  Graph gnp64 = make_random_connected(64, 48, rng);
  Graph grid64 = make_grid(8, 8);
  randomize_ids(grid64, rng);
  Graph gnp100 = make_random_connected(100, 50, rng);
  Rng rng2(5);
  Graph gnp24 = make_random_connected(24, 12, rng2);

  const Predictions mis_pred =
      perturbed_provider(10)->provide(gnp100, ProblemKind::kMis, rng);
  // Matching predictions: everyone predicted unmatched — the init phase's
  // declared default dominates, the worst case for prediction quality and
  // the best case for silence-as-information.
  const Predictions matching_bot(std::vector<Value>(
      static_cast<std::size_t>(gnp100.num_nodes()), kNoNode));

  const CompileOptions cache{.cache_resends = true};
  const CompileOptions cache_defaults{.cache_resends = true,
                                      .decode_defaults = true};

  std::vector<Workload> workloads;
  workloads.push_back({"flood_min", "gnp64", &gnp64, nullptr,
                       flood_min_algorithm(), cache, "cache"});
  workloads.push_back({"flood_min", "grid8x8", &grid64, nullptr,
                       flood_min_algorithm(), cache, "cache"});
  workloads.push_back({"luby_mis", "gnp100", &gnp100, nullptr,
                       luby_mis_algorithm(7), cache, "cache"});
  workloads.push_back({"greedy_mis", "gnp100", &gnp100, nullptr,
                       greedy_mis_algorithm(), cache, "cache"});
  workloads.push_back({"greedy_matching", "gnp100", &gnp100, nullptr,
                       greedy_matching_algorithm(), cache, "cache"});
  workloads.push_back({"congest_global_mis", "gnp24", &gnp24, nullptr,
                       congest_global_mis_algorithm(), cache, "cache"});
  workloads.push_back({"mis_simple_greedy", "gnp100", &gnp100, &mis_pred,
                       mis_simple_greedy(), cache_defaults,
                       "cache+defaults"});
  workloads.push_back({"matching_simple_greedy", "gnp100", &gnp100,
                       &matching_bot, matching_simple_greedy(),
                       cache_defaults, "cache+defaults"});

  bool ok = true;
  int rows_over_30 = 0;
  for (const Workload& w : workloads) {
    const RunResult base = run_workload(w, CompileOptions{});
    const RunResult compiled = run_workload(w, w.compile);
    // The same compiled job sharded over 4 delivery threads: the resend
    // cache is keyed to receiver-shard ownership, so every counter of the
    // suppression split must come out exactly equal to the serial run's.
    const RunResult compiled4 = run_workload(w, w.compile, 4);

    const auto fail = [&](const std::string& what) {
      std::printf("ERROR: %s/%s (%s): %s\n", w.name.c_str(), w.graph.c_str(),
                  w.transforms.c_str(), what.c_str());
      ok = false;
    };
    if (compiled.rounds != base.rounds) fail("rounds changed");
    if (compiled.outputs != base.outputs) fail("node outputs changed");
    if (compiled.edge_outputs != base.edge_outputs) {
      fail("edge outputs changed");
    }
    if (compiled.total_words != base.total_words ||
        compiled.total_messages != base.total_messages) {
      fail("nominal totals changed under compilation");
    }
    if (compiled.words_sent + compiled.words_suppressed !=
            base.total_words ||
        compiled.messages_sent + compiled.messages_suppressed !=
            base.total_messages) {
      fail("sent + suppressed != uncompiled total");
    }
    if (compiled.words_sent > base.total_words) {
      fail("compiled sent more words than the uncompiled run");
    }
    if (base.messages_suppressed != 0 || base.words_suppressed != 0) {
      fail("knobs-off run suppressed messages");
    }
    if (compiled4.rounds != compiled.rounds ||
        compiled4.outputs != compiled.outputs ||
        compiled4.words_sent != compiled.words_sent ||
        compiled4.messages_sent != compiled.messages_sent ||
        compiled4.words_suppressed != compiled.words_suppressed ||
        compiled4.messages_suppressed != compiled.messages_suppressed) {
      fail("threads=4 compiled run diverged from serial");
    }

    const double reduction =
        base.total_words == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(base.total_words - compiled.words_sent) /
                  static_cast<double>(base.total_words);
    if (reduction >= 30.0) ++rows_over_30;
    table.print_row({w.name + "/" + w.transforms, w.graph,
                     fmt(compiled.rounds), fmt(compiled.total_words),
                     fmt(compiled.words_sent),
                     fmt(compiled.words_suppressed), fmt(reduction)});
    // One JSON row per (workload, thread count); CI re-asserts the
    // accounting identities over every row, so the threads-4 rows extend
    // the gate to delivery over four receiver shards.
    for (const auto& [threads, run] :
         {std::pair<int, const RunResult*>{1, &compiled},
          std::pair<int, const RunResult*>{4, &compiled4}}) {
      out.begin_record();
      out.field("workload", w.name);
      out.field("graph", w.graph);
      out.field("transforms", w.transforms);
      out.field("threads", threads);
      out.field("n", static_cast<std::int64_t>(w.g->num_nodes()));
      out.field("rounds", run->rounds);
      out.field("rounds_uncompiled", base.rounds);
      out.field("messages", base.total_messages);
      out.field("words", base.total_words);
      out.field("messages_sent", run->messages_sent);
      out.field("words_sent", run->words_sent);
      out.field("messages_suppressed", run->messages_suppressed);
      out.field("words_suppressed", run->words_suppressed);
      out.field("reduction_pct", reduction);
      out.field("outputs_identical", static_cast<std::int64_t>(
                                         run->outputs == base.outputs));
    }
  }
  if (rows_over_30 < 2) {
    std::printf("ERROR: only %d rows reached a 30%% word reduction "
                "(acceptance floor is 2)\n",
                rows_over_30);
    ok = false;
  }
  if (!out.finish()) ok = false;
  return ok;
}

// Wall-clock cost of the pass itself: the cache lookup rides the delivery
// walk (serial or receiver-sharded alike), so the interesting number is
// overhead when nothing is suppressible (greedy MIS, fresh payloads) vs
// savings when almost everything is (flood_min).
void BM_CompiledFloodMin(benchmark::State& state) {
  Rng rng(3);
  Graph g = make_random_connected(static_cast<NodeId>(state.range(0)),
                                  state.range(0) / 2, rng);
  EngineOptions opt;
  opt.compile.cache_resends = state.range(1) != 0;
  std::int64_t sent = 0;
  for (auto _ : state) {
    auto result = run_algorithm(g, flood_min_algorithm(), opt);
    sent = result.words_sent;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["words_sent"] = static_cast<double>(sent);
}
BENCHMARK(BM_CompiledFloodMin)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1});

}  // namespace

int main(int argc, char** argv) {
  const bool json = dgap::benchutil::take_json_flag(&argc, &argv[0]);
  const bool ok = sweep(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
