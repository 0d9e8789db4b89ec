// E13 — CONGEST accounting (Section 2): which algorithms fit the
// O(log n)-bit message regime? The engine records the widest message each
// algorithm sends; Greedy MIS, Linial, GPS and the base/init algorithms
// are CONGEST-friendly (O(1) words), while the gather reference is a
// LOCAL-model algorithm whose messages grow with the component.
//
// The second half is the bandwidth-vs-rounds tradeoff the enforced link
// layer opens (CongestPolicy::kDefer): the same workload run under
// shrinking per-link word budgets needs more rounds — the curve must be
// monotone (more bandwidth never costs rounds). `--json` writes it to
// BENCH_congest.json; the sweep doubles as a smoke check and makes the
// binary exit nonzero if monotonicity is ever violated.
#include "bench_util.hpp"

#include "coloring/linial.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "mis/congest_global.hpp"
#include "mis/gather.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "tree/gps.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

void print_table() {
  banner("E13 (Section 2, LOCAL vs CONGEST)",
         "Max message width (words), total messages and words per "
         "algorithm on a 100-node random graph. One word = one id/color; "
         "width 1-2 is CONGEST-friendly.");
  Table table({"algorithm", "rounds", "max_width", "messages", "words"},
              16);
  table.print_header();
  Rng rng(4);
  Graph g = make_random_connected(100, 50, rng);
  auto pred = perturbed_provider(10)->provide(g, ProblemKind::kMis, rng);

  auto report = [&](const char* name, RunResult result) {
    table.print_row({name, fmt(result.rounds), fmt(result.max_message_words),
                     fmt(result.total_messages), fmt(result.total_words)});
  };
  report("greedy_mis", run_algorithm(g, greedy_mis_algorithm()));
  report("linial_coloring", run_algorithm(g, linial_coloring_algorithm()));
  report("mis_simple_greedy",
         run_with_predictions(g, pred, mis_simple_greedy()));
  report("mis_parallel_linial",
         run_with_predictions(g, pred, mis_parallel_linial()));
  report("mis_gather_LOCAL", run_algorithm(g, mis_gather_algorithm()));
  {
    // The CONGEST universal reference is O(n^2) rounds; demo on a smaller
    // instance so the table stays quick.
    Rng rng2(5);
    Graph small = make_random_connected(24, 12, rng2);
    report("congest_global_24", run_algorithm(small, congest_global_mis_algorithm()));
  }
  report("mis_interleaved",
         run_with_predictions(g, pred, mis_interleaved_gather()));
  {
    RootedTree t = make_rooted_random_tree(100, rng);
    randomize_ids(t.graph, rng);
    report("gps_tree_coloring",
           run_algorithm(t.graph, gps_coloring_algorithm(t)));
  }
}

// ---------------------------------------------------------------------------
// Bandwidth sweep (rounds vs per-link budget under CongestPolicy::kDefer).
// ---------------------------------------------------------------------------

/// A three-node relay line: the head streams kMessages 4-word messages
/// (one per round), the middle forwards each the round after it arrives,
/// and the tail terminates once it has them all. Under a B-word budget
/// each hop moves at most B words per round, so the completion round grows
/// like 2 * ceil(4 * kMessages / B) as B shrinks — a clean tradeoff curve.
class StreamRelayProgram final : public NodeProgram {
 public:
  static constexpr int kMessages = 16;

  void on_send(NodeContext& ctx) override {
    if (ctx.index() == 0 && ctx.round() <= kMessages) {
      const Value r = ctx.round();
      ctx.send(1, {r, r * 10, r * 100, r * 1000});
    } else if (ctx.index() == 1) {
      for (const auto& payload : to_forward_) ctx.send(2, payload);
      forwarded_ += static_cast<int>(to_forward_.size());
      to_forward_.clear();
    }
  }

  void on_receive(NodeContext& ctx) override {
    for (const Message& m : ctx.inbox()) {
      ++received_;
      if (ctx.index() == 1) {
        to_forward_.emplace_back(m.words.begin(), m.words.end());
      }
    }
    const bool done =
        (ctx.index() == 0 && ctx.round() >= kMessages) ||
        (ctx.index() == 1 && forwarded_ >= kMessages) ||
        (ctx.index() == 2 && received_ >= kMessages);
    if (done) {
      ctx.set_output(received_);
      ctx.terminate();
    }
  }

 private:
  std::vector<std::vector<Value>> to_forward_;
  int received_ = 0;
  int forwarded_ = 0;
};

struct SweepPoint {
  std::string workload;
  int budget;
  int nominal_rounds;  // unenforced round count of the same workload
  RunResult result;
};

/// Runs the two sweep workloads across their budget ladders; returns
/// false (and prints the offender) if rounds ever increase with budget.
bool bandwidth_sweep(bool json) {
  banner("CONGEST bandwidth sweep (link layer, defer policy)",
         "Rounds to completion under an enforced per-link word budget; "
         "nominal = unenforced round count. More bandwidth must never "
         "cost rounds (monotonicity is checked).");
  Table table({"workload", "budget", "rounds", "nominal", "defer_w",
               "backlog_pk", "bklg_rounds"},
              12);
  table.print_header();
  JsonRecorder out(json, "BENCH_congest.json");

  std::vector<SweepPoint> points;
  {
    Rng rng(6);
    Graph g = make_random_connected(16, 10, rng);
    randomize_ids(g, rng);
    const auto nominal = run_algorithm(g, congest_global_mis_algorithm());
    for (int budget : {1, 2, 4, 8}) {
      EngineOptions opt;
      opt.congest_policy = CongestPolicy::kDefer;
      opt.congest_word_limit = budget;
      points.push_back({"congest_global_mis_16", budget, nominal.rounds,
                        run_algorithm(g, congest_global_mis_algorithm(), opt)});
    }
  }
  {
    Graph g = make_line(3);
    const auto factory = [](NodeId) {
      return std::make_unique<StreamRelayProgram>();
    };
    const auto nominal = run_algorithm(g, factory);
    for (int budget : {1, 2, 4, 8, 16, 32, 64}) {
      EngineOptions opt;
      opt.congest_policy = CongestPolicy::kDefer;
      opt.congest_word_limit = budget;
      points.push_back({"stream_relay_64w", budget, nominal.rounds,
                        run_algorithm(g, factory, opt)});
    }
  }

  bool monotone = true;
  const std::string* prev_workload = nullptr;
  int prev_rounds = 0;
  for (const auto& p : points) {
    table.print_row({p.workload, fmt(p.budget), fmt(p.result.rounds),
                     fmt(p.nominal_rounds), fmt(p.result.deferred_words),
                     fmt(p.result.link_backlog_peak_words),
                     fmt(p.result.rounds_with_backlog)});
    out.begin_record();
    out.field("workload", p.workload);
    out.field("budget", p.budget);
    out.field("rounds", p.result.rounds);
    out.field("nominal_rounds", p.nominal_rounds);
    out.field("deferred_messages", p.result.deferred_messages);
    out.field("deferred_words", p.result.deferred_words);
    out.field("link_backlog_peak_words", p.result.link_backlog_peak_words);
    out.field("rounds_with_backlog", p.result.rounds_with_backlog);
    out.field("completed",
              static_cast<std::int64_t>(p.result.completed ? 1 : 0));
    if (!p.result.completed) {
      std::printf("ERROR: %s did not complete at budget %d\n",
                  p.workload.c_str(), p.budget);
      monotone = false;
    }
    if (prev_workload && *prev_workload == p.workload &&
        p.result.rounds > prev_rounds) {
      std::printf("ERROR: %s rounds increased from %d to %d when the "
                  "budget grew to %d\n",
                  p.workload.c_str(), prev_rounds, p.result.rounds, p.budget);
      monotone = false;
    }
    prev_workload = &p.workload;
    prev_rounds = p.result.rounds;
  }
  if (!out.finish()) monotone = false;
  return monotone;
}

void BM_MessageAccounting(benchmark::State& state) {
  Rng rng(8);
  Graph g = make_random_connected(static_cast<NodeId>(state.range(0)),
                                  state.range(0) / 2, rng);
  std::int64_t words = 0;
  for (auto _ : state) {
    auto result = run_algorithm(g, greedy_mis_algorithm());
    words = result.total_words;
    benchmark::DoNotOptimize(result.outputs.data());
  }
  state.counters["total_words"] = static_cast<double>(words);
}
BENCHMARK(BM_MessageAccounting)->Arg(100)->Arg(400);

}  // namespace

int main(int argc, char** argv) {
  const bool json = dgap::benchutil::take_json_flag(&argc, &argv[0]);
  print_table();
  const bool ok = bandwidth_sweep(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
