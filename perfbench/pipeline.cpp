// Pipeline benchmark driver.
//
// Runs the dgap job pipeline
//
//   GraphSpec -> Graph build -> PredictionProvider::provide -> engine run
//   -> checker + eta -> transcript / ResultCache
//
// from outside the library, through public calls only, on one of three
// closed-loop workloads (see perfbench/README.md for why each exists):
//
//   scale_gnm_1m    one 10^6-node gnm instance, mis_simple_greedy at
//                   2 engine threads;
//   template_sweep  the {MIS, matching, coloring} x {Simple, Parallel} x
//                   {exact, perturbed low/high, neutral} grid on a 2-worker
//                   BatchRunner, one spec's grid per closed-loop step;
//   churn_epochs    EpochHarness(epoch_mis()) over a churning gnp_sparse
//                   graph: a cold pass, then a replay served by the cache.
//
// Every workload repeats "cold solve, then replay of the same jobs through
// the ResultCache" until --seconds have elapsed, checks every output, and
// prints raw samples as one JSON line; perfbench/run.py turns them into the
// benchmark's metrics. With --trace 1 every second repetition is traced:
// spans around each public call (plus engine phase spans rebuilt from
// RunResult::phase_ns) are kept in memory and written to --spans at exit.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "graph/edits.hpp"
#include "graph/spec.hpp"
#include "predict/provider.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/epoch.hpp"
#include "sim/result_cache.hpp"
#include "sim/thread_pool.hpp"
#include "sim/transcript.hpp"
#include "templates/epoch_problems.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"

namespace {

using namespace dgap;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

// ---- Spans -------------------------------------------------------------

// One timed interval. The layer is the name's prefix before the first '.'
// ("engine.send" belongs to engine); root spans (solve, replay, setup,
// probe) delimit what a repetition measured. Counts recorded at the same
// boundary ride along as attributes.
struct Span {
  const char* name;
  int parent;
  int rep;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::vector<std::pair<const char*, double>> attrs;
};

// In-memory span recorder. When off, every call is a no-op returning -1,
// so untraced repetitions pay one branch per boundary.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }
  void set_rep(int rep) { rep_ = rep; }

  int open(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, rep_, now_ns(), -1, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  // A span whose interval was measured elsewhere (inside the engine, or
  // by callbacks the library invokes), attached under `parent`.
  int add(const char* name, int parent, std::int64_t start,
          std::int64_t end) {
    if (!on_) return -1;
    spans_.push_back({name, parent, rep_, start, end, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_end(int id, std::int64_t end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = end;
  }
  void attr(int id, const char* key, double value) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].attrs.push_back({key, value});
  }
  std::int64_t start_of(int id) const {
    return spans_[static_cast<std::size_t>(id)].start_ns;
  }

  bool write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{" << header << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"rep\": " << s.rep
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"attrs\": {";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g", s.attrs[a].second);
        out << (a ? ", " : "") << "\"" << s.attrs[a].first << "\": " << value;
      }
      out << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_ = false;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer tracer;

class Scope {
 public:
  explicit Scope(const char* name) : id_(tracer.open(name)) {}
  ~Scope() { tracer.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// Engine spans rebuilt from what the engine measured itself: the run's
// wall time and, when profiling, its per-phase split laid end to end from
// the run's start (phase spans never overlap, and their sum never exceeds
// wall_ms, so self time stays non-negative).
void add_engine_spans(int parent, std::int64_t start, const RunResult& r) {
  if (!tracer.on()) return;
  const auto wall = static_cast<std::int64_t>(r.wall_ms * 1e6);
  const int id = tracer.add("engine.run", parent, start, start + wall);
  tracer.attr(id, "rounds", r.rounds);
  tracer.attr(id, "messages", static_cast<double>(r.total_messages));
  tracer.attr(id, "words_sent", static_cast<double>(r.words_sent));
  const std::pair<const char*, std::int64_t> phases[] = {
      {"engine.send", r.phase_ns.send_ns},
      {"engine.scatter", r.phase_ns.scatter_ns},
      {"engine.trace", r.phase_ns.trace_ns},
      {"engine.receive", r.phase_ns.receive_ns},
      {"engine.mutate", r.phase_ns.mutate_ns}};
  std::int64_t at = start;
  for (const auto& [name, ns] : phases) {
    if (ns <= 0) continue;
    tracer.add(name, id, at, at + ns);
    at += ns;
  }
}

// ---- Checking ----------------------------------------------------------

// A problem of the consistency/robustness grid: the Simple-template package
// (factory, eta, degradation bound, checker) plus the Parallel template and
// the consistency constant both templates meet on exact predictions
// (docs/ALGORITHMS.md).
struct GridProblem {
  EpochProblem simple;
  ProgramFactory (*parallel)();
  int consistency;
};

std::vector<GridProblem> grid_problems() {
  return {{epoch_mis(), &mis_parallel_linial, 3},
          {epoch_matching(), &matching_parallel_linegraph, 2},
          {epoch_coloring(), &coloring_parallel_linial, 2}};
}

// Corrupts one output the way every checker must notice: node v copies the
// output of a neighbor whose output differs (MIS: two adjacent 1s or an
// uncovered 0; matching: an asymmetric partner; coloring: a clash).
void corrupt_outputs(const Graph& g, std::vector<Value>& outputs) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (outputs[v] != outputs[u]) {
        outputs[v] = outputs[u];
        return;
      }
    }
  }
}

// Joins message pieces by appending. (operator+ with a literal on the left
// inserts at the front, which GCC 12 at -O3 misreads as an overlapping
// copy and reports under -Wrestrict.)
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) out.append(part);
  return out;
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  bool corrupt = false;  // --corrupt: damage the first output checked
  bool corrupted = false;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

Tally tally;

// Validity, then the paper's guarantees: Simple-template runs within the
// degradation bound at the measured eta, exact-prediction runs within the
// consistency constant. Returns the first violation, or "" if none.
std::string verify_run(const EpochProblem& p, const Graph& g,
                       const RunResult& r, int eta, bool simple,
                       int consistency) {
  if (!r.completed) return "run did not complete";
  std::string error;
  if (tally.corrupt && !tally.corrupted) {
    tally.corrupted = true;
    RunResult damaged = r;
    corrupt_outputs(g, damaged.outputs);
    error = p.check(g, damaged);
  } else {
    error = p.check(g, r);
  }
  if (!error.empty()) return error;
  if (simple && r.rounds > p.degradation_bound(eta, g)) {
    return cat({"rounds ", std::to_string(r.rounds),
                " exceed the degradation bound at eta ", std::to_string(eta)});
  }
  if (consistency > 0 && r.rounds > consistency) {
    return cat({"rounds ", std::to_string(r.rounds),
                " exceed the consistency constant"});
  }
  return {};
}

// Counts one checked job; a violation is recorded under the job's name.
void record_check(const std::string& error,
                  std::initializer_list<std::string_view> job) {
  ++tally.attempted;
  if (!error.empty()) tally.fail(cat({cat(job), ": ", error}));
}

// ---- Samples -----------------------------------------------------------

// What one workload run measured: per-repetition timings, the counts of one
// pass (which must repeat exactly), and the pass's result checksum (which
// every repetition and every replay must reproduce).
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> solve_s;         // untraced repetitions
  std::vector<double> solve_traced_s;  // traced repetitions
  std::vector<double> replay_s;
  std::vector<double> step_ms;  // closed-loop step latencies, untraced
  std::int64_t jobs = -1;
  std::int64_t messages = -1;
  std::int64_t rounds = -1;
  std::int64_t words_sent = -1;
  std::uint64_t checksum = 0;
  bool have_checksum = false;
  int threads = 1;
  int workers = 0;

  // Per-pass counts and checksum: the first pass sets them, every later
  // pass (and replay) must match them exactly.
  void pass_counts(std::int64_t j, std::int64_t m, std::int64_t r,
                   std::int64_t w) {
    if (jobs < 0) {
      jobs = j, messages = m, rounds = r, words_sent = w;
    } else if (j != jobs || m != messages || r != rounds || w != words_sent) {
      tally.fail("pass counts differ between repetitions");
    }
  }
  void pass_checksum(std::uint64_t c, const char* what) {
    if (!have_checksum) {
      checksum = c;
      have_checksum = true;
    } else if (c != checksum) {
      tally.fail(std::string(what) + " checksum differs from the first pass");
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string spans_path;
};

// Repetitions run until --seconds have elapsed, but at least `min_reps`
// times untraced (twice when tracing, so one traced and one untraced
// repetition exist).
class RepClock {
 public:
  explicit RepClock(const Options& o, int min_reps = 1)
      : start_(now_ns()), seconds_(o.seconds),
        min_reps_(o.trace ? 2 : min_reps), trace_(o.trace) {}
  bool more(int rep) const {
    return rep < min_reps_ || seconds_between(start_, now_ns()) < seconds_;
  }
  // Traced runs alternate untraced and traced repetitions; the untraced
  // ones give the baseline the tracing overhead is measured against.
  bool traced(int rep) const { return trace_ && rep % 2 == 1; }

 private:
  std::int64_t start_;
  double seconds_;
  int min_reps_;
  bool trace_;
};

// Set-ups of a few milliseconds are easily swayed by a burst of host load,
// so workloads with cheap set-ups measure more of them after every pass
// besides those made before the first repetition; setup_s is the median
// of all of them.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsPerPass = 8;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void begin_rep(int rep, bool traced) {
  tracer.enable(traced);
  tracer.set_rep(rep);
}

void add_solve(Samples& s, bool traced, std::int64_t t0, std::int64_t t1) {
  (traced ? s.solve_traced_s : s.solve_s).push_back(seconds_between(t0, t1));
}

// ---- scale_gnm_1m --------------------------------------------------------

Samples run_scale(const Options& o) {
  Samples s;
  s.threads = 2;
  const std::int64_t n = o.tiny ? 2000 : 1'000'000;
  const GraphSpec spec =
      GraphSpec::gnm(n, 4 * n, o.seed, GraphSpec::IdPolicy::kRandomized);
  const ProviderPtr provider = perturbed_provider(o.tiny ? 20 : 2000);
  const EpochProblem mis = epoch_mis();
  const std::uint64_t provider_seed = o.seed * 7919 + 1;

  // Set-up: instance construction, repeated for a median; the last build
  // is the instance.
  std::optional<Graph> graph;
  for (int rep = 0; rep < 3; ++rep) {
    begin_rep(rep, o.trace);
    graph.reset();
    Scope root("setup");
    const std::int64_t t0 = now_ns();
    {
      Scope build("graph.build");
      graph.emplace(spec.build());
      tracer.attr(build.id(), "edges", static_cast<double>(graph->num_edges()));
    }
    s.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  const Graph& g = *graph;
  ThreadPool pool(s.threads);
  ResultCache cache;

  const RepClock clock(o);
  for (int rep = 0; clock.more(rep); ++rep) {
    const bool traced = clock.traced(rep);
    begin_rep(rep, traced);
    EngineOptions options;
    options.num_threads = s.threads;
    options.profile_phases = traced;
    const std::uint64_t key = result_cache_key(
        spec_digest(spec), mis.name,
        provider_slot_digest(*provider, mis.kind, provider_seed),
        options_digest(options));
    cache.clear();

    // One pass of the pipeline; `replay` finds the result in the cache.
    auto pass = [&](bool replay) {
      Predictions pred;
      {
        Scope sp("predict.provide");
        pred = provide_with_seed(*provider, g, mis.kind, provider_seed);
      }
      int eta = 0;
      {
        Scope sp("predict.eta");
        eta = mis.eta(g, pred);
      }
      std::shared_ptr<const ResultCache::Entry> hit;
      {
        Scope sp("cache.get");
        hit = cache.get(key);
        tracer.attr(sp.id(), hit ? "hits" : "misses", 1);
      }
      RunResult fresh;
      if (!hit) {
        if (replay) tally.fail("replay missed the result cache");
        {
          Scope sp("engine.job");
          const std::int64_t t0 = now_ns();
          Engine engine(g, pred, mis.factory(), options, &pool);
          fresh = engine.run();
          add_engine_spans(sp.id(), t0, fresh);
        }
        Scope sp("cache.put");
        cache.put(key, fresh);
      }
      const RunResult& r = hit ? hit->result : fresh;
      {
        Scope sp("check");
        record_check(verify_run(mis, g, r, eta, true, 0), {"scale_gnm_1m"});
      }
      const RunResult* rp = &r;
      s.pass_checksum(results_checksum({rp, 1}), replay ? "replay" : "solve");
      s.pass_counts(1, r.total_messages, r.rounds, r.words_sent);
    };

    std::int64_t t0 = now_ns();
    {
      Scope root("solve");
      pass(false);
    }
    const std::int64_t t1 = now_ns();
    add_solve(s, traced, t0, t1);
    if (!traced) s.step_ms.push_back(seconds_between(t0, t1) * 1e3);
    t0 = now_ns();
    {
      Scope root("replay");
      pass(true);
    }
    if (!traced) s.replay_s.push_back(seconds_between(t0, now_ns()));
  }
  return s;
}

// ---- template_sweep -------------------------------------------------------

struct SweepProvider {
  ProviderPtr provider;
  bool exact;
};

Samples run_sweep(const Options& o) {
  Samples s;
  s.workers = 2;
  const std::int64_t n = o.tiny ? 128 : 4096;
  const int num_specs = o.tiny ? 2 : 16;
  std::vector<GraphSpec> specs;
  for (int k = 0; k < num_specs; ++k) {
    specs.push_back(GraphSpec::gnp_sparse(n, 8.0 / static_cast<double>(n),
                                          o.seed * 1000 + static_cast<std::uint64_t>(k),
                                          GraphSpec::IdPolicy::kRandomized));
  }
  const std::vector<SweepProvider> providers = {
      {exact_provider(), true},
      {perturbed_provider(o.tiny ? 2 : 16), false},
      {perturbed_provider(o.tiny ? 16 : 256), false},
      {neutral_provider(), false}};
  const std::vector<GridProblem> problems = grid_problems();

  // Set-up: a 2-worker runner with every spec resolved through its graph
  // cache. The last set-up before the first repetition serves the
  // workload; the ones after each pass are thrown away.
  using Graphs = std::vector<std::shared_ptr<const Graph>>;
  auto set_up = [&](std::unique_ptr<BatchRunner>& r, Graphs& gs) {
    gs.clear();
    r.reset();
    Scope root("setup");
    const std::int64_t t0 = now_ns();
    r = std::make_unique<BatchRunner>(BatchOptions{s.workers});
    for (const GraphSpec& spec : specs) {
      Scope build("graph.build");
      gs.push_back(r->graph_cache().get(spec));
      tracer.attr(build.id(), "edges",
                  static_cast<double>(gs.back()->num_edges()));
    }
    s.setup_s.push_back(seconds_between(t0, now_ns()));
  };
  auto more_setups = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      std::unique_ptr<BatchRunner> r;
      Graphs gs;
      set_up(r, gs);
    }
  };
  std::unique_ptr<BatchRunner> runner;
  Graphs graphs;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    begin_rep(rep, o.trace);
    set_up(runner, graphs);
  }

  struct JobInfo {
    const GridProblem* problem;
    int eta;
    bool simple;
    bool exact;
  };

  // One closed-loop step: one spec's 24-job grid, submitted as a batch and
  // checked; the next step is submitted only after this one returns.
  auto step = [&](std::size_t k, std::vector<RunResult>& pass_results) {
    const Graph& g = *graphs[k];
    EngineOptions options;
    options.profile_phases = tracer.on();
    std::vector<JobInfo> infos;
    std::uint64_t pseed = specs[k].seed * 16;
    for (const GridProblem& p : problems) {
      for (const SweepProvider& src : providers) {
        Predictions pred;
        {
          Scope sp("predict.provide");
          pred = provide_with_seed(*src.provider, g, p.simple.kind, ++pseed);
        }
        int eta = 0;
        {
          Scope sp("predict.eta");
          eta = p.simple.eta(g, pred);
        }
        if (src.exact && eta != 0) {
          tally.fail(cat({"exact provider gave eta ", std::to_string(eta)}));
        }
        for (bool simple : {true, false}) {
          BatchJob job = make_job(specs[k],
                                  simple ? p.simple.factory() : p.parallel(),
                                  pred, options);
          job.algorithm_id = simple ? p.simple.name
                                    : p.simple.name + "/parallel";
          runner->add(std::move(job));
          infos.push_back({&p, eta, simple, src.exact});
        }
      }
    }
    std::vector<BatchResult> results;
    {
      Scope sp("batch.run_all");
      const std::int64_t t0 = now_ns();
      const std::int64_t hits0 = runner->result_cache().hits();
      const std::int64_t misses0 = runner->result_cache().misses();
      results = runner->run_all();
      tracer.attr(sp.id(), "workers", s.workers);
      tracer.attr(sp.id(), "hits",
                  static_cast<double>(runner->result_cache().hits() - hits0));
      tracer.attr(sp.id(), "misses", static_cast<double>(
                                         runner->result_cache().misses() -
                                         misses0));
      // Jobs are pulled in submission order by whichever worker is free;
      // lay the executed runs out on that schedule.
      std::vector<std::int64_t> lane_free(static_cast<std::size_t>(s.workers),
                                          t0);
      for (const BatchResult& b : results) {
        if (!b.ok || b.cache_hit) continue;
        auto lane = std::min_element(lane_free.begin(), lane_free.end());
        add_engine_spans(sp.id(), *lane, b.result);
        *lane += static_cast<std::int64_t>(b.result.wall_ms * 1e6);
      }
    }
    Scope sp("check");
    for (std::size_t j = 0; j < results.size(); ++j) {
      const JobInfo& info = infos[j];
      record_check(
          results[j].ok
              ? verify_run(info.problem->simple, g, results[j].result,
                           info.eta, info.simple,
                           info.exact ? info.problem->consistency : 0)
              : cat({"threw: ", results[j].error}),
          {"template_sweep/", info.problem->simple.name,
           info.simple ? "/simple" : "/parallel"});
      if (results[j].ok) pass_results.push_back(std::move(results[j].result));
    }
  };

  auto pass = [&](bool replay, bool traced) {
    std::vector<RunResult> results;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const std::int64_t t0 = now_ns();
      step(k, results);
      if (!replay && !traced) {
        s.step_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
      }
    }
    std::int64_t messages = 0, rounds = 0, words = 0;
    for (const RunResult& r : results) {
      messages += r.total_messages;
      rounds += r.rounds;
      words += r.words_sent;
    }
    s.pass_counts(static_cast<std::int64_t>(results.size()), messages, rounds,
                  words);
    s.pass_checksum(results_checksum(results), replay ? "replay" : "solve");
  };

  const RepClock clock(o);
  for (int rep = 0; clock.more(rep); ++rep) {
    const bool traced = clock.traced(rep);
    begin_rep(rep, traced);
    runner->result_cache().clear();
    std::int64_t t0 = now_ns();
    {
      Scope root("solve");
      pass(false, traced);
    }
    add_solve(s, traced, t0, now_ns());
    more_setups();
    t0 = now_ns();
    {
      Scope root("replay");
      pass(true, traced);
    }
    if (!traced) s.replay_s.push_back(seconds_between(t0, now_ns()));
    more_setups();
  }
  return s;
}


// ---- churn_epochs ---------------------------------------------------------

// Sees the harness's stream through the problem package it is handed: the
// harness calls eta once per epoch (after the edits and the warm-start
// prediction) and, with no control run configured, check once after the
// epoch's batch. Those calls delimit each epoch from outside: the interval
// before eta is the harness's own work (edits, warm start), the interval
// from eta to check is the batch, and the epoch ends when check returns.
class EpochObserver {
 public:
  explicit EpochObserver(EpochProblem base) : base_(std::move(base)) {}

  EpochObserver(const EpochObserver&) = delete;
  EpochObserver& operator=(const EpochObserver&) = delete;

  // The package to hand the harness; it calls back into this observer,
  // which must outlive the harness.
  EpochProblem wrapped() {
    EpochProblem p = base_;
    p.eta = [this](const Graph& g, const Predictions& pred) {
      const std::int64_t t0 = now_ns();
      epoch_span_ = tracer.add("epoch", parent_, epoch_start_, t0);
      last_eta_ = base_.eta(g, pred);
      batch_start_ = now_ns();
      tracer.add("predict.eta", epoch_span_, t0, batch_start_);
      return last_eta_;
    };
    p.check = [this](const Graph& g, const RunResult& r) {
      const std::int64_t t0 = now_ns();
      batch_spans.push_back(
          tracer.add("batch.run_all", epoch_span_, batch_start_, t0));
      // The warm run is governed by the degradation bound at the eta the
      // harness just measured.
      std::string error = verify_run(base_, g, r, last_eta_, true, 0);
      record_check(error, {"churn_epochs/warm"});
      const std::int64_t t1 = now_ns();
      tracer.add("check", epoch_span_, t0, t1);
      epoch_ms.push_back(static_cast<double>(t1 - epoch_start_) / 1e6);
      tracer.set_end(epoch_span_, t1);
      epoch_start_ = t1;
      return error;
    };
    return p;
  }

  // Called right before harness.run(): epoch 0 starts now, under `parent`.
  void begin_pass(int parent) {
    parent_ = parent;
    epoch_ms.clear();
    batch_spans.clear();
    epoch_start_ = now_ns();
  }

  std::vector<double> epoch_ms;  // per epoch of the current pass
  std::vector<int> batch_spans;  // per epoch of the current pass, traced

 private:
  EpochProblem base_;
  int parent_ = -1;
  int epoch_span_ = -1;
  int last_eta_ = 0;
  std::int64_t epoch_start_ = 0;
  std::int64_t batch_start_ = 0;
};

Samples run_churn(const Options& o) {
  Samples s;
  s.workers = 1;
  const std::int64_t n = o.tiny ? 200 : 20'000;
  EpochConfig config;
  config.base = GraphSpec::gnp_sparse(n, 8.0 / static_cast<double>(n), o.seed,
                                      GraphSpec::IdPolicy::kRandomized);
  config.churn.seed = o.seed * 13 + 5;
  config.churn.edge_remove_frac = 0.02;
  config.churn.edge_add_frac = 0.02;
  config.churn.node_remove_frac = 0.01;
  config.churn.node_add_frac = 0.01;
  // Epoch 0 plus 100 churn epochs: p90 of the churn epochs' latencies has
  // 10 epochs beyond it.
  config.epochs = o.tiny ? 12 : 101;
  config.workers = s.workers;
  config.capture_transcripts = true;
  config.use_result_cache = true;
  // Only the warm-started run: a scratch control run per epoch would double
  // each cold pass, and the benchmark needs several passes per run.
  config.run_control = false;
  EpochObserver observer(epoch_mis());

  // Set-up: the harness and the epoch-0 instance (which the harness builds
  // again inside its first epoch, so these are thrown away).
  auto set_up = [&] {
    Scope root("setup");
    const std::int64_t t0 = now_ns();
    EpochHarness harness(observer.wrapped(), config);
    {
      Scope build("graph.build");
      const Graph g = config.base.build();
      tracer.attr(build.id(), "edges", static_cast<double>(g.num_edges()));
    }
    s.setup_s.push_back(seconds_between(t0, now_ns()));
  };
  auto more_setups = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) set_up();
  };
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    begin_rep(rep, o.trace);
    set_up();
  }

  // Host load comes in bursts of seconds, which would decide the tail of a
  // single pass's epoch latencies. Each epoch's latency is therefore its
  // median over at least 3 cold passes of the same stream.
  std::vector<std::vector<double>> pass_epoch_ms;
  const RepClock clock(o, 3);
  for (int rep = 0;; ++rep) {
    const bool traced = clock.traced(rep);
    begin_rep(rep, traced);
    config.options.profile_phases = traced;
    EpochHarness harness(observer.wrapped(), config);
    EpochReport report;
    std::int64_t t0 = now_ns();
    try {
      Scope root("solve");
      {
        Scope run("epoch.run");
        observer.begin_pass(run.id());
        report = harness.run();
        tracer.attr(run.id(), "hits", static_cast<double>(report.cache_hits));
        tracer.attr(run.id(), "misses",
                    static_cast<double>(report.cache_misses));
      }
      // Engine spans inside each epoch's batch, from the runs that executed.
      for (std::size_t k = 0; tracer.on() && k < report.epochs.size(); ++k) {
        const EpochRecord& e = report.epochs[k];
        const int batch = observer.batch_spans[k];
        const std::int64_t at = tracer.start_of(batch);
        if (!e.warm_cache_hit) add_engine_spans(batch, at, e.warm);
      }
      // Every captured transcript must decode and agree with its run.
      std::int64_t messages = 0, rounds = 0, words = 0;
      for (const EpochRecord& e : report.epochs) {
        {
          Scope sp("transcript.decode");
          tracer.attr(sp.id(), "bytes",
                      static_cast<double>(e.warm_transcript.size()));
          const Transcript t = decode_transcript(e.warm_transcript);
          const bool agrees = t.summary.rounds == e.warm.rounds &&
                              t.summary.total_messages == e.warm.total_messages;
          record_check(agrees ? "" : "transcript disagrees with its run",
                       {"churn_epochs/transcript"});
        }
        messages += e.warm.total_messages;
        rounds += e.warm.rounds;
        words += e.warm.words_sent;
      }
      s.pass_counts(static_cast<std::int64_t>(report.epochs.size()), messages,
                    rounds, words);
      s.pass_checksum(epoch_report_checksum(report), "solve");
    } catch (const std::exception& e) {
      record_check(e.what(), {"churn_epochs cold pass threw"});
      break;
    }
    add_solve(s, traced, t0, now_ns());
    if (!traced) {
      // Epoch 0 builds the base instance from its spec; the churn epochs
      // are the steady state a serving loop sees.
      pass_epoch_ms.emplace_back(observer.epoch_ms.begin() + 1,
                                 observer.epoch_ms.end());
    }
    more_setups();

    // A replay costs over half a cold pass, so an untraced run replays only
    // after its last cold pass.
    const bool last = !clock.more(rep + 1);
    if (traced || last) {
      t0 = now_ns();
      try {
        Scope root("replay");
        Scope run("epoch.run");
        observer.begin_pass(run.id());
        const EpochReport replay = harness.run();
        tracer.attr(run.id(), "hits", static_cast<double>(replay.cache_hits));
        tracer.attr(run.id(), "misses",
                    static_cast<double>(replay.cache_misses));
        if (replay.cache_misses != 0) {
          tally.fail("replay missed the result cache");
        }
        s.pass_checksum(epoch_report_checksum(replay), "replay");
      } catch (const std::exception& e) {
        record_check(e.what(), {"churn_epochs replay threw"});
        break;
      }
      if (!traced) s.replay_s.push_back(seconds_between(t0, now_ns()));
      more_setups();
    }

    // The harness's edits and warm starts are not visible from outside, so
    // a traced repetition re-runs the same public calls on the same inputs
    // (the edit stream depends only on the graph, the warm start on the
    // recorded outputs) under a separate root.
    if (traced) {
      Scope root("probe");
      Graph current = config.base.build();
      for (std::size_t k = 1; k < report.epochs.size(); ++k) {
        EditBatch batch;
        {
          Scope sp("graph.edits_generate");
          batch = config.churn.generate(current, static_cast<int>(k));
        }
        Graph next;
        {
          Scope sp("graph.edits_apply");
          next = apply_edits(current, batch);
        }
        Predictions pred;
        {
          Scope sp("predict.provide");
          pred = provide_with_seed(
              *warm_start_provider(current, report.epochs[k - 1].warm.outputs),
              next, ProblemKind::kMis, 0);
        }
        if (next.num_nodes() != report.epochs[k].nodes ||
            next.num_edges() != report.epochs[k].edges) {
          tally.fail("probe edit stream diverged from the harness");
        }
        current = std::move(next);
      }
    }
    if (last) break;
  }
  for (std::size_t k = 0;
       !pass_epoch_ms.empty() && k < pass_epoch_ms.front().size(); ++k) {
    std::vector<double> across;
    for (const auto& pass : pass_epoch_ms) across.push_back(pass[k]);
    s.step_ms.push_back(median(across));
  }
  return s;
}

// ---- Output --------------------------------------------------------------

std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

void put_list(std::ostringstream& out, const char* key,
              const std::vector<double>& values) {
  out << ", \"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", values[i]);
    out << (i ? ", " : "") << buf;
  }
  out << "]";
}

std::string json_string(const std::string& v) {
  std::string out(1, '"');
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string samples_json(const Options& o, const Samples& s) {
  std::ostringstream out;
  char checksum[20];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64, s.checksum);
  out << "{\"workload\": " << json_string(o.workload) << ", \"seed\": "
      << o.seed << ", \"size\": \"" << (o.tiny ? "tiny" : "full")
      << "\", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"threads\": " << s.threads << ", \"workers\": " << s.workers
      << ", \"hw_threads\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(DGAP_BENCH_COMPILER)
      << ", \"build_type\": " << json_string(DGAP_BENCH_BUILD_TYPE);
  put_list(out, "setup_s", s.setup_s);
  put_list(out, "solve_s", s.solve_s);
  put_list(out, "solve_traced_s", s.solve_traced_s);
  put_list(out, "replay_s", s.replay_s);
  put_list(out, "step_ms", s.step_ms);
  out << ", \"jobs\": " << s.jobs << ", \"messages\": " << s.messages
      << ", \"rounds\": " << s.rounds << ", \"words_sent\": " << s.words_sent
      << ", \"checksum\": \"" << (s.have_checksum ? checksum : "") << "\""
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < tally.failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(tally.failures[i]);
  }
  out << "], \"peak_rss_kb\": " << peak_rss_kb() << "}";
  return out.str();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload scale_gnm_1m|template_sweep|churn_epochs"
               " --seed N --seconds S [--trace 0|1] [--tiny] [--corrupt]"
               " [--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      return usage(argv[0]);
    }
  }
  tally.corrupt = o.corrupt;

  Samples s;
  try {
    if (o.workload == "scale_gnm_1m") {
      s = run_scale(o);
    } else if (o.workload == "template_sweep") {
      s = run_sweep(o);
    } else if (o.workload == "churn_epochs") {
      s = run_churn(o);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    record_check(e.what(), {"workload threw"});
  }
  if (o.trace && !o.spans_path.empty()) {
    std::ostringstream header;
    header << "\"workload\": " << json_string(o.workload)
           << ", \"seed\": " << o.seed << ", \"workers\": " << s.workers;
    if (!tracer.write(o.spans_path, header.str())) {
      std::fprintf(stderr, "cannot write %s\n", o.spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", samples_json(o, s).c_str());
  return 0;
}
