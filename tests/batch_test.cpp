// Batch runner contract (docs/MODEL.md, "Batch execution model"):
//  * results are bit-identical to the serial loop for any worker count and
//    any submission order, keyed by submission index;
//  * the graph cache returns the same immutable Graph object for equal
//    specs;
//  * a throwing job fails alone, with its index and error reported;
//  * engine-level reuse (shared scratch, shared thread pool) never changes
//    results;
//  * the result cache keys every option that changes a result, so a
//    compiled and an uncompiled run of one job never share a slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "predict/provider.hpp"
#include "random/luby.hpp"
#include "sim/batch.hpp"
#include "sim/compile.hpp"
#include "sim/thread_pool.hpp"
#include "sim/transcript.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

/// A job expressed re-runnably: the factory is re-created per execution so
/// the same job can be run serially and through batches repeatedly.
struct SweepCase {
  std::shared_ptr<const Graph> graph;
  Predictions pred;
  ProgramFactory (*make)();
  EngineOptions options;
};

std::vector<SweepCase> sweep_cases(GraphCache& cache) {
  std::vector<SweepCase> cases;
  ProgramFactory (*algos[])() = {&mis_simple_greedy, &mis_consecutive_gather,
                                 &mis_parallel_linial};
  const GraphSpec specs[] = {
      GraphSpec::line(24, GraphSpec::IdPolicy::kSorted),
      GraphSpec::gnp(20, 0.2, /*seed=*/7, GraphSpec::IdPolicy::kRandomized),
      GraphSpec::grid(5, 4),
  };
  int salt = 0;
  for (const GraphSpec& spec : specs) {
    auto g = cache.get(spec);
    const auto seed = static_cast<std::uint64_t>(100 + salt);
    for (int flips : {0, 3, 9}) {
      auto pred = provide_with_seed(*perturbed_provider(flips), *g,
                                    ProblemKind::kMis, seed);
      for (auto make : algos) {
        EngineOptions opt;
        opt.compile.cache_resends = (salt % 2 == 0);
        opt.compile.decode_defaults = (salt % 3 == 0);
        cases.push_back({g, pred, make, opt});
        ++salt;
      }
    }
  }
  return cases;
}

std::vector<RunResult> run_serially(const std::vector<SweepCase>& cases) {
  std::vector<RunResult> out;
  for (const SweepCase& c : cases) {
    out.push_back(
        run_with_predictions(*c.graph, c.pred, c.make(), c.options));
  }
  return out;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.outputs, b.outputs) << label;
  EXPECT_EQ(a.edge_outputs, b.edge_outputs) << label;
  EXPECT_EQ(a.termination_round, b.termination_round) << label;
  EXPECT_EQ(a.total_messages, b.total_messages) << label;
  EXPECT_EQ(a.total_words, b.total_words) << label;
  EXPECT_EQ(a.max_message_words, b.max_message_words) << label;
  EXPECT_EQ(a.congest_violations, b.congest_violations) << label;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << label;
  EXPECT_EQ(a.words_sent, b.words_sent) << label;
  EXPECT_EQ(result_checksum(a), result_checksum(b)) << label;
}

TEST(Batch, BitIdenticalAcrossWorkerCounts) {
  GraphCache cache;
  const auto cases = sweep_cases(cache);
  const auto serial = run_serially(cases);
  for (int workers : {1, 2, 4}) {
    BatchRunner runner({workers});
    for (const SweepCase& c : cases) {
      runner.add(*c.graph, c.make(), c.pred, c.options);
    }
    auto batch = take_results(runner.run_all());
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], batch[i],
                       "workers=" + std::to_string(workers) + " job " +
                           std::to_string(i));
    }
    EXPECT_EQ(results_checksum(serial), results_checksum(batch));
  }
}

TEST(Batch, SubmissionOrderKeysResultsUnderShuffle) {
  GraphCache cache;
  const auto cases = sweep_cases(cache);
  const auto serial = run_serially(cases);
  std::vector<std::size_t> perm(cases.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(42);
  rng.shuffle(perm);

  BatchRunner runner({3});
  for (std::size_t p : perm) {
    const SweepCase& c = cases[p];
    runner.add(*c.graph, c.make(), c.pred, c.options);
  }
  auto shuffled = take_results(runner.run_all());
  ASSERT_EQ(shuffled.size(), serial.size());
  // Result slot i holds the i-th *submitted* job, i.e. original job
  // perm[i] — independent of completion order.
  for (std::size_t i = 0; i < perm.size(); ++i) {
    expect_identical(serial[perm[i]], shuffled[i],
                     "slot " + std::to_string(i));
  }
}

TEST(Batch, SpecJobsMatchBorrowedGraphJobs) {
  const auto spec =
      GraphSpec::gnp(18, 0.25, /*seed=*/3, GraphSpec::IdPolicy::kRandomized);
  const Graph g = spec.build();
  Rng rng(5);
  auto pred = perturbed_provider(4)->provide(g, ProblemKind::kMis, rng);

  BatchRunner runner({2});
  runner.add(spec, mis_simple_greedy(), pred);
  runner.add(g, mis_simple_greedy(), pred);
  auto results = take_results(runner.run_all());
  expect_identical(results[0], results[1], "spec vs borrowed");
  EXPECT_TRUE(is_valid_mis(g, results[0].outputs));
}

TEST(Batch, GraphCacheHitReturnsSameObject) {
  GraphCache cache;
  const auto spec = GraphSpec::gnp(30, 0.15, /*seed=*/11);
  auto first = cache.get(spec);
  auto second = cache.get(spec);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);

  // A different seed is a different instance.
  auto other = cache.get(GraphSpec::gnp(30, 0.15, /*seed=*/12));
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Batch, RunnerResolvesRepeatedSpecsThroughCache) {
  BatchRunner runner({2});
  const auto spec = GraphSpec::line(16, GraphSpec::IdPolicy::kSorted);
  for (int i = 0; i < 6; ++i) runner.add(spec, greedy_mis_algorithm());
  auto results = take_results(runner.run_all());
  EXPECT_EQ(runner.graph_cache().misses(), 1);
  EXPECT_EQ(runner.graph_cache().hits(), 5);
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_identical(results[0], results[i], "job " + std::to_string(i));
  }
}

/// Terminates without assigning an output — DGAP_REQUIRE throws inside the
/// engine's receive phase.
struct TerminateWithoutOutput : NodeProgram {
  void on_send(NodeContext&) override {}
  void on_receive(NodeContext& ctx) override { ctx.terminate(); }
};

TEST(Batch, ThrowingJobFailsAloneWithIndexReported) {
  Graph g = make_ring(12);
  sorted_ids(g);
  BatchRunner runner({2});
  runner.add(g, greedy_mis_algorithm());
  runner.add(g, [](NodeId) -> std::unique_ptr<NodeProgram> {
    return std::make_unique<TerminateWithoutOutput>();
  });
  runner.add(g, greedy_mis_algorithm());
  auto results = runner.run_all();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(results[1].index, 1u);
  EXPECT_NE(results[1].error.find("terminates only after"),
            std::string::npos)
      << results[1].error;
  expect_identical(results[0].result, results[2].result, "surviving jobs");
  EXPECT_TRUE(is_valid_mis(g, results[0].result.outputs));

  // take_results surfaces the failure, naming the job.
  auto again = runner.run_all();  // empty batch is fine
  EXPECT_TRUE(again.empty());
  runner.add(g, [](NodeId) -> std::unique_ptr<NodeProgram> {
    return std::make_unique<TerminateWithoutOutput>();
  });
  EXPECT_THROW(take_results(runner.run_all()), std::runtime_error);
}

TEST(Batch, CompileOptionsKeyTheResultCache) {
  // flood_min re-sends most of its words, so the resend cache changes
  // words_sent by an order of magnitude: a compiled result served to an
  // uncompiled job would be visibly wrong.
  const Graph g = GraphSpec::gnp(64, 0.1, 3).build();
  EngineOptions compiled;
  compiled.compile.cache_resends = true;
  const RunResult fresh = run_algorithm(g, flood_min_algorithm());
  const RunResult fresh_compiled =
      run_algorithm(g, flood_min_algorithm(), compiled);
  ASSERT_LT(fresh_compiled.words_sent, fresh.words_sent);

  BatchRunner runner({1});
  const auto run_one = [&](const EngineOptions& options) {
    BatchJob job = make_job(g, flood_min_algorithm(), {}, options);
    job.algorithm_id = "flood_min";
    runner.add(std::move(job));
    return runner.run_all().at(0);
  };
  const BatchResult first = run_one(compiled);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.result.words_sent, fresh_compiled.words_sent);
  const BatchResult uncompiled = run_one(EngineOptions{});
  EXPECT_FALSE(uncompiled.cache_hit);
  EXPECT_EQ(uncompiled.result.words_sent, fresh.words_sent);
  const BatchResult decode_only = run_one([] {
    EngineOptions o;
    o.compile.decode_defaults = true;
    return o;
  }());
  EXPECT_FALSE(decode_only.cache_hit);
  // The same compiled job again is a hit, and the hit is the compiled run.
  const BatchResult again = run_one(compiled);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.result.words_sent, fresh_compiled.words_sent);
}

TEST(Batch, ScratchReuseAcrossEnginesIsBitIdentical) {
  // Big run, then a small run, on the same scratch: capacity persists,
  // results must not. The failed-run case exercises the mid-round-abort
  // invariant restore (nonzero recv counts, stale inbox stamps).
  Rng rng(17);
  Graph big = make_gnp(64, 0.15, rng);
  randomize_ids(big, rng);
  Graph small = make_line(10);
  sorted_ids(small);

  auto fresh_big = run_algorithm(big, luby_mis_algorithm(5));
  auto fresh_small = run_algorithm(small, greedy_mis_algorithm());

  EngineScratch scratch;
  {
    Engine e(big, empty_predictions(), luby_mis_algorithm(5), {}, nullptr,
             &scratch);
    expect_identical(fresh_big, e.run(), "big on shared scratch");
  }
  {
    Engine e(small, empty_predictions(), greedy_mis_algorithm(), {}, nullptr,
             &scratch);
    expect_identical(fresh_small, e.run(), "small after big");
  }
  {
    Engine e(small, empty_predictions(),
             [](NodeId) -> std::unique_ptr<NodeProgram> {
               return std::make_unique<TerminateWithoutOutput>();
             },
             {}, nullptr, &scratch);
    EXPECT_THROW(e.run(), std::invalid_argument);
  }
  {
    Engine e(small, empty_predictions(), greedy_mis_algorithm(), {}, nullptr,
             &scratch);
    expect_identical(fresh_small, e.run(), "small after aborted run");
  }
}

TEST(Batch, SharedThreadPoolMatchesOwnedPoolAndSerial) {
  Rng rng(23);
  Graph g = make_gnp(48, 0.2, rng);
  randomize_ids(g, rng);
  auto serial = run_algorithm(g, luby_mis_algorithm(9));

  EngineOptions threaded;
  threaded.num_threads = 2;
  auto owned = run_algorithm(g, luby_mis_algorithm(9), threaded);
  expect_identical(serial, owned, "owned pool");

  ThreadPool pool(2);
  for (int rep = 0; rep < 3; ++rep) {
    auto shared = run_algorithm(g, luby_mis_algorithm(9), threaded, &pool);
    expect_identical(serial, shared, "shared pool rep " + std::to_string(rep));
  }
  // Slot-count mismatch is a contract violation, not a silent fallback.
  EXPECT_THROW(
      {
        EngineOptions four;
        four.num_threads = 4;
        run_algorithm(g, luby_mis_algorithm(9), four, &pool);
      },
      std::invalid_argument);
}

// Full-transcript capture: byte equality across worker counts, shuffled
// submission, and against a directly recorded serial run. Stronger than
// the checksum comparisons above — a transcript pins every delivered word
// of every round, so scheduling cannot leak into *any* observable, not
// just the aggregated RunResult fields.
TEST(Batch, CapturedTranscriptsAreSchedulingInvariant) {
  GraphCache cache;
  const auto cases = sweep_cases(cache);

  // Reference bytes: record each job serially, outside any batch.
  std::vector<std::vector<std::uint8_t>> reference;
  for (const SweepCase& c : cases) {
    EngineOptions opt = c.options;
    opt.num_threads = 1;
    reference.push_back(
        record_run(*c.graph, c.pred, c.make(), opt).transcript);
  }

  auto make_capture_job = [](const SweepCase& c) {
    BatchJob job = make_job(*c.graph, c.make(), c.pred, c.options);
    job.capture_transcript = true;
    return job;
  };

  for (int workers : {1, 2, 4}) {
    BatchRunner runner({workers});
    for (const SweepCase& c : cases) runner.add(make_capture_job(c));
    const auto results = runner.run_all();
    ASSERT_EQ(results.size(), cases.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].transcript, reference[i])
          << "workers=" << workers << " job " << i;
    }
  }

  // Shuffled submission: slot i's bytes are original job perm[i]'s bytes.
  std::vector<std::size_t> perm(cases.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(4242);
  rng.shuffle(perm);
  BatchRunner runner({3});
  for (std::size_t p : perm) runner.add(make_capture_job(cases[p]));
  const auto shuffled = runner.run_all();
  for (std::size_t i = 0; i < perm.size(); ++i) {
    ASSERT_TRUE(shuffled[i].ok) << shuffled[i].error;
    EXPECT_EQ(shuffled[i].transcript, reference[perm[i]])
        << "slot " << i;
  }
}

TEST(Batch, SpecJobsEmbedTheirSpecInTheTranscript) {
  const auto spec =
      GraphSpec::gnp(18, 0.25, /*seed=*/3, GraphSpec::IdPolicy::kRandomized);
  BatchRunner runner({2});
  BatchJob job = make_job(spec, luby_mis_algorithm(5));
  job.capture_transcript = true;
  job.transcript_label = "spec_job";
  runner.add(std::move(job));
  const auto results = runner.run_all();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  const Transcript t = decode_transcript(results[0].transcript);
  EXPECT_EQ(t.label, "spec_job");
  ASSERT_TRUE(t.spec.has_value());
  EXPECT_EQ(*t.spec, spec);
  EXPECT_EQ(t.n, runner.graph_cache().get(spec)->num_nodes());
  EXPECT_TRUE(t.summary.completed);
}

TEST(Batch, CaptureRejectsJobsWithTheirOwnSink) {
  Graph g = make_ring(8);
  TranscriptWriter writer;
  BatchJob job = make_job(g, greedy_mis_algorithm());
  job.capture_transcript = true;
  job.options.trace_sink = &writer;
  BatchRunner runner({1});
  EXPECT_THROW(runner.add(std::move(job)), std::invalid_argument);
}

TEST(Batch, JobNumThreadsIsForcedSingleThreaded) {
  // num_threads moves to the batch level: a job asking for 4 engine
  // threads still runs (single-threaded) and still matches the serial
  // single-threaded result bit for bit.
  Graph g = make_ring(30);
  sorted_ids(g);
  auto serial = run_algorithm(g, greedy_mis_algorithm());
  BatchRunner runner({2});
  EngineOptions opt;
  opt.num_threads = 4;
  runner.add(g, greedy_mis_algorithm(), Predictions{}, opt);
  auto results = take_results(runner.run_all());
  expect_identical(serial, results[0], "forced single-threaded");
}

}  // namespace
}  // namespace dgap
