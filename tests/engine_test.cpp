// Tests for the src/engine/ orchestration subsystem: the ExchangeEngine
// pipeline against the paper's Example 2.2 and the hand-wired stage
// sequence, batch determinism across thread counts, the engine cache, and
// the work-stealing thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "chase/egd_chase.h"
#include "chase/pattern_chase.h"
#include "common/thread_pool.h"
#include "engine/batch_executor.h"
#include "engine/exchange_engine.h"
#include "solver/certain.h"
#include "solver/existence.h"
#include "workload/flights.h"

namespace gdx {
namespace {

EngineOptions PaperOptions() {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 12;
  return options;
}

std::vector<std::vector<Value>> NamedPairs(
    Scenario& s, std::vector<std::pair<const char*, const char*>> names) {
  std::vector<std::vector<Value>> out;
  for (const auto& [a, b] : names) {
    out.push_back({s.universe->MakeConstant(a), s.universe->MakeConstant(b)});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a[0].raw() != b[0].raw() ? a[0].raw() < b[0].raw()
                                    : a[1].raw() < b[1].raw();
  });
  return out;
}

/// A reproducible mixed batch: Example 2.2 flavors + generated workloads.
std::vector<Scenario> MakeMixedBatch() {
  std::vector<Scenario> batch;
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kSameAs));
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kNone));
  batch.push_back(MakeExample52Scenario());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FlightWorkloadParams params;
    params.seed = seed;
    params.num_cities = 4;
    params.num_flights = 5;
    params.num_hotels = 3;
    params.mode = seed % 2 == 0 ? FlightConstraintMode::kSameAs
                                : FlightConstraintMode::kNone;
    batch.push_back(MakeFlightScenario(params));
  }
  return batch;
}

std::vector<std::string> BatchOutcomeStrings(
    const std::vector<Scenario>& scenarios, const BatchReport& report) {
  std::vector<std::string> out;
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    const Result<ExchangeOutcome>& r = report.outcomes[i];
    out.push_back(r.ok() ? r->ToString(*scenarios[i].universe,
                                       *scenarios[i].alphabet)
                         : r.status().ToString());
  }
  return out;
}

// --- ExchangeEngine end to end ---------------------------------------------

TEST(ExchangeEngineTest, Example22EgdEndToEnd) {
  ExchangeEngine engine(PaperOptions());
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<ExchangeOutcome> outcome = engine.Solve(s);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->existence.verdict, ExistenceVerdict::kYes)
      << outcome->existence.note;
  ASSERT_TRUE(outcome->solution.has_value());
  ASSERT_TRUE(outcome->solution_verified.has_value());
  EXPECT_TRUE(*outcome->solution_verified);
  ASSERT_TRUE(outcome->pattern.has_value());
  EXPECT_EQ(outcome->pattern->num_nodes(), 7u) << "paper Figure 5";
  EXPECT_EQ(outcome->pattern->num_edges(), 7u) << "paper Figure 5";
  EXPECT_EQ(outcome->metrics.chase_merges, 1u) << "N3 merged into N1";
  ASSERT_TRUE(outcome->certain.has_value());
  EXPECT_EQ(outcome->certain->tuples,
            NamedPairs(s, {{"c1", "c1"},
                           {"c1", "c3"},
                           {"c3", "c1"},
                           {"c3", "c3"}}))
      << "paper: cert_Omega(Q,I) = {(c1,c1),(c1,c3),(c3,c1),(c3,c3)}";
  EXPECT_GT(outcome->metrics.total_seconds, 0.0);
  EXPECT_GT(outcome->metrics.chase_triggers, 0u);
}

TEST(ExchangeEngineTest, Example22SameAsEndToEnd) {
  ExchangeEngine engine(PaperOptions());
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kSameAs);
  Result<ExchangeOutcome> outcome = engine.Solve(s);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->existence.verdict, ExistenceVerdict::kYes)
      << "§4.2: existence is trivial for sameAs constraints";
  ASSERT_TRUE(outcome->certain.has_value());
  EXPECT_EQ(outcome->certain->tuples,
            NamedPairs(s, {{"c1", "c1"}, {"c3", "c3"}}))
      << "paper: cert_Omega'(Q,I) = {(c1,c1),(c3,c3)}";
}

TEST(ExchangeEngineTest, Example52ChaseSucceedsButNoSolution) {
  EngineOptions options = PaperOptions();
  options.existence_policy = ExistenceStrategy::kBoundedSearch;
  ExchangeEngine engine(options);
  Scenario s = MakeExample52Scenario();
  Result<ExchangeOutcome> outcome = engine.Solve(s);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->pattern.has_value())
      << "paper: the adapted chase succeeds on Example 5.2";
  EXPECT_EQ(outcome->existence.verdict, ExistenceVerdict::kNo)
      << "paper: yet no solution exists";
  EXPECT_FALSE(outcome->solution.has_value());
}

TEST(ExchangeEngineTest, CoreMinimizationShrinksWitness) {
  EngineOptions options = PaperOptions();
  options.minimize_core = true;
  ExchangeEngine engine(options);
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<ExchangeOutcome> outcome = engine.Solve(s);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->solution.has_value());
  EXPECT_TRUE(outcome->core_minimized);
  ASSERT_TRUE(outcome->solution_verified.has_value());
  EXPECT_TRUE(*outcome->solution_verified)
      << "minimized graph must still be a solution";
  EXPECT_LE(outcome->solution->num_edges(),
            outcome->existence.witness->num_edges());
}

TEST(ExchangeEngineTest, RejectsIncompleteScenario) {
  ExchangeEngine engine;
  Scenario empty;
  Result<ExchangeOutcome> outcome = engine.Solve(empty);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

// --- Identity with the hand-wired stage sequence ---------------------------

TEST(ExchangeEngineTest, MatchesHandWiredPipeline) {
  // The engine runs chase -> existence -> enumerate/intersect. Drive the
  // very same stage calls by hand on an identical scenario (fresh-null
  // draws included) and demand identical results.
  ExchangeEngine engine(PaperOptions());
  Scenario s_engine = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<ExchangeOutcome> outcome = engine.Solve(s_engine);
  ASSERT_TRUE(outcome.ok());

  Scenario s_hand = MakeExample22Scenario(FlightConstraintMode::kEgd);
  AutomatonNreEvaluator eval;
  GraphPattern pattern = ChaseToPattern(
      *s_hand.instance, s_hand.setting.st_tgds, *s_hand.universe);
  EgdChaseResult egd = ChasePatternEgds(pattern, s_hand.setting.egds, eval);
  ASSERT_FALSE(egd.failed);

  ExistenceOptions eopt = PaperOptions().ToExistenceOptions();
  ExistenceSolver solver(&eval, eopt);
  ExistenceReport report =
      solver.Decide(s_hand.setting, *s_hand.instance, *s_hand.universe);

  EXPECT_EQ(outcome->existence.verdict, report.verdict);
  EXPECT_EQ(outcome->existence.note, report.note);
  ASSERT_TRUE(report.witness.has_value());
  ASSERT_TRUE(outcome->solution.has_value());
  EXPECT_EQ(
      outcome->solution->Signature(*s_engine.universe, *s_engine.alphabet),
      report.witness->Signature(*s_hand.universe, *s_hand.alphabet));

  CertainAnswerOptions copt;
  copt.existence = eopt;
  copt.max_solutions = PaperOptions().max_solutions;
  CertainAnswerResult certain =
      CertainAnswerSolver(&eval, copt)
          .Compute(s_hand.setting, *s_hand.instance, *s_hand.query,
                   *s_hand.universe);
  ASSERT_TRUE(outcome->certain.has_value());
  EXPECT_EQ(outcome->certain->tuples, certain.tuples);
  EXPECT_EQ(outcome->certain->solutions_considered,
            certain.solutions_considered);
}

// --- Cache -----------------------------------------------------------------

TEST(ExchangeEngineTest, RepeatedSolveHitsCache) {
  ExchangeEngine engine(PaperOptions());
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<ExchangeOutcome> first = engine.Solve(s);
  ASSERT_TRUE(first.ok());
  Result<ExchangeOutcome> second = engine.Solve(s);
  ASSERT_TRUE(second.ok());

  EXPECT_GT(second->metrics.nre_cache_hits, 0u)
      << "repeated NRE evaluations over recurring graphs must memoize";
  EXPECT_GT(second->metrics.answer_cache_hits, 0u)
      << "repeated queries over the same target graph must memoize";
  CacheStats stats = engine.cache().stats();
  EXPECT_GT(stats.hits(), 0u);
  EXPECT_GT(stats.misses(), 0u);

  // Memoization must not change answers.
  EXPECT_EQ(first->certain->tuples, second->certain->tuples);
  EXPECT_EQ(first->existence.verdict, second->existence.verdict);
}

TEST(ExchangeEngineTest, CacheDisabledGivesIdenticalOutcome) {
  EngineOptions cached = PaperOptions();
  EngineOptions uncached = PaperOptions();
  uncached.enable_cache = false;
  ExchangeEngine engine_cached(cached);
  ExchangeEngine engine_uncached(uncached);
  Scenario s1 = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Scenario s2 = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<ExchangeOutcome> o1 = engine_cached.Solve(s1);
  Result<ExchangeOutcome> o2 = engine_uncached.Solve(s2);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->ToString(*s1.universe, *s1.alphabet),
            o2->ToString(*s2.universe, *s2.alphabet));
  EXPECT_EQ(engine_uncached.cache().stats().hits(), 0u);
}

// --- BatchExecutor ---------------------------------------------------------

TEST(BatchExecutorTest, BatchMatchesSequentialAndIsThreadCountInvariant) {
  // The same scenario list solved (a) sequentially through a lone engine,
  // (b) batched on 1 thread, (c) batched on 8 threads must render
  // byte-identical outcomes position by position.
  std::vector<Scenario> seq = MakeMixedBatch();
  ExchangeEngine engine(PaperOptions());
  std::vector<std::string> sequential;
  for (Scenario& s : seq) {
    Result<ExchangeOutcome> outcome = engine.Solve(s);
    sequential.push_back(outcome.ok()
                             ? outcome->ToString(*s.universe, *s.alphabet)
                             : outcome.status().ToString());
  }

  BatchOptions one;
  one.num_threads = 1;
  one.engine = PaperOptions();
  std::vector<Scenario> batch1 = MakeMixedBatch();
  BatchReport report1 = BatchExecutor(one).SolveAll(batch1);

  BatchOptions eight;
  eight.num_threads = 8;
  eight.engine = PaperOptions();
  std::vector<Scenario> batch8 = MakeMixedBatch();
  BatchReport report8 = BatchExecutor(eight).SolveAll(batch8);

  EXPECT_EQ(report1.num_threads, 1u);
  EXPECT_EQ(report8.num_threads, 8u);
  ASSERT_EQ(report1.outcomes.size(), sequential.size());
  ASSERT_EQ(report8.outcomes.size(), sequential.size());
  std::vector<std::string> strings1 = BatchOutcomeStrings(batch1, report1);
  std::vector<std::string> strings8 = BatchOutcomeStrings(batch8, report8);
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(strings1[i], sequential[i]) << "scenario " << i;
    EXPECT_EQ(strings8[i], strings1[i]) << "scenario " << i;
  }
  EXPECT_EQ(report1.errors, 0u);
  EXPECT_EQ(report8.errors, 0u);
  EXPECT_EQ(report1.yes + report1.no + report1.unknown,
            report1.outcomes.size());
  EXPECT_GT(report8.total.cache_hits(), 0u)
      << "the mixed batch repeats shapes; the shared cache must hit";
  EXPECT_GT(report1.wall_seconds, 0.0);
}

TEST(BatchExecutorTest, ReportsPerScenarioErrorsWithoutPoisoningOthers) {
  std::vector<Scenario> batch;
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
  batch.emplace_back();  // missing universe/instance -> INVALID_ARGUMENT
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kSameAs));
  BatchOptions options;
  options.num_threads = 2;
  options.engine = PaperOptions();
  BatchReport report = BatchExecutor(options).SolveAll(batch);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_TRUE(report.outcomes[0].ok());
  EXPECT_FALSE(report.outcomes[1].ok());
  EXPECT_EQ(report.outcomes[1].status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(report.outcomes[2].ok());
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.yes, 2u);
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("error=1"), std::string::npos);
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 500);
  // The pool is reusable after Wait.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 501);
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, SingleThreadPoolDrainsSerially) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  ASSERT_EQ(order.size(), 8u);  // no data race with one worker
}

}  // namespace
}  // namespace gdx