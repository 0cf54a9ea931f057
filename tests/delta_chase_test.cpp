// ISSUE 9: the differential battery proving the semi-naive (delta) chase
// byte-identical to the naive reference. 220 seeded randomized scenarios
// — mixed st-tgds/egds, existential heads, complex NREs, egd-failure and
// cyclic-reliance cases — are compiled under ChaseAlgorithm::kDelta at
// 1, 2 and 8 workers and compared field-for-field against
// ChaseAlgorithm::kNaive: pattern bytes, PatternChaseStats, failure
// flag/reason, merge counts and null arenas. Engine-level solves compare
// ExchangeOutcome::ToString across ChaseAlgorithm values, and the per-round
// observer re-checks reliance skipping soundness: a skipped live egd's
// matches bind only already-equal values; a dead egd never matches.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase_compiler.h"
#include "chase/delta_chase.h"
#include "chase/reliance.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/exchange_engine.h"
#include "graph/cnre.h"
#include "graph/nre_eval.h"
#include "obs/stats_registry.h"
#include "workload/scenario_parser.h"

namespace gdx {
namespace {

constexpr uint64_t kBatterySeeds = 220;  // >= 200 per the issue

Scenario Parse(const std::string& text) {
  Result<Scenario> s = ParseScenario(text);
  EXPECT_TRUE(s.ok()) << s.status().ToString() << "\n" << text;
  return std::move(s).value();
}

/// Random scenario text. Copy tgds over constants make egd matches clash
/// constants (§5 failure cases); existential heads mint nulls whose
/// merges cascade (cyclic reliances); underived labels yield dead rules.
std::string RandomScenarioText(uint64_t seed) {
  Rng rng(seed);
  const char* labels[] = {"a", "b", "c", "d", "hub"};
  std::string text = "relation R/2\nrelation S/2\n";
  const int num_consts = static_cast<int>(rng.UniformInt(3, 6));
  const int num_facts = static_cast<int>(rng.UniformInt(3, 8));
  for (int f = 0; f < num_facts; ++f) {
    const char* rel = rng.Bernoulli(0.5) ? "R" : "S";
    text += std::string("fact ") + rel + "(c" +
            std::to_string(rng.UniformInt(0, num_consts)) + ", c" +
            std::to_string(rng.UniformInt(0, num_consts)) + ")\n";
  }
  const char* body_vars[] = {"x", "y", "z"};
  const int num_st = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < num_st; ++i) {
    std::string body = rng.Bernoulli(0.5) ? "R(x, y)" : "S(x, y)";
    if (rng.Bernoulli(0.3)) body += rng.Bernoulli(0.5) ? ", S(y, z)"
                                                       : ", R(y, z)";
    const int num_heads = rng.Bernoulli(0.4) ? 2 : 1;
    std::string head;
    for (int h = 0; h < num_heads; ++h) {
      std::string nre = labels[rng.UniformInt(0, 4)];
      const double shape = rng.UniformDouble();
      if (shape < 0.15) {
        nre += std::string(" . ") + labels[rng.UniformInt(0, 4)];
      } else if (shape < 0.25) {
        nre += std::string(" + ") + labels[rng.UniformInt(0, 4)];
      } else if (shape < 0.32) {
        nre += "*";
      }
      std::string v1 = body_vars[rng.UniformInt(0, 2)];
      // Existential targets mint nulls — the values egd merges can move.
      std::string v2 = rng.Bernoulli(0.45)
                           ? "e" + std::to_string(rng.UniformInt(1, 2))
                           : body_vars[rng.UniformInt(0, 2)];
      if (h > 0) head += ", ";
      head += "(" + v1 + ", " + nre + ", " + v2 + ")";
    }
    text += "stgd " + body + " -> " + head + "\n";
  }
  const char* egd_vars[] = {"u1", "u2", "v1", "v2"};
  const int num_egds = static_cast<int>(rng.UniformInt(0, 3));
  for (int j = 0; j < num_egds; ++j) {
    const int num_atoms = rng.Bernoulli(0.5) ? 2 : 1;
    std::vector<std::string> used;
    std::string body;
    for (int atom = 0; atom < num_atoms; ++atom) {
      std::string lbl = labels[rng.UniformInt(0, 4)];
      if (rng.Bernoulli(0.2)) lbl += "*";
      std::string v1 = egd_vars[rng.UniformInt(0, 3)];
      std::string v2 = egd_vars[rng.UniformInt(0, 3)];
      used.push_back(v1);
      used.push_back(v2);
      if (atom > 0) body += ", ";
      body += "(" + v1 + ", " + lbl + ", " + v2 + ")";
    }
    std::string e1 = used[rng.UniformInt(0, used.size() - 1)];
    std::string e2 = used[rng.UniformInt(0, used.size() - 1)];
    text += "egd " + body + " -> " + e1 + " = " + e2 + "\n";
  }
  return text;
}

/// Everything a Compile produces that the differential compare inspects.
struct CompileRun {
  bool failed = false;
  std::string failure_reason;
  std::string pattern;  // empty when failed (the pattern is meaningless)
  PatternChaseStats stats;
  size_t egd_merges = 0;
  size_t base_nulls = 0;
  std::vector<std::string> null_labels;
  size_t universe_nulls = 0;
  DeltaChaseStats delta;
};

CompileRun RunCompile(const std::string& text, ChaseAlgorithm algorithm,
                      ThreadPool* pool, size_t max_workers,
                      const DeltaChaseObserver& observer = {}) {
  AutomatonNreEvaluator eval;
  Scenario s = Parse(text);
  ChaseCompileOptions options;
  options.algorithm = algorithm;
  options.pool = pool;
  options.max_workers = max_workers;
  options.observer = observer;
  ChasedScenarioPtr artifact = ChaseCompiler::Compile(
      s.setting, *s.instance, *s.universe, eval, options);
  CompileRun run;
  run.failed = artifact->failed;
  run.failure_reason = artifact->failure_reason;
  if (!artifact->failed) {
    run.pattern = artifact->pattern.ToString(*s.universe, *s.alphabet);
  }
  run.stats = artifact->stats;
  run.egd_merges = artifact->egd_merges;
  run.base_nulls = artifact->base_nulls;
  run.null_labels = artifact->null_labels;
  run.universe_nulls = s.universe->num_nulls();
  run.delta = artifact->delta;
  return run;
}

void ExpectRunsEqual(const CompileRun& naive, const CompileRun& delta,
                     uint64_t seed, size_t workers) {
  const std::string ctx = "seed " + std::to_string(seed) + " at " +
                          std::to_string(workers) + " workers";
  EXPECT_EQ(naive.failed, delta.failed) << ctx;
  EXPECT_EQ(naive.failure_reason, delta.failure_reason) << ctx;
  EXPECT_EQ(naive.pattern, delta.pattern) << ctx;
  EXPECT_EQ(naive.stats.triggers, delta.stats.triggers) << ctx;
  EXPECT_EQ(naive.stats.edges_added, delta.stats.edges_added) << ctx;
  EXPECT_EQ(naive.stats.nulls_created, delta.stats.nulls_created) << ctx;
  EXPECT_EQ(naive.egd_merges, delta.egd_merges) << ctx;
  EXPECT_EQ(naive.base_nulls, delta.base_nulls) << ctx;
  EXPECT_EQ(naive.null_labels, delta.null_labels) << ctx;
  EXPECT_EQ(naive.universe_nulls, delta.universe_nulls) << ctx;
}

// --- the randomized differential battery ------------------------------------

TEST(DeltaChaseBatteryTest, ByteIdenticalToNaiveAt1And2And8Workers) {
  ThreadPool pool2(2), pool8(8);
  struct WorkerSetup {
    ThreadPool* pool;
    size_t max_workers;
  };
  const WorkerSetup setups[] = {{nullptr, 1}, {&pool2, 2}, {&pool8, 8}};

  size_t total_skipped = 0, total_failures = 0, total_merges = 0;
  for (uint64_t seed = 1; seed <= kBatterySeeds; ++seed) {
    const std::string text = RandomScenarioText(seed);
    const CompileRun naive =
        RunCompile(text, ChaseAlgorithm::kNaive, nullptr, 1);
    EXPECT_EQ(naive.delta.delta_rounds, 0u) << "naive runs no delta rounds";
    EXPECT_EQ(naive.delta.evaluated_rules, 0u);
    for (const WorkerSetup& setup : setups) {
      const CompileRun delta = RunCompile(text, ChaseAlgorithm::kDelta,
                                          setup.pool, setup.max_workers);
      ExpectRunsEqual(naive, delta, seed, setup.max_workers);
      if (setup.max_workers == 1) {
        total_skipped += delta.delta.skipped_rules;
        total_failures += delta.failed ? 1 : 0;
        total_merges += delta.egd_merges;
      }
    }
  }
  // The corpus must actually exercise the interesting regimes: reliance
  // skipping fires, some chases fail (§5 constant clashes), some merge.
  EXPECT_GT(total_skipped, 0u) << "battery never skipped a rule";
  EXPECT_GT(total_failures, 0u) << "battery never hit an egd failure";
  EXPECT_GT(total_merges, 0u) << "battery never merged";
}

// --- reliance-skipping soundness (per-round observer re-check) --------------

TEST(DeltaChaseSoundnessTest, SkippedRulesYieldNoNewMergesInAnyRound) {
  AutomatonNreEvaluator eval;
  ThreadPool pool(2);
  size_t rounds_checked = 0, skipped_checked = 0;
  for (uint64_t seed = 1; seed <= kBatterySeeds; ++seed) {
    const std::string text = RandomScenarioText(seed);
    Scenario s = Parse(text);
    if (s.setting.egds.empty()) continue;
    const RelianceGraph reliance = RelianceGraph::Build(s.setting);
    auto observer = [&](const DeltaRoundInfo& info) {
      ++rounds_checked;
      const Graph definite = info.pattern->DefiniteGraph();
      for (size_t j : info.skipped_egds) {
        ++skipped_checked;
        const TargetEgd& egd = s.setting.egds[j];
        CnreMatcher matcher(&egd.body, &definite, eval);
        size_t matches = 0;
        matcher.FindMatches(
            CnreBinding(egd.body.num_vars(), std::nullopt),
            [&](const CnreBinding& m) {
              ++matches;
              // The instrumented naive re-check: a skipped rule's match
              // must demand nothing — x1 and x2 already equal.
              if (m[egd.x1].has_value() && m[egd.x2].has_value()) {
                EXPECT_EQ(*m[egd.x1], *m[egd.x2])
                    << "seed " << seed << " round " << info.round
                    << " skipped egd " << j << " would have merged";
              }
              return true;
            });
        if (reliance.EgdDead(j)) {
          EXPECT_EQ(matches, 0u)
              << "seed " << seed << " dead egd " << j << " matched";
        }
      }
    };
    ChaseCompileOptions options;
    options.pool = &pool;
    options.max_workers = 2;
    options.observer = observer;
    ChaseCompiler::Compile(s.setting, *s.instance, *s.universe, eval,
                           options);
  }
  EXPECT_GT(rounds_checked, 0u);
  EXPECT_GT(skipped_checked, 0u);
}

// --- crafted regimes --------------------------------------------------------

TEST(DeltaChaseTest, DeadEgdIsSkippedEveryRoundAndCountersAdd) {
  // ghost is never derived: its egd is dead; the live hub egd cascades.
  const std::string text = R"(
    relation R/2
    fact R(c1, c2)
    fact R(c1, c3)
    fact R(c2, c4)
    stgd R(x, y) -> (x, a, y)
    stgd R(x, y) -> (x, hub, e1)
    egd (u1, hub, v1), (u1, hub, v2) -> v1 = v2
    egd (u1, ghost, v1), (u2, ghost, v1) -> u1 = u2
  )";
  const CompileRun naive =
      RunCompile(text, ChaseAlgorithm::kNaive, nullptr, 1);
  const CompileRun delta =
      RunCompile(text, ChaseAlgorithm::kDelta, nullptr, 1);
  ExpectRunsEqual(naive, delta, 0, 1);
  ASSERT_FALSE(delta.failed);
  EXPECT_GT(delta.egd_merges, 0u) << "the hub nulls of c1 must collapse";
  EXPECT_GT(delta.delta.delta_rounds, 1u);
  // The dead egd is skipped in every round (including the final all-skip
  // round); the seed round evaluates both st-tgds.
  EXPECT_GE(delta.delta.skipped_rules, delta.delta.delta_rounds - 1);
  EXPECT_GE(delta.delta.evaluated_rules, 3u);
  EXPECT_GT(delta.delta.strata, 0u);
  EXPECT_EQ(naive.delta.skipped_rules, 0u);
}

TEST(DeltaChaseTest, ConstantClashFailsIdentically) {
  const std::string text = R"(
    relation R/2
    fact R(c1, hx)
    fact R(c2, hx)
    stgd R(x, y) -> (x, h, y)
    egd (u1, h, v1), (u2, h, v1) -> u1 = u2
  )";
  ThreadPool pool(8);
  const CompileRun naive =
      RunCompile(text, ChaseAlgorithm::kNaive, nullptr, 1);
  ASSERT_TRUE(naive.failed);
  for (size_t workers : {1u, 8u}) {
    const CompileRun delta =
        RunCompile(text, ChaseAlgorithm::kDelta,
                   workers == 1 ? nullptr : &pool, workers);
    ExpectRunsEqual(naive, delta, 0, workers);
    EXPECT_TRUE(delta.failed);
    EXPECT_FALSE(delta.failure_reason.empty());
  }
}

TEST(DeltaChaseTest, EgdFreeScenarioIsSeedRoundOnly) {
  const std::string text = R"(
    relation R/2
    fact R(c1, c2)
    stgd R(x, y) -> (x, a . b*, e1), (e1, hub, y)
  )";
  const CompileRun naive =
      RunCompile(text, ChaseAlgorithm::kNaive, nullptr, 1);
  const CompileRun delta =
      RunCompile(text, ChaseAlgorithm::kDelta, nullptr, 1);
  ExpectRunsEqual(naive, delta, 0, 1);
  EXPECT_EQ(delta.delta.delta_rounds, 1u) << "seed round only";
  EXPECT_EQ(delta.delta.skipped_rules, 0u);
  EXPECT_EQ(delta.delta.evaluated_rules, 1u);
}

// --- engine-level differential ----------------------------------------------

EngineOptions SmallEngineOptions(ChaseAlgorithm policy, size_t workers) {
  EngineOptions options;
  options.chase_policy = policy;
  options.intra_solve_threads = workers;
  options.instantiation.max_witnesses_per_edge = 2;
  options.max_solutions = 4;
  options.max_candidates = 1u << 14;
  return options;
}

TEST(DeltaChaseEngineTest, OutcomesByteIdenticalAcrossPoliciesAndWorkers) {
  obs::StatsRegistry registry;
  EngineOptions delta_options = SmallEngineOptions(ChaseAlgorithm::kDelta, 8);
  delta_options.stats = &registry;
  ExchangeEngine naive_engine(
      SmallEngineOptions(ChaseAlgorithm::kNaive, 1));
  ExchangeEngine delta_engine(delta_options);
  ExchangeEngine delta_seq_engine(
      SmallEngineOptions(ChaseAlgorithm::kDelta, 1));

  Metrics naive_total, delta_total;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string text = RandomScenarioText(seed);
    Scenario for_naive = Parse(text);
    Scenario for_delta = Parse(text);
    Scenario for_delta_seq = Parse(text);
    Result<ExchangeOutcome> naive = naive_engine.Solve(for_naive);
    Result<ExchangeOutcome> delta = delta_engine.Solve(for_delta);
    Result<ExchangeOutcome> delta_seq =
        delta_seq_engine.Solve(for_delta_seq);
    ASSERT_TRUE(naive.ok()) << "seed " << seed;
    ASSERT_TRUE(delta.ok()) << "seed " << seed;
    ASSERT_TRUE(delta_seq.ok()) << "seed " << seed;
    const std::string naive_out =
        naive->ToString(*for_naive.universe, *for_naive.alphabet);
    EXPECT_EQ(naive_out,
              delta->ToString(*for_delta.universe, *for_delta.alphabet))
        << "seed " << seed << " (kNaive vs kDelta @8)";
    EXPECT_EQ(naive_out,
              delta_seq->ToString(*for_delta_seq.universe,
                                  *for_delta_seq.alphabet))
        << "seed " << seed << " (kNaive vs kDelta @1)";
    naive_total.Accumulate(naive->metrics);
    delta_total.Accumulate(delta->metrics);
  }
  // The chase work itself is policy-invariant...
  EXPECT_EQ(naive_total.chase_triggers, delta_total.chase_triggers);
  EXPECT_EQ(naive_total.chase_merges, delta_total.chase_merges);
  // ...while the delta counters separate the two modes: the ISSUE 9
  // acceptance criterion (skipped rules on a multi-rule corpus) both as
  // per-solve metrics and through the engine.chase.* registry counters.
  EXPECT_EQ(naive_total.chase_delta_rounds, 0u);
  EXPECT_EQ(naive_total.chase_skipped_rules, 0u);
  EXPECT_GT(delta_total.chase_delta_rounds, 0u);
  EXPECT_GT(delta_total.chase_skipped_rules, 0u);
  EXPECT_GT(delta_total.chase_strata, 0u);
  EXPECT_GT(registry.GetCounter("engine.chase.delta_rounds")->Value(), 0u);
  EXPECT_GT(registry.GetCounter("engine.chase.skipped_rules")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("engine.chase.skipped_rules")->Value(),
            delta_total.chase_skipped_rules);
}

TEST(DeltaChaseEngineTest, ChasedMemoHitReportsZeroDeltaCounters) {
  ExchangeEngine engine(SmallEngineOptions(ChaseAlgorithm::kDelta, 1));
  const std::string text = RandomScenarioText(3);
  Scenario first = Parse(text);
  Scenario second = Parse(text);
  Result<ExchangeOutcome> cold = engine.Solve(first);
  Result<ExchangeOutcome> warm = engine.Solve(second);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(cold->metrics.chase_delta_rounds, 0u);
  EXPECT_EQ(warm->metrics.chase_cache_hits, 1u);
  // Like chase_triggers, the delta counters describe work that ran; a
  // memo hit ran none.
  EXPECT_EQ(warm->metrics.chase_delta_rounds, 0u);
  EXPECT_EQ(warm->metrics.chase_skipped_rules, 0u);
  EXPECT_EQ(warm->metrics.chase_strata, 0u);
  EXPECT_EQ(cold->ToString(*first.universe, *first.alphabet),
            warm->ToString(*second.universe, *second.alphabet));
}

}  // namespace
}  // namespace gdx
