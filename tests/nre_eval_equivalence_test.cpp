// ISSUE 3 differential tests: the compiled product-BFS evaluator
// (GraphView CSR + ε-free CompiledNre + bitset traversals) must be
// relation-for-relation identical to the legacy dense-relation evaluator —
// on randomized graphs and NREs including nested tests and converse, on
// larger graphs, and through every query entry point (Eval / EvalOnView /
// EvalFrom / Contains). The engine-level compiled-automaton cache must be
// invisible to results: solve outputs stay byte-identical at 1, 2 and 8
// intra-solve workers with the cache engaged, and compilations are shared
// rather than repeated.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "graph/cnre.h"
#include "graph/graph_view.h"
#include "graph/nre_compile.h"
#include "graph/nre_eval.h"
#include "graph/nre_parser.h"
#include "workload/flights.h"
#include "workload/random_graph.h"

namespace gdx {
namespace {

// --- Randomized differential: compiled vs legacy ---------------------------

struct DifferentialParams {
  uint64_t seed;
  size_t nodes;
  size_t edges;
  size_t labels;
  size_t depth;
  size_t nres_per_graph;
};

class CompiledVsLegacyTest
    : public ::testing::TestWithParam<DifferentialParams> {};

TEST_P(CompiledVsLegacyTest, RelationsAreIdentical) {
  const DifferentialParams& p = GetParam();
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams gp;
  gp.num_nodes = p.nodes;
  gp.num_edges = p.edges;
  gp.num_labels = p.labels;
  gp.seed = p.seed;
  Graph g = MakeRandomGraph(gp, universe, alphabet);
  GraphView view(g);
  Rng rng(p.seed * 7919 + 13);

  NaiveNreEvaluator legacy;
  AutomatonNreEvaluator compiled;
  for (size_t i = 0; i < p.nres_per_graph; ++i) {
    NrePtr nre = MakeRandomNre(p.depth, p.labels, alphabet, rng);
    BinaryRelation expected = legacy.Eval(nre, g);
    EXPECT_EQ(compiled.Eval(nre, g), expected) << nre->ToString(alphabet);
    EXPECT_EQ(compiled.EvalOnView(nre, view), expected)
        << "view path: " << nre->ToString(alphabet);

    // Source- and pair-queries agree with the full relation.
    if (!g.nodes().empty()) {
      Value src = g.nodes()[rng.NextU64() % g.nodes().size()];
      std::vector<Value> expected_from;
      for (const NodePair& pair : expected) {
        if (pair.first == src) expected_from.push_back(pair.second);
      }
      std::vector<Value> actual_from = compiled.EvalFrom(nre, g, src);
      // EvalFrom orders by node insertion, the relation by raw encoding:
      // compare as sets.
      std::sort(expected_from.begin(), expected_from.end(),
                [](Value a, Value b) { return a.raw() < b.raw(); });
      std::sort(actual_from.begin(), actual_from.end(),
                [](Value a, Value b) { return a.raw() < b.raw(); });
      EXPECT_EQ(actual_from, expected_from) << nre->ToString(alphabet);

      Value dst = g.nodes()[rng.NextU64() % g.nodes().size()];
      bool expected_pair = false;
      for (const NodePair& pair : expected) {
        if (pair.first == src && pair.second == dst) {
          expected_pair = true;
          break;
        }
      }
      EXPECT_EQ(compiled.Contains(nre, g, src, dst), expected_pair)
          << nre->ToString(alphabet);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, CompiledVsLegacyTest,
    ::testing::Values(
        // Small dense graphs, deep expressions (nest/converse heavy).
        DifferentialParams{1, 6, 12, 2, 4, 8},
        DifferentialParams{2, 8, 20, 2, 4, 8},
        DifferentialParams{3, 10, 30, 3, 3, 8},
        DifferentialParams{4, 12, 24, 3, 4, 8},
        DifferentialParams{5, 16, 48, 2, 3, 8},
        DifferentialParams{6, 20, 60, 3, 3, 6},
        DifferentialParams{7, 30, 120, 2, 3, 6},
        DifferentialParams{8, 40, 80, 4, 3, 6},
        // Sparse graphs: disconnected components, isolated behavior.
        DifferentialParams{9, 25, 12, 2, 3, 6},
        DifferentialParams{10, 50, 25, 3, 3, 4},
        // ≥200 nodes: the acceptance-criterion scale.
        DifferentialParams{11, 200, 800, 2, 3, 3},
        DifferentialParams{12, 240, 480, 3, 3, 3}));

TEST(CompiledVsLegacyTest, HandPickedNestAndConverseShapes) {
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams gp;
  gp.num_nodes = 15;
  gp.num_edges = 45;
  gp.num_labels = 3;
  gp.seed = 424242;
  Graph g = MakeRandomGraph(gp, universe, alphabet);
  NaiveNreEvaluator legacy;
  AutomatonNreEvaluator compiled;
  for (const char* text : {
           "eps",
           "l1-",
           "(l1 + l2)*",
           "[l1]",
           "[l1-]",
           "[[l1] . l2]",
           "l1 [l2 . l3-] . l1-",
           "(l1 . [l2-])* + l3",
           "[l1 + l2-] . (l3- . l3)*",
           "l1 . l1* [l2] . l1- . (l1-)*",
       }) {
    Result<NrePtr> nre = ParseNre(text, alphabet);
    ASSERT_TRUE(nre.ok()) << text << ": " << nre.status().ToString();
    EXPECT_EQ(compiled.Eval(*nre, g), legacy.Eval(*nre, g)) << text;
  }
}

TEST(CompiledVsLegacyTest, EmptyAndSingletonGraphs) {
  Universe universe;
  Alphabet alphabet;
  SymbolId a = alphabet.Intern("a");
  NaiveNreEvaluator legacy;
  AutomatonNreEvaluator compiled;

  Graph empty;
  EXPECT_TRUE(compiled.Eval(Nre::Star(Nre::Symbol(a)), empty).empty());
  EXPECT_TRUE(compiled.EvalFrom(Nre::Symbol(a), empty,
                                universe.MakeConstant("zz")).empty());

  Graph loop;  // one node, self loop
  Value v = universe.MakeConstant("v");
  loop.AddEdge(v, a, v);
  for (const NrePtr& nre :
       {Nre::Epsilon(), Nre::Symbol(a), Nre::Inverse(a),
        Nre::Star(Nre::Symbol(a)), Nre::Nest(Nre::Symbol(a))}) {
    EXPECT_EQ(compiled.Eval(nre, loop), legacy.Eval(nre, loop));
  }
}

// --- Compiled-automaton cache ----------------------------------------------

TEST(CompiledCacheTest, SharesCompilationsAndStaysInvisible) {
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams gp;
  gp.num_nodes = 12;
  gp.num_edges = 36;
  gp.num_labels = 2;
  gp.seed = 7;
  Graph g1 = MakeRandomGraph(gp, universe, alphabet);
  gp.seed = 8;
  Graph g2 = MakeRandomGraph(gp, universe, alphabet);

  Result<NrePtr> nre = ParseNre("l1 . (l2- + l1)* [l2]", alphabet);
  ASSERT_TRUE(nre.ok());

  EngineCache cache;
  AutomatonNreEvaluator cached_eval(&cache);
  AutomatonNreEvaluator plain_eval;

  // Same relation with and without the cache, across distinct graphs.
  EXPECT_EQ(cached_eval.Eval(*nre, g1), plain_eval.Eval(*nre, g1));
  EXPECT_EQ(cached_eval.Eval(*nre, g2), plain_eval.Eval(*nre, g2));

  // One miss (first compile), then hits — including for a structurally
  // equal but distinct NRE object (the key is the raw structure).
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.compile_misses, 1u);
  EXPECT_EQ(stats.compile_hits, 1u);
  Result<NrePtr> same_structure = ParseNre("l1 . (l2- + l1)* [l2]", alphabet);
  ASSERT_TRUE(same_structure.ok());
  cached_eval.Eval(*same_structure, g1);
  EXPECT_EQ(cache.stats().compile_misses, 1u);
  EXPECT_EQ(cache.stats().compile_hits, 2u);
  EXPECT_EQ(cache.sizes().compiled_entries, 1u);
}

TEST(CompiledCacheTest, LruCapBoundsCompiledMemo) {
  EngineCacheOptions options;
  options.max_compiled_entries = 3;
  options.num_shards = 1;  // exact global LRU (the behavior under test)
  EngineCache cache(options);
  Alphabet alphabet;
  for (int i = 0; i < 8; ++i) {
    SymbolId s = alphabet.Intern("s" + std::to_string(i));
    cache.GetOrCompile(Nre::Symbol(s));
  }
  EXPECT_EQ(cache.sizes().compiled_entries, 3u);
  EXPECT_EQ(cache.stats().compile_evictions, 5u);
}

/// The cache determinism contract of the ISSUE: with the compiled-automaton
/// cache engaged, solve outputs are byte-identical at 1, 2 and 8
/// intra-solve workers (concurrent workers share compilations).
TEST(CompiledCacheTest, EngineOutputsByteIdenticalAt1and2and8Workers) {
  auto solve_all = [](size_t intra_threads) -> std::vector<std::string> {
    EngineOptions options;
    options.instantiation.max_witnesses_per_edge = 3;
    options.max_solutions = 12;
    options.intra_solve_threads = intra_threads;
    EXPECT_TRUE(options.enable_cache);  // compiled cache engaged
    ExchangeEngine engine(options);
    std::vector<std::string> out;
    std::vector<Scenario> scenarios;
    scenarios.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
    scenarios.push_back(MakeExample22Scenario(FlightConstraintMode::kSameAs));
    scenarios.push_back(MakeExample52Scenario());
    for (uint64_t seed = 21; seed <= 23; ++seed) {
      FlightWorkloadParams params;
      params.seed = seed;
      params.num_cities = 4;
      params.num_flights = 5;
      params.num_hotels = 3;
      params.mode = FlightConstraintMode::kEgd;
      scenarios.push_back(MakeFlightScenario(params));
    }
    for (Scenario& s : scenarios) {
      Result<ExchangeOutcome> outcome = engine.Solve(s);
      out.push_back(outcome.ok()
                        ? outcome->ToString(*s.universe, *s.alphabet)
                        : outcome.status().ToString());
    }
    // The compiled memo must have been exercised, and under reuse the
    // hits must dominate: every candidate graph re-evaluates the same
    // constraint NREs.
    CacheStats stats = engine.cache().stats();
    EXPECT_GT(stats.compile_misses, 0u);
    EXPECT_GT(stats.compile_hits, stats.compile_misses);
    return out;
  };

  std::vector<std::string> at1 = solve_all(1);
  std::vector<std::string> at2 = solve_all(2);
  std::vector<std::string> at8 = solve_all(8);
  ASSERT_EQ(at1.size(), at2.size());
  ASSERT_EQ(at1.size(), at8.size());
  for (size_t i = 0; i < at1.size(); ++i) {
    EXPECT_EQ(at2[i], at1[i]) << "scenario " << i << " at 2 workers";
    EXPECT_EQ(at8[i], at1[i]) << "scenario " << i << " at 8 workers";
  }
}

// --- Bit-parallel multi-source BFS vs per-source reference (ISSUE 10) ------

class BatchedVsPerSourceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedVsPerSourceTest, AllEntryPointsAgree) {
  const uint64_t seed = GetParam();
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams gp;
  // 16..112 nodes: past 64 the EvalOnView start set spans several source
  // chunks, exercising the multi-word lane packing.
  gp.num_nodes = 16 + (seed % 7) * 16;
  gp.num_edges = 3 * gp.num_nodes;
  gp.num_labels = 2 + seed % 2;
  gp.seed = seed;
  Graph g = MakeRandomGraph(gp, universe, alphabet);
  GraphView view(g);
  Rng rng(seed * 6271 + 5);

  AutomatonNreEvaluator batched;
  batched.set_multi_source_mode(MultiSourceMode::kBatched);
  AutomatonNreEvaluator per_source;
  per_source.set_multi_source_mode(MultiSourceMode::kPerSource);

  for (size_t i = 0; i < 3; ++i) {
    NrePtr nre = MakeRandomNre(3, gp.num_labels, alphabet, rng);
    const BinaryRelation expected = per_source.EvalOnView(nre, view);
    EXPECT_EQ(batched.EvalOnView(nre, view), expected)
        << "seed " << seed << ": " << nre->ToString(alphabet);

    // Whole-graph source batch: element-for-element the per-source loop.
    const std::vector<Value>& srcs = g.nodes();
    const std::vector<std::vector<Value>> many =
        batched.EvalFromMany(nre, g, srcs);
    ASSERT_EQ(many.size(), srcs.size());
    for (size_t s = 0; s < srcs.size(); ++s) {
      EXPECT_EQ(many[s], per_source.EvalFrom(nre, g, srcs[s]))
          << "seed " << seed << " src " << s;
    }

    if (!g.nodes().empty()) {
      Value src = g.nodes()[rng.NextU64() % g.nodes().size()];
      Value dst = g.nodes()[rng.NextU64() % g.nodes().size()];
      EXPECT_EQ(batched.Contains(nre, g, src, dst),
                per_source.Contains(nre, g, src, dst))
          << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds200, BatchedVsPerSourceTest,
                         ::testing::Range<uint64_t>(1, 201));

TEST(BatchedVsPerSourceTest, CnreSatisfiabilityAgrees) {
  // The CNRE matcher sits on EvalOnView; batched vs per-source evaluators
  // must agree on join results and Boolean satisfiability.
  Universe universe;
  Alphabet alphabet;
  AutomatonNreEvaluator batched;
  batched.set_multi_source_mode(MultiSourceMode::kBatched);
  AutomatonNreEvaluator per_source;
  per_source.set_multi_source_mode(MultiSourceMode::kPerSource);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 40;
    gp.num_edges = 120;
    gp.num_labels = 2;
    gp.seed = seed;
    Graph g = MakeRandomGraph(gp, universe, alphabet);
    CnreQuery q;
    VarId x = q.InternVar("x");
    VarId y = q.InternVar("y");
    VarId z = q.InternVar("z");
    Result<NrePtr> hop = ParseNre("(l1 + l2)*", alphabet);
    Result<NrePtr> back = ParseNre("l2- . l1", alphabet);
    ASSERT_TRUE(hop.ok() && back.ok());
    q.AddAtom(Term::Var(x), *hop, Term::Var(y));
    q.AddAtom(Term::Var(y), *back, Term::Var(z));
    q.SetHead({x, z});
    EXPECT_EQ(EvaluateCnre(q, g, batched), EvaluateCnre(q, g, per_source))
        << "seed " << seed;
    EXPECT_EQ(CnreSatisfiable(q, g, batched, {}),
              CnreSatisfiable(q, g, per_source, {}))
        << "seed " << seed;
  }
}

/// Thread-safe capture of batch-pass telemetry for assertions.
class RecordingNreSink : public NreEvalStatsSink {
 public:
  void RecordNreBatchPass(size_t sources) override {
    std::lock_guard<std::mutex> lock(mu_);
    passes_.push_back(sources);
  }
  std::vector<size_t> passes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return passes_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<size_t> passes_;
};

TEST(BatchedVsPerSourceTest, LargeBatchesSplitIntoWordSizedPasses) {
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams gp;
  gp.num_nodes = 200;
  gp.num_edges = 600;
  gp.num_labels = 2;
  gp.seed = 99;
  Graph g = MakeRandomGraph(gp, universe, alphabet);

  AutomatonNreEvaluator batched;
  RecordingNreSink sink;
  batched.set_stats_sink(&sink);
  Result<NrePtr> nre = ParseNre("(l1 + l2)*", alphabet);
  ASSERT_TRUE(nre.ok());
  const std::vector<std::vector<Value>> many =
      batched.EvalFromMany(*nre, g, g.nodes());
  ASSERT_EQ(many.size(), 200u);

  // 200 sources → ceil(200/64) = 4 passes, 64 lanes per full word.
  const std::vector<size_t> passes = sink.passes();
  ASSERT_EQ(passes.size(), 4u);
  size_t total = 0;
  for (size_t sources : passes) {
    EXPECT_LE(sources, 64u);
    total += sources;
  }
  EXPECT_EQ(total, 200u);
}

TEST(BatchedVsPerSourceTest, InvalidSourcesGetEmptyVectorsInOrder) {
  Universe universe;
  Alphabet alphabet;
  SymbolId a = alphabet.Intern("a");
  Graph g;
  Value u = universe.MakeConstant("u");
  Value v = universe.MakeConstant("v");
  g.AddEdge(u, a, v);
  Value stranger = universe.MakeConstant("stranger");  // not in g

  AutomatonNreEvaluator batched;
  const std::vector<std::vector<Value>> out =
      batched.EvalFromMany(Nre::Symbol(a), g, {stranger, u, stranger, v});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].empty());
  EXPECT_EQ(out[1], std::vector<Value>{v});
  EXPECT_TRUE(out[2].empty());
  EXPECT_TRUE(out[3].empty());
}

TEST(BatchedVsPerSourceTest, PreFiredTokenTruncatesBatchedEvaluation) {
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams gp;
  gp.num_nodes = 120;
  gp.num_edges = 360;
  gp.num_labels = 2;
  gp.seed = 17;
  Graph g = MakeRandomGraph(gp, universe, alphabet);
  GraphView view(g);
  AutomatonNreEvaluator batched;
  Result<NrePtr> nre = ParseNre("(l1 + l2)*", alphabet);
  ASSERT_TRUE(nre.ok());
  const BinaryRelation full = batched.EvalOnView(*nre, view);
  ASSERT_FALSE(full.empty());

  CancellationToken token;
  token.RequestStop();
  ScopedEvalCancellation scope(&token);
  const BinaryRelation truncated = batched.EvalOnView(*nre, view);
  // A canceled evaluation may return anything up to the full answer, but
  // never pairs outside it (no garbage lanes).
  EXPECT_LE(truncated.size(), full.size());
  for (const NodePair& pair : truncated) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), pair));
  }
}

/// Engine-level byte identity of the multi-source strategies: on the egd
/// scenarios, every (MultiSourceMode × {1, 2, 8} intra-solve workers)
/// solve renders exactly the per-source, one-worker reference output.
TEST(BatchedVsPerSourceTest, EngineOutputsIdenticalAcrossModesAndWorkers) {
  auto solve_all = [](MultiSourceMode mode,
                      size_t workers) -> std::vector<std::string> {
    EngineOptions options;
    // Keep the witness-choice space small: an egd-unsatisfiable seed makes
    // the existence search exhaust *every* rank (no early exit), so at
    // 3 witnesses/edge a single solve can take minutes. 2^n with n small
    // still engages the fan-out while keeping six full sweeps cheap.
    options.instantiation.max_witnesses_per_edge = 2;
    options.max_solutions = 8;
    options.intra_solve_threads = workers;
    options.nre_multi_source = mode;
    ExchangeEngine engine(options);
    std::vector<Scenario> scenarios;
    scenarios.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
    scenarios.push_back(MakeExample52Scenario());
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      FlightWorkloadParams params;
      params.seed = seed;
      params.num_cities = 4;
      params.num_flights = 4;
      params.num_hotels = 2;
      params.mode = FlightConstraintMode::kEgd;
      scenarios.push_back(MakeFlightScenario(params));
    }
    std::vector<std::string> out;
    for (Scenario& s : scenarios) {
      Result<ExchangeOutcome> outcome = engine.Solve(s);
      out.push_back(outcome.ok()
                        ? outcome->ToString(*s.universe, *s.alphabet)
                        : outcome.status().ToString());
    }
    return out;
  };

  const std::vector<std::string> baseline =
      solve_all(MultiSourceMode::kPerSource, 1);
  for (MultiSourceMode mode :
       {MultiSourceMode::kPerSource, MultiSourceMode::kBatched}) {
    for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
      if (mode == MultiSourceMode::kPerSource && workers == 1) continue;
      const std::vector<std::string> got = solve_all(mode, workers);
      ASSERT_EQ(got.size(), baseline.size());
      for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(got[i], baseline[i])
            << "scenario " << i << " diverged at mode="
            << static_cast<int>(mode) << " workers=" << workers;
      }
    }
  }
}

// --- Local compile memo LRU (ISSUE 10 satellite) ---------------------------

TEST(LocalMemoLruTest, HottestEntrySurvivesCapPressure) {
  Alphabet alphabet;
  AutomatonNreEvaluator eval(/*compile_cache=*/nullptr, /*local_memo_cap=*/3);
  auto sym = [&](const char* name) { return Nre::Symbol(alphabet.Intern(name)); };
  NrePtr a = sym("a"), b = sym("b"), c = sym("c"), d = sym("d");

  // Hold the hot entry's compiled form alive so its address cannot be
  // recycled by a later compile — pointer identity then proves memo reuse.
  CompiledNrePtr hot = eval.GetCompiled(a);
  eval.GetCompiled(b);
  eval.GetCompiled(c);
  EXPECT_EQ(eval.local_memo_size(), 3u);

  // Touch `a`, making `b` the LRU victim; inserting `d` must evict `b`,
  // not clear the memo wholesale (the pre-ISSUE-10 behavior).
  EXPECT_EQ(eval.GetCompiled(a).get(), hot.get());
  eval.GetCompiled(d);
  EXPECT_EQ(eval.local_memo_size(), 3u);
  EXPECT_EQ(eval.GetCompiled(a).get(), hot.get())
      << "hottest entry was evicted at cap pressure";
  EXPECT_EQ(eval.local_memo_size(), 3u);  // a, c, d (+ nothing re-added)
}

TEST(LocalMemoLruTest, RepeatedHitsNeverGrowTheMemo) {
  Alphabet alphabet;
  AutomatonNreEvaluator eval(/*compile_cache=*/nullptr, /*local_memo_cap=*/2);
  NrePtr a = Nre::Symbol(alphabet.Intern("a"));
  CompiledNrePtr first = eval.GetCompiled(a);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(eval.GetCompiled(a).get(), first.get());
  }
  EXPECT_EQ(eval.local_memo_size(), 1u);
}

// --- Scratch arena steady state (ISSUE 10 satellite) -----------------------

TEST(ScratchArenaTest, SteadyStateEvaluationAllocatesNothing) {
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams gp;
  gp.num_nodes = 100;
  gp.num_edges = 300;
  gp.num_labels = 2;
  gp.seed = 5;
  Graph g = MakeRandomGraph(gp, universe, alphabet);
  GraphView view(g);
  Result<NrePtr> nre = ParseNre("(l1 + l2)* . l1-", alphabet);
  ASSERT_TRUE(nre.ok());

  for (MultiSourceMode mode :
       {MultiSourceMode::kBatched, MultiSourceMode::kPerSource}) {
    AutomatonNreEvaluator eval;
    eval.set_multi_source_mode(mode);
    // Warm-up: grows this thread's scratch to the workload's high-water
    // mark through every entry point.
    eval.EvalOnView(*nre, view);
    eval.EvalFromMany(*nre, g, g.nodes());
    eval.EvalFrom(*nre, g, g.nodes()[0]);

    const uint64_t before = NreEvalScratchAllocs();
    for (int i = 0; i < 5; ++i) {
      eval.EvalOnView(*nre, view);
      eval.EvalFromMany(*nre, g, g.nodes());
      eval.EvalFrom(*nre, g, g.nodes()[0]);
    }
    EXPECT_EQ(NreEvalScratchAllocs(), before)
        << "steady-state evaluation grew the scratch arena (mode "
        << static_cast<int>(mode) << ")";
  }
}

}  // namespace
}  // namespace gdx
