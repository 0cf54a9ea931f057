// Design-choice ablations (DESIGN.md §3): egd-chase merge policy (eager vs
// deferred), NRE simplification before evaluation, greedy core
// minimization of solutions, and isomorphic dedup in solution enumeration.
#include "bench_util.h"

#include "chase/egd_chase.h"
#include "chase/pattern_chase.h"
#include "graph/nre_simplify.h"
#include "solver/core_minimizer.h"
#include "solver/existence.h"
#include "workload/flights.h"
#include "workload/random_graph.h"

namespace gdx {
namespace {

AutomatonNreEvaluator eval;

void PrintRepro() {
  // Policy equivalence on Example 2.2 (asserted in tests; shown here).
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  GraphPattern a =
      ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
  GraphPattern b = a;
  EgdChaseResult ra = ChasePatternEgds(a, s.setting.egds, eval,
                                       {EgdChasePolicy::kDeferredRounds});
  EgdChaseResult rb = ChasePatternEgds(b, s.setting.egds, eval,
                                       {EgdChasePolicy::kEagerRestart});
  std::printf("egd chase policies on Example 2.2: deferred %zu merges / "
              "%zu rounds, eager %zu merges / %zu rounds, same fixpoint: "
              "%s\n",
              ra.merges, ra.rounds, rb.merges, rb.rounds,
              (a.num_nodes() == b.num_nodes() &&
               a.num_edges() == b.num_edges())
                  ? "yes"
                  : "NO");
  // Simplifier on a deliberately redundant expression.
  Alphabet alphabet;
  NrePtr bloated = Nre::Union(
      Nre::Star(Nre::Star(Nre::Symbol(alphabet.Intern("f")))),
      Nre::Concat(Nre::Epsilon(),
                  Nre::Star(Nre::Symbol(alphabet.Intern("f")))));
  NrePtr slim = SimplifyNre(bloated);
  std::printf("simplifier: %zu AST nodes -> %zu (%s -> %s)\n",
              bloated->Size(), slim->Size(),
              bloated->ToString(alphabet).c_str(),
              slim->ToString(alphabet).c_str());
}

void BM_EgdChasePolicy(benchmark::State& state) {
  const bool eager = state.range(1) == 1;
  FlightWorkloadParams params;
  params.num_flights = static_cast<size_t>(state.range(0));
  params.num_hotels = params.num_flights / 6 + 2;
  params.mode = FlightConstraintMode::kEgd;
  for (auto _ : state) {
    state.PauseTiming();
    Scenario s = MakeFlightScenario(params);
    GraphPattern pi =
        ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
    state.ResumeTiming();
    EgdChaseResult result = ChasePatternEgds(
        pi, s.setting.egds, eval,
        {eager ? EgdChasePolicy::kEagerRestart
               : EgdChasePolicy::kDeferredRounds});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EgdChasePolicy)
    ->Args({20, 0})->Args({20, 1})->Args({60, 0})->Args({60, 1})
    ->Unit(benchmark::kMillisecond);

/// Evaluation cost of a redundant NRE with and without simplification.
void RunSimplifyBench(benchmark::State& state, bool simplify) {
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams params;
  params.num_nodes = 150;
  params.num_edges = 600;
  params.num_labels = 2;
  Graph g = MakeRandomGraph(params, universe, alphabet);
  // ((l1*)* . eps) + (eps + l1*) — semantically just l1*.
  NrePtr l1 = Nre::Symbol(alphabet.Intern("l1"));
  NrePtr bloated = Nre::Union(
      Nre::Concat(Nre::Star(Nre::Star(l1)), Nre::Epsilon()),
      Nre::Union(Nre::Epsilon(), Nre::Star(l1)));
  NrePtr nre = simplify ? SimplifyNre(bloated) : bloated;
  NaiveNreEvaluator naive;
  for (auto _ : state) {
    BinaryRelation rel = naive.Eval(nre, g);
    benchmark::DoNotOptimize(rel);
  }
  state.counters["ast_nodes"] = static_cast<double>(nre->Size());
}
void BM_EvalRaw(benchmark::State& state) { RunSimplifyBench(state, false); }
void BM_EvalSimplified(benchmark::State& state) {
  RunSimplifyBench(state, true);
}
BENCHMARK(BM_EvalRaw)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvalSimplified)->Unit(benchmark::kMillisecond);

/// Core minimization: solution size before/after and its cost.
void BM_CoreMinimize(benchmark::State& state) {
  FlightWorkloadParams params;
  params.num_flights = static_cast<size_t>(state.range(0));
  params.num_hotels = params.num_flights / 4 + 2;
  params.mode = FlightConstraintMode::kEgd;
  Scenario s = MakeFlightScenario(params);
  ExistenceOptions options;
  options.instantiation.max_witnesses_per_edge = 2;
  ExistenceReport report = ExistenceSolver(&eval, options)
                               .Decide(s.setting, *s.instance, *s.universe);
  if (!report.witness.has_value()) {
    state.SkipWithError("no solution for this seed");
    return;
  }
  size_t removed = 0;
  for (auto _ : state) {
    CoreMinimizeStats stats;
    Graph minimized =
        GreedyCoreMinimize(*report.witness, s.setting, *s.instance, eval,
                           *s.universe, &stats);
    benchmark::DoNotOptimize(minimized);
    removed = stats.edges_removed;
  }
  state.counters["edges_before"] =
      static_cast<double>(report.witness->num_edges());
  state.counters["edges_removed"] = static_cast<double>(removed);
}
BENCHMARK(BM_CoreMinimize)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

/// Isomorphic dedup: enumeration with and without it.
void BM_EnumerateSolutions(benchmark::State& state) {
  const bool dedup = state.range(0) == 1;
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  ExistenceOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.dedup_isomorphic = dedup;
  ExistenceSolver solver(&eval, options);
  size_t count = 0;
  for (auto _ : state) {
    std::vector<Graph> solutions =
        solver.EnumerateSolutions(s.setting, *s.instance, *s.universe, 16);
    benchmark::DoNotOptimize(solutions);
    count = solutions.size();
  }
  state.counters["distinct_solutions"] = static_cast<double>(count);
}
BENCHMARK(BM_EnumerateSolutions)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gdx

GDX_BENCH_MAIN(gdx::PrintRepro)
