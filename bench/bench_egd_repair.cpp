// Egd repair at hardware scale. The workload is a random bipartite
// "alias" graph — n labeled nulls each pointing via h to a random hub
// constant, plus random null-to-null noise edges — so the functional egd
// (x1, h, x3), (x2, h, x3) -> x1 = x2 merges every hub's nulls in one
// round, with a million-node point for the scaling story. The 16k point
// enters the bench_diff.py-gated artifact so a regression is visible
// run-over-run in CI.
#include "bench_util.h"

#include "chase/egd_chase.h"
#include "common/rng.h"
#include "exchange/parser.h"

namespace gdx {
namespace {

AutomatonNreEvaluator eval;

constexpr char kFunctionalEgd[] = "(x1, h, x3), (x2, h, x3) -> x1 = x2";

/// n nulls, n/4 hub constants, one h-edge per null to a random hub and
/// 2n random e-edges between nulls. Total nodes ≈ 1.25 n.
Graph MakeAliasGraph(size_t n, Universe& universe, Alphabet& alphabet,
                     uint64_t seed) {
  SymbolId h = alphabet.Intern("h");
  SymbolId e = alphabet.Intern("e");
  Rng rng(seed);
  std::vector<Value> hubs;
  const size_t num_hubs = n / 4 + 1;
  hubs.reserve(num_hubs);
  for (size_t i = 0; i < num_hubs; ++i) {
    hubs.push_back(universe.MakeConstant("hub" + std::to_string(i)));
  }
  std::vector<Value> nulls;
  nulls.reserve(n);
  for (size_t i = 0; i < n; ++i) nulls.push_back(universe.FreshNull());
  Graph g;
  for (const Value& null : nulls) {
    g.AddEdge(null, h, hubs[rng.NextU64() % num_hubs]);
  }
  for (size_t i = 0; i < 2 * n; ++i) {
    g.AddEdge(nulls[rng.NextU64() % n], e, nulls[rng.NextU64() % n]);
  }
  return g;
}

void BM_EgdRepairSequential(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Universe universe;
  Alphabet alphabet;
  Graph base = MakeAliasGraph(n, universe, alphabet, /*seed=*/41);
  Result<TargetEgd> egd = ParseTargetEgd(kFunctionalEgd, alphabet, universe);
  if (!egd.ok()) {
    state.SkipWithError("egd parse failed");
    return;
  }
  std::vector<TargetEgd> egds;
  egds.push_back(std::move(*egd));

  EgdChaseResult result;
  for (auto _ : state) {
    state.PauseTiming();
    Graph g = base;  // the chase rewrites in place
    state.ResumeTiming();
    result = ChaseGraphEgds(g, egds, eval);
    benchmark::DoNotOptimize(g);
  }
  state.counters["merges"] = static_cast<double>(result.merges);
  state.counters["rounds"] = static_cast<double>(result.rounds);
}
BENCHMARK(BM_EgdRepairSequential)
    ->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void PrintRepro() {
  Universe universe;
  Alphabet alphabet;
  Graph g = MakeAliasGraph(1 << 10, universe, alphabet, 41);
  Result<TargetEgd> egd = ParseTargetEgd(kFunctionalEgd, alphabet, universe);
  std::vector<TargetEgd> egds;
  egds.push_back(std::move(*egd));
  EgdChaseResult result = ChaseGraphEgds(g, egds, eval);
  std::printf("alias graph 1024 nulls: %zu merges, %zu rounds, "
              "failed=%s\n",
              result.merges, result.rounds, result.failed ? "yes" : "no");
}

}  // namespace
}  // namespace gdx

GDX_BENCH_MAIN(gdx::PrintRepro)
