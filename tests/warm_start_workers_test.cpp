// Cache side effects of the intra-solve searches must be a function of the
// input alone. The witness-choice searches fan out speculatively; ranks
// above the decided ceiling are abandoned and must leave no trace in the
// EngineCache. These tests pin the intra-solve worker count explicitly, so
// they exercise the fan-out on any host, including a single-core one where
// the adaptive default would never fan out.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "persist/snapshot.h"
#include "workload/flights.h"

namespace gdx {
namespace {

/// Paper examples (one with a query, so certain answers enumerate
/// solutions) plus generated Flight workloads whose witness-choice spaces
/// are large enough to fan out.
std::vector<Scenario> MakeScenarios() {
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
  return scenarios;
}

EngineOptions OptionsWithWorkers(size_t intra_solve_threads) {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 12;
  options.intra_solve_threads = intra_solve_threads;
  return options;
}

/// Solves every scenario in order; returns the rendered outcomes.
std::vector<std::string> SolveAll(const ExchangeEngine& engine) {
  std::vector<Scenario> scenarios = MakeScenarios();
  std::vector<std::string> out;
  for (Scenario& s : scenarios) {
    Result<ExchangeOutcome> outcome = engine.Solve(s);
    out.push_back(outcome.ok() ? outcome->ToString(*s.universe, *s.alphabet)
                               : outcome.status().ToString());
  }
  return out;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "gdx_warm_workers_" + name;
}

TEST(WarmStartWorkersTest, ColdRunCacheIsWorkerCountInvariant) {
  // Same outputs, same hit/miss counters, and byte-identical snapshots at
  // 1, 2 and 8 intra-solve workers: abandoned speculative ranks neither
  // publish entries nor count lookups.
  std::vector<std::string> reference_out;
  CacheStats reference;
  std::string reference_snapshot;
  for (size_t workers : {1u, 2u, 8u}) {
    ExchangeEngine engine(OptionsWithWorkers(workers));
    std::vector<std::string> out = SolveAll(engine);
    CacheStats stats = engine.cache().stats();
    std::string snapshot = EncodeSnapshot(engine.cache().ExportWarmState());
    if (workers == 1) {
      reference_out = out;
      reference = stats;
      reference_snapshot = snapshot;
      EXPECT_GT(reference.nre_misses, 0u);
      EXPECT_GT(reference.compile_misses, 0u);
      continue;
    }
    EXPECT_EQ(out, reference_out) << workers << " workers";
    EXPECT_EQ(stats.nre_misses, reference.nre_misses) << workers;
    EXPECT_EQ(stats.nre_hits, reference.nre_hits) << workers;
    EXPECT_EQ(stats.compile_misses, reference.compile_misses) << workers;
    EXPECT_EQ(stats.compile_hits, reference.compile_hits) << workers;
    EXPECT_EQ(stats.answer_misses, reference.answer_misses) << workers;
    EXPECT_EQ(stats.chase_misses, reference.chase_misses) << workers;
    EXPECT_TRUE(snapshot == reference_snapshot)
        << "cold snapshot bytes differ at " << workers << " workers";
  }
}

TEST(WarmStartWorkersTest, WarmStartIsMissFreeAcrossWorkerCounts) {
  // A snapshot saved at one worker count serves a re-run at another with
  // zero NRE and compile misses, in both directions.
  const std::pair<size_t, size_t> kRuns[] = {{8, 1}, {1, 8}, {8, 8}};
  for (const auto& [cold_workers, warm_workers] : kRuns) {
    SCOPED_TRACE("cold " + std::to_string(cold_workers) + " warm " +
                 std::to_string(warm_workers));
    std::string path = TempPath(std::to_string(cold_workers) + "_" +
                                std::to_string(warm_workers) + ".gdxsnap");
    ExchangeEngine cold(OptionsWithWorkers(cold_workers));
    std::vector<std::string> cold_out = SolveAll(cold);
    ASSERT_TRUE(cold.SaveWarmState(path).ok());

    ExchangeEngine warm(OptionsWithWorkers(warm_workers));
    Result<SnapshotRestoreStats> restored = warm.WarmStart(path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::vector<std::string> warm_out = SolveAll(warm);

    EXPECT_EQ(warm_out, cold_out);
    CacheStats stats = warm.cache().stats();
    EXPECT_EQ(stats.nre_misses, 0u);
    EXPECT_EQ(stats.compile_misses, 0u);
    EXPECT_EQ(stats.chase_misses, 0u);
    EXPECT_GT(stats.nre_restored_hits, 0u);
  }
}

}  // namespace
}  // namespace gdx
