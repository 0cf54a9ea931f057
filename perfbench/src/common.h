// Shared plumbing of the benchmark: configuration, result reporting, and
// the statistics every workload computes the same way.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/exchange_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Which outcome the self-test corrupts before the oracle sees it.
enum class Corruption { kNone, kDropAnswer, kDropWitnessEdge };

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test sizes: a handful of inputs per workload.
  bool tiny = false;
  Corruption corrupt = Corruption::kNone;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Oracle verdict over every checked output of the run.
  bool correct = true;
  std::vector<Metric> metrics;
  /// Human-readable remarks printed before the result line.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The configuration every workload runs: engine defaults (delta chase,
/// component-parallel egd repair, caches on) with intra-solve parallelism
/// pinned to one worker — see KNOWN_DEFECTS.md for why — and the witness
/// budget of gdx_cli (3 witnesses per edge instead of the library's 6; see
/// README.md).
gdx::EngineOptions BenchEngineOptions();

/// Process CPU time (user + system, all threads), seconds.
double CpuSeconds();
/// Peak resident set size of the process so far, MiB.
double PeakRssMb();

/// Linear-interpolated quantile (q in [0, 1]) of the samples.
double Quantile(std::vector<double> samples, double q);

/// The highest of p99, p95, p90, p75 and p50 that leaves at least ten of
/// `n` samples beyond it (p50 when even that is not met).
double SupportedTailQuantile(size_t n);

/// "p99", "p95", ... for a quantile from SupportedTailQuantile.
std::string QuantileLabel(double q);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
