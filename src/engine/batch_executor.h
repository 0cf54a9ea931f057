#ifndef GDX_ENGINE_BATCH_EXECUTOR_H_
#define GDX_ENGINE_BATCH_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/exchange_engine.h"
#include "obs/histogram.h"

namespace gdx {

/// Knobs of the batch layer.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t num_threads = 0;
  EngineOptions engine;
};

/// Per-scenario latency attribution (ISSUE 6 satellite): how long the
/// scenario sat queued behind other work before a worker picked it up,
/// and how long the solve itself ran. Both were previously
/// indistinguishable inside Metrics::total_seconds; a resident service
/// needs them apart — rising queue_wait at flat execute means the pool is
/// saturating, the opposite means the scenarios got harder.
struct ScenarioTiming {
  double queue_wait_seconds = 0;
  double execute_seconds = 0;
};

/// Order-stable batch result: outcomes[i] belongs to scenarios[i]
/// regardless of which worker solved it or in what order workers finished.
struct BatchReport {
  std::vector<Result<ExchangeOutcome>> outcomes;
  /// Accumulated per-solve metrics. Since ISSUE 2 the per-solve cache
  /// counters are exact (thread-local attribution) and sum to the
  /// batch-wide cache deltas reported here.
  Metrics total;
  /// timings[i] belongs to scenarios[i] (ISSUE 6): per-scenario latency
  /// samples — these feed the batch.queue_wait_ns / batch.execute_ns
  /// registry histograms and the p50/p99 lines of Summary().
  std::vector<ScenarioTiming> timings;
  double wall_seconds = 0;
  size_t num_threads = 0;

  size_t yes = 0, no = 0, unknown = 0, errors = 0;

  /// Deterministically-bucketed latency distributions over `timings`
  /// (obs/histogram.h layout, nanosecond values).
  obs::HistogramSnapshot ExecuteHistogram() const;
  obs::HistogramSnapshot QueueWaitHistogram() const;

  /// Human-readable verdict counts + latency percentiles + metrics block
  /// for CLI/bench output.
  std::string Summary() const;
};

/// Runs many scenarios concurrently through one shared ExchangeEngine over
/// a work-stealing thread pool (ISSUE tentpole part 2). Scenarios are
/// independent — each owns its universe/instance — so solves parallelize
/// without coordination; the engine cache is shared and internally
/// synchronized, and identical sub-evaluations across scenarios are paid
/// for once. Outcomes are deterministic and order-stable: thread count
/// affects wall time and cache traffic only, never results.
class BatchExecutor {
 public:
  explicit BatchExecutor(BatchOptions options = {});

  /// Solves every scenario; outcomes[i] corresponds to scenarios[i].
  BatchReport SolveAll(std::vector<Scenario>& scenarios);

  /// Warm-start hooks (ISSUE 4): restore/save the shared engine cache
  /// around SolveAll, so a serving process resumes with every NRE memo,
  /// answer memo, and compiled automaton of its previous life. The CLI's
  /// `batch --cache-load/--cache-save` flags call exactly these.
  Result<SnapshotRestoreStats> WarmStart(const std::string& path) {
    return engine_.WarmStart(path);
  }
  Status SaveWarmState(const std::string& path) const {
    return engine_.SaveWarmState(path);
  }

  const ExchangeEngine& engine() const { return engine_; }
  size_t num_threads() const { return pool_.num_threads(); }

 private:
  BatchOptions options_;
  ExchangeEngine engine_;
  ThreadPool pool_;
};

}  // namespace gdx

#endif  // GDX_ENGINE_BATCH_EXECUTOR_H_
