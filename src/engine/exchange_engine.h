#ifndef GDX_ENGINE_EXCHANGE_ENGINE_H_
#define GDX_ENGINE_EXCHANGE_ENGINE_H_

#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "chase/chase_compiler.h"
#include "common/status.h"
#include "engine/cache.h"
#include "engine/metrics.h"
#include "engine/telemetry.h"
#include "obs/stats_registry.h"
#include "pattern/pattern.h"
#include "solver/certain.h"
#include "solver/core_minimizer.h"
#include "solver/existence.h"
#include "workload/scenario.h"

namespace gdx {

/// Which NRE evaluation engine the pipeline runs on.
enum class EvaluatorKind {
  kAutomaton,  // product-automaton BFS (default, fastest)
  kNaive,      // relation-algebra reference
};

/// Typed knobs of the whole solve pipeline.
struct EngineOptions {
  /// Existence-decision strategy (see solver/existence.h).
  ExistenceStrategy existence_policy = ExistenceStrategy::kAuto;
  /// Chase algorithm of stage 1 (see chase/chase_compiler.h): kDelta, or
  /// the byte-identical kNaive reference.
  ChaseAlgorithm chase_policy = ChaseAlgorithm::kDelta;
  EvaluatorKind evaluator = EvaluatorKind::kAutomaton;

  /// Egd-repair policy of the existence stage's candidate repairs.
  EgdChasePolicy egd_policy = EgdChasePolicy::kDeferredRounds;
  /// Multi-source strategy of the automaton evaluator (ISSUE 10 tentpole
  /// part 2): 64-way bit-parallel BFS by default; kPerSource pins the
  /// byte-identical per-source reference loop. Ignored by kNaive.
  MultiSourceMode nre_multi_source = MultiSourceMode::kBatched;

  /// Witness enumeration budgets for pattern instantiation.
  InstantiationOptions instantiation;
  /// Max instantiations the bounded existence search explores.
  size_t max_candidates = 1u << 20;
  size_t target_tgd_max_rounds = 64;
  /// Dedup enumerated solutions up to null renaming.
  bool dedup_isomorphic = true;

  /// How many structurally distinct solutions certain answers intersect.
  size_t max_solutions = 16;
  /// Compute certain answers when the scenario carries a query.
  bool compute_certain_answers = true;
  /// Greedily core-minimize the existence witness.
  bool minimize_core = false;
  /// Re-check the final solution against the setting (defensive).
  bool verify_witness = true;
  /// Memoize NRE evaluations and per-solution answer sets.
  bool enable_cache = true;
  /// Size caps of the engine cache (LRU eviction; see EngineCacheOptions).
  EngineCacheOptions cache;

  /// Sentinel for intra_solve_threads: derive the worker count per
  /// scenario from the witness-choice space (NumCombinations) — small
  /// spaces run sequentially, large ones fan out up to hardware
  /// concurrency (ISSUE 5 satellite; ROADMAP "adaptive intra-solve
  /// scheduling").
  static constexpr size_t kIntraSolveAdaptive = ~static_cast<size_t>(0);

  /// Intra-solve parallelism (ISSUE 2 tentpole): workers — including the
  /// calling thread — that one Solve's bounded existence search, solution
  /// enumeration and SAT cube deck fan out over. 1 = sequential;
  /// 0 = hardware concurrency; kIntraSolveAdaptive (default) sizes the
  /// fan-out per scenario from the choice space, so tiny searches skip
  /// the pool entirely and an explicit value always wins. The engine owns
  /// the backing pool; outcomes are byte-identical for every value of
  /// this knob. Orthogonal to BatchOptions::num_threads (scenario-level
  /// parallelism): typical deployments raise one of the two — batch
  /// threads for many small scenarios, intra-solve threads for few hard
  /// ones.
  size_t intra_solve_threads = kIntraSolveAdaptive;
  /// Cube-and-conquer width of the SAT-backed path (2^k per-worker DPLL
  /// cubes; 0 = single DPLL call). See ExistenceOptions::sat_cube_vars.
  size_t sat_cube_vars = 4;

  /// Observability (ISSUE 6 tentpole): registry the engine folds every
  /// solve's metrics into — stage-latency histograms (p50/p99 come from
  /// these), chase/search work counters, cache traffic, intra-pool
  /// health. nullptr (the default) disables registry recording entirely:
  /// the engine then pays nothing beyond the Metrics struct it always
  /// filled. The per-solve Metrics read-out view is unchanged either way;
  /// the registry is the engine-wide accumulation `--metrics-json` dumps
  /// (docs/TELEMETRY.md). Borrowed; must outlive the engine.
  obs::StatsRegistry* stats = nullptr;

  ExistenceOptions ToExistenceOptions() const;
};

/// Everything one solve produces. ToString renders the semantic content
/// (verdict, witness, certain answers) deterministically — timings live in
/// `metrics` and are excluded, so equal exchanges render byte-identically.
struct ExchangeOutcome {
  /// The §5 universal representative: s-t chased pattern after the adapted
  /// egd chase. Present unless the adapted chase failed.
  std::optional<GraphPattern> pattern;

  ExistenceReport existence;

  /// The materialized solution (the existence witness, core-minimized when
  /// EngineOptions::minimize_core is set).
  std::optional<Graph> solution;
  bool core_minimized = false;
  CoreMinimizeStats core_stats;
  /// Result of the defensive final check (unset when skipped).
  std::optional<bool> solution_verified;

  std::optional<CertainAnswerResult> certain;

  /// Why the solve stopped early, if it did (ISSUE 8): kCanceled /
  /// kDeadline when the cancellation token fired mid-pipeline (the
  /// existence verdict is then kUnknown with note "search cancelled"
  /// unless an earlier stage already settled it), kNone for a full run.
  /// Excluded from ToString — like timings, it is not semantic content.
  CancellationToken::StopReason interrupt = CancellationToken::StopReason::kNone;

  Metrics metrics;

  std::string ToString(const Universe& universe,
                       const Alphabet& alphabet) const;
};

/// The one-call orchestration subsystem (PR 1 tentpole): encapsulates the
/// full pipeline
///
///   s-t pattern chase → adapted egd chase → existence decision →
///   (core minimization) → certain answers → solution check
///
/// behind Solve(). The engine owns its evaluator and an EngineCache whose
/// memo tables make repeated queries over the same target graph near-free.
/// Solve is const and thread-safe: concurrent calls (the BatchExecutor's
/// mode of operation) share the internally synchronized cache and touch
/// only their own scenario's state. With intra_solve_threads > 1 the
/// engine additionally owns a work-stealing pool that every Solve's
/// witness-choice search fans out over (ISSUE 2 tentpole) — concurrent
/// solves share the pool, each waiting only on its own subranges.
class ExchangeEngine {
 public:
  explicit ExchangeEngine(EngineOptions options = {});

  /// Runs the pipeline on one scenario. The scenario's universe accrues
  /// fresh nulls (as in any hand-wired run); setting/schemas are read-only.
  /// `cancel` (optional, borrowed) aborts the solve cooperatively: a
  /// cancelled solve reports ExistenceVerdict::kUnknown.
  Result<ExchangeOutcome> Solve(const Scenario& scenario,
                                const CancellationToken* cancel) const;
  Result<ExchangeOutcome> Solve(const Scenario& scenario) const {
    return Solve(scenario, nullptr);
  }

  // --- Warm-start persistence (ISSUE 4 tentpole) ------------------------

  /// Restores engine warm state — NRE memo, answer memo, and compiled
  /// automata — from a snapshot saved by SaveWarmState (or
  /// EngineCache::SaveSnapshot). A cold process that warm-starts from an
  /// identical prior run's snapshot skips every NRE evaluation and
  /// automaton compilation it would otherwise redo. Corruption-safe: a
  /// bad file restores nothing and returns a descriptive error; the
  /// engine then simply runs cold. Call before the first Solve —
  /// restored entries merge under live ones, so later calls still work,
  /// they just restore less.
  Result<SnapshotRestoreStats> WarmStart(const std::string& path);

  /// Saves the engine's current warm state to `path` (docs/FORMAT.md).
  Status SaveWarmState(const std::string& path) const;

  const EngineOptions& options() const { return options_; }
  /// The evaluator the pipeline runs on (cache-decorated when enabled).
  const NreEvaluator& evaluator() const {
    return caching_eval_ != nullptr
               ? static_cast<const NreEvaluator&>(*caching_eval_)
               : *base_eval_;
  }
  EngineCache& cache() const { return *cache_; }
  /// The intra-solve worker count Solve actually uses (>= 1).
  size_t intra_solve_threads() const;

  /// Pushes point-in-time engine telemetry — currently the intra-solve
  /// pool's counters and queue-depth gauge — into EngineOptions::stats.
  /// No-op without a registry. Called by the batch layer after each
  /// SolveAll; safe to call any time from one thread.
  void PublishPoolTelemetry() const;

 private:
  CertainAnswerResult ComputeCertainAnswers(
      const Scenario& scenario, const ExistenceReport& existence,
      const ExistenceOptions& existence_options,
      const ChasedScenario* chased) const;
  /// Stage 1 of Solve (ISSUE 5 tentpole): the §5 universal representative
  /// as a compile-once artifact — served from the chased memo on a
  /// content hit (the chase does not run; `m` then records zero triggers
  /// and the memo's hit counters tick instead), compiled and published on
  /// a miss. Either way the scenario's universe ends up with exactly the
  /// nulls a fresh chase would have created. Compilation runs the
  /// configured ChaseAlgorithm; under kDelta its rule fan-out borrows the
  /// intra pool, routing worker cache traffic to `sink` (exact per-solve
  /// attribution, as the existence stage's workers do).
  ChasedScenarioPtr StageChase(const Scenario& scenario, Metrics& m,
                               PerSolveCacheStats* sink,
                               const CancellationToken* cancel) const;
  /// ToExistenceOptions() plus the per-call wiring: intra pool, the
  /// solve's cache-attribution worker scope, and the cancellation token.
  ExistenceOptions MakeExistenceOptions(PerSolveCacheStats* sink,
                                        const CancellationToken* cancel)
      const;

  EngineOptions options_;
  std::unique_ptr<NreEvaluator> base_eval_;
  /// base_eval_ downcast when it is the automaton engine (else null) —
  /// for the knobs only that engine has (multi-source mode, stats sink).
  AutomatonNreEvaluator* automaton_eval_ = nullptr;
  std::unique_ptr<EngineCache> cache_;
  std::unique_ptr<CachingNreEvaluator> caching_eval_;
  /// Registry-backed metric handles; null when EngineOptions::stats is
  /// null (recording then costs exactly one pointer check per solve).
  std::unique_ptr<EngineTelemetry> telemetry_;
  /// Workers for the intra-solve fan-out; null when intra_solve_threads
  /// resolves to 1. Mutable state lives inside ThreadPool (internally
  /// synchronized); Solve stays const.
  std::unique_ptr<ThreadPool> intra_pool_;
  /// Chase compiles in progress, by chase key. Concurrent solves of one
  /// content compile it once: the others wait on the future, then hit
  /// the chased memo — so it counts one miss per distinct content
  /// whatever the timing.
  struct ChaseFlights {
    std::mutex mu;
    std::unordered_map<std::string, std::shared_future<void>> running;
  };
  std::unique_ptr<ChaseFlights> chase_flights_;
};

}  // namespace gdx

#endif  // GDX_ENGINE_EXCHANGE_ENGINE_H_
