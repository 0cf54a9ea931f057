#include "chase/delta_chase.h"

#include <algorithm>
#include <utility>

#include "common/task_fanout.h"
#include "common/value_partition.h"
#include "graph/cnre.h"
#include "graph/graph_view.h"
#include "obs/trace.h"
#include "relational/eval.h"

namespace gdx {
namespace {

bool Stopped(const CancellationToken* cancel) {
  return cancel != nullptr && cancel->stop_requested();
}

/// Parallel collection fan-out of one chase: the shared FanOutTasks
/// helper (common/task_fanout.h) driven by this chase's knobs.
void RunTasks(const DeltaChaseOptions& options, size_t num_tasks,
              const std::function<void(size_t task, size_t worker)>& task) {
  TaskFanoutOptions fan;
  fan.pool = options.pool;
  fan.max_workers = options.max_workers;
  fan.cancel = options.cancel;
  fan.wrap_worker = options.wrap_worker;
  FanOutTasks(fan, num_tasks, task);
}

/// Seed round: the s-t chase with parallel match collection and a
/// sequential (tgd, match)-ordered fold — the fold is character-for-
/// character ChaseToPattern's trigger body, so null draw order, edge
/// insertion order and stats replay exactly.
void SeedPattern(const Setting& setting, const Instance& source,
                 Universe& universe, const DeltaChaseOptions& options,
                 DeltaChaseResult* result) {
  GDX_TRACE_SPAN("chase.stratum", "chase", 0);
  const std::vector<StTgd>& tgds = setting.st_tgds;
  std::vector<std::vector<Binding>> matches(tgds.size());
  RunTasks(options, tgds.size(), [&](size_t t, size_t) {
    FindCqMatches(tgds[t].body, source, [&](const Binding& match) {
      if (Stopped(options.cancel)) return false;
      matches[t].push_back(match);
      return true;
    });
  });

  GraphPattern& pattern = result->pattern;
  PatternChaseStats& stats = result->stats;
  for (size_t t = 0; t < tgds.size(); ++t) {
    if (Stopped(options.cancel)) break;
    const StTgd& tgd = tgds[t];
    const std::vector<VarId> existential = tgd.ExistentialVars();
    for (const Binding& match : matches[t]) {
      if (Stopped(options.cancel)) break;
      Binding binding = match;
      for (VarId v : existential) {
        binding[v] = universe.FreshNull();
        ++stats.nulls_created;
      }
      for (const CnreAtom& atom : tgd.head) {
        Value src =
            atom.x.is_const() ? atom.x.constant() : *binding[atom.x.var()];
        Value dst =
            atom.y.is_const() ? atom.y.constant() : *binding[atom.y.var()];
        pattern.AddEdge(src, atom.nre, dst);
        ++stats.edges_added;
      }
      ++stats.triggers;
    }
  }
  result->delta.delta_rounds = 1;
  result->delta.evaluated_rules += tgds.size();
}

/// Delta-driven egd fixpoint. Per round: decide the evaluated set from
/// the previous round's delta labels, collect candidate (x1, x2) pairs
/// per evaluated egd in parallel against the frozen definite graph, fold
/// sequentially in (egd, match) order through a fresh ValuePartition —
/// the naive round's exact merge/skip/failure sequence — then rewrite
/// and record which definite labels moved.
void RunDeltaEgdRounds(const Setting& setting, const RelianceGraph& reliance,
                       const NreEvaluator& eval,
                       const DeltaChaseOptions& options,
                       DeltaChaseResult* result) {
  const std::vector<TargetEgd>& egds = setting.egds;
  GraphPattern& pattern = result->pattern;
  EgdChaseResult& out = result->egd;
  DeltaChaseStats& delta = result->delta;

  std::vector<SymbolId> delta_labels;
  for (size_t round = 0;; ++round) {
    if (Stopped(options.cancel)) return;

    std::vector<size_t> evaluated;
    std::vector<size_t> skipped;
    for (size_t j = 0; j < egds.size(); ++j) {
      const bool join = !reliance.EgdDead(j) &&
                        (round == 0 || reliance.EgdReadsAny(j, delta_labels));
      (join ? &evaluated : &skipped)->push_back(j);
    }
    if (options.observer) {
      DeltaRoundInfo info;
      info.round = round;
      info.pattern = &pattern;
      info.delta_labels = delta_labels;
      info.evaluated_egds = evaluated;
      info.skipped_egds = skipped;
      options.observer(info);
    }
    delta.skipped_rules += skipped.size();
    // An empty evaluated set is the fixpoint: the naive round would find
    // only equal-value pairs, merge nothing and return with `rounds`
    // untouched — so does this.
    if (evaluated.empty()) return;
    delta.evaluated_rules += evaluated.size();
    ++delta.delta_rounds;

    // One frozen CSR snapshot for every matcher this round; GraphView is
    // immutable after construction, so concurrent matchers share it.
    const Graph eval_graph = pattern.DefiniteGraph();
    const GraphView view(eval_graph);

    // Parallel pair collection, stratum level by stratum level: strata on
    // one level are mutually reliance-independent, so their rules fan out
    // together. pairs[j] is owned by j's task alone.
    std::vector<std::vector<std::pair<Value, Value>>> pairs(egds.size());
    size_t next = 0;
    while (next < evaluated.size()) {
      const uint32_t level =
          reliance.stratum_level[reliance.scc_of[reliance.EgdNode(
              evaluated[next])]];
      size_t end = next;
      while (end < evaluated.size() &&
             reliance.stratum_level[reliance.scc_of[reliance.EgdNode(
                 evaluated[end])]] == level) {
        ++end;
      }
      GDX_TRACE_SPAN("chase.stratum", "chase", level);
      const size_t base = next;
      RunTasks(options, end - next, [&](size_t t, size_t) {
        const size_t j = evaluated[base + t];
        const TargetEgd& egd = egds[j];
        CnreMatcher matcher(&egd.body, &view, eval);
        matcher.FindMatches({}, [&](const CnreBinding& match) {
          if (Stopped(options.cancel)) return false;
          if (!match[egd.x1].has_value() || !match[egd.x2].has_value()) {
            return true;
          }
          pairs[j].emplace_back(*match[egd.x1], *match[egd.x2]);
          return true;
        });
      });
      next = end;
    }
    if (Stopped(options.cancel)) return;

    ValuePartition partition;
    bool merged_any = false;
    for (size_t j : evaluated) {
      for (const std::pair<Value, Value>& pr : pairs[j]) {
        if (partition.Find(pr.first) == partition.Find(pr.second)) continue;
        Status st = partition.Merge(pr.first, pr.second);
        if (!st.ok()) {
          // Constant clash: stop with the pattern un-rewritten, exactly
          // where the naive chase stops.
          out.failed = true;
          out.failure_reason = st.message();
          return;
        }
        merged_any = true;
        ++out.merges;
      }
    }
    if (!merged_any) return;

    // The next round's delta: labels of definite edges the rewrite is
    // about to move. Computed pre-rewrite — post-rewrite the movement is
    // invisible.
    delta_labels.clear();
    for (const PatternEdge& e : pattern.edges()) {
      if (!IsSingleSymbol(e.nre)) continue;
      if (partition.Find(e.src) != e.src || partition.Find(e.dst) != e.dst) {
        delta_labels.push_back(e.nre->symbol());
      }
    }
    std::sort(delta_labels.begin(), delta_labels.end());
    delta_labels.erase(std::unique(delta_labels.begin(), delta_labels.end()),
                       delta_labels.end());

    pattern.RewriteValues([&](Value v) { return partition.Find(v); });
    ++out.rounds;
  }
}

}  // namespace

DeltaChaseResult RunDeltaChase(const Setting& setting, const Instance& source,
                               const RelianceGraph& reliance,
                               Universe& universe, const NreEvaluator& eval,
                               const DeltaChaseOptions& options) {
  DeltaChaseResult result;
  result.delta.strata = reliance.strata.size();
  SeedPattern(setting, source, universe, options, &result);
  if (!setting.egds.empty() && !Stopped(options.cancel)) {
    RunDeltaEgdRounds(setting, reliance, eval, options, &result);
  }
  return result;
}

}  // namespace gdx
