#include "chase/egd_chase.h"

#include "common/value_partition.h"
#include "graph/cnre.h"
#include "graph/graph_view.h"

namespace gdx {
namespace {

bool Stopped(const CancellationToken* cancel) {
  return cancel != nullptr && cancel->stop_requested();
}

/// One round of egd merging over a fixed evaluation graph. Returns false
/// if the chase failed (constant clash recorded in *result). With
/// `first_only`, stops after recording one merge (the eager policy).
bool CollectMerges(const Graph& eval_graph,
                   const std::vector<TargetEgd>& egds,
                   const NreEvaluator& eval, ValuePartition& partition,
                   EgdChaseResult* result, bool* merged_any,
                   bool first_only, const CancellationToken* cancel) {
  // One CSR snapshot for every egd this round (the graph is fixed).
  GraphView view(eval_graph);
  for (const TargetEgd& egd : egds) {
    if (Stopped(cancel)) return true;
    CnreMatcher matcher(&egd.body, &view, eval);
    bool ok = true;
    matcher.FindMatches({}, [&](const CnreBinding& match) {
      // Cancellation poll per body match (ISSUE 8): bounds the abort to
      // one egd match even when a single round has millions of them.
      if (Stopped(cancel)) return false;
      if (!match[egd.x1].has_value() || !match[egd.x2].has_value()) {
        return true;
      }
      Value a = *match[egd.x1];
      Value b = *match[egd.x2];
      if (partition.Find(a) == partition.Find(b)) return true;
      Status st = partition.Merge(a, b);
      if (!st.ok()) {
        result->failed = true;
        result->failure_reason = st.message();
        ok = false;
        return false;
      }
      *merged_any = true;
      ++result->merges;
      return !first_only;  // eager: stop at the first merge
    });
    if (!ok) return false;
    if (first_only && *merged_any) return true;
  }
  return true;
}

/// Shared fixpoint driver over any structure with RewriteValues and an
/// evaluation-graph projection.
template <typename Structure, typename EvalGraphFn>
EgdChaseResult RunEgdChase(Structure& structure,
                           const std::vector<TargetEgd>& egds,
                           const NreEvaluator& eval,
                           const EgdChaseOptions& options,
                           EvalGraphFn eval_graph_of) {
  EgdChaseResult result;
  const CancellationToken* cancel = options.cancel;
  const bool eager = (options.policy == EgdChasePolicy::kEagerRestart);
  for (;;) {
    if (Stopped(cancel)) return result;
    ValuePartition partition;
    bool merged_any = false;
    {
      // The evaluation graph is rebuilt per round (merges change it);
      // auto&& avoids copying when the structure *is* its own evaluation
      // graph (ChaseGraphEgds) — the rewrite happens after the last read.
      auto&& eval_graph = eval_graph_of(structure);
      if (!CollectMerges(eval_graph, egds, eval, partition, &result,
                         &merged_any, eager, cancel)) {
        return result;  // failed
      }
    }
    if (!merged_any) return result;
    structure.RewriteValues([&](Value v) { return partition.Find(v); });
    ++result.rounds;
  }
}

}  // namespace

EgdChaseResult ChasePatternEgds(GraphPattern& pattern,
                                const std::vector<TargetEgd>& egds,
                                const NreEvaluator& eval,
                                const EgdChaseOptions& options) {
  return RunEgdChase(pattern, egds, eval, options,
                     [](GraphPattern& p) { return p.DefiniteGraph(); });
}

EgdChaseResult ChaseGraphEgds(Graph& g, const std::vector<TargetEgd>& egds,
                              const NreEvaluator& eval,
                              const EgdChaseOptions& options) {
  return RunEgdChase(g, egds, eval, options,
                     [](Graph& graph) -> const Graph& { return graph; });
}

}  // namespace gdx
