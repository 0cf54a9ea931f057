#ifndef GDX_CHASE_EGD_CHASE_H_
#define GDX_CHASE_EGD_CHASE_H_

#include <string>
#include <vector>

#include "common/parallel_search.h"
#include "common/value.h"
#include "exchange/constraints.h"
#include "graph/graph.h"
#include "graph/nre_eval.h"
#include "pattern/pattern.h"

namespace gdx {

/// Merge application policy — an ablation knob (see bench_ablations):
///  - kDeferredRounds (the default): collect all merges of a round against
///    a frozen evaluation graph, apply them at once, iterate (fewer
///    rewrites, may evaluate stale matches);
///  - kEagerRestart: apply the first merge found and restart matching on
///    the rewritten structure (freshest matches, more rewrites).
/// Both reach the same fixpoint (the merge relation is confluent — merges
/// only grow the congruence); they differ in cost profile.
enum class EgdChasePolicy { kDeferredRounds, kEagerRestart };

/// Outcome of an egd chase. `failed == true` is the paper's chase failure
/// (case (i) of §5): two distinct *constants* had to be merged — a sound
/// certificate that no solution exists. A non-failed chase does NOT imply
/// a solution exists (Example 5.2 / Figure 6).
struct EgdChaseResult {
  bool failed = false;
  std::string failure_reason;
  size_t rounds = 0;
  size_t merges = 0;
};

/// Knobs of one egd chase.
struct EgdChaseOptions {
  EgdChasePolicy policy = EgdChasePolicy::kDeferredRounds;
  /// Borrowed; polled per round and per body match, so an abort lands
  /// within one egd match of the request. A canceled chase returns with
  /// neither `failed` nor a fixpoint — callers check the token and treat
  /// the structure as unusable.
  const CancellationToken* cancel = nullptr;
};

/// The paper's adapted chase (§5) applied to a graph pattern: egd bodies
/// are matched against the pattern's *definite subgraph* (edges labeled by
/// a single symbol, which denote real edges in every represented graph);
/// matched equalities merge nulls into constants / other nulls (cases
/// (ii)–(iii)) and fail on constant-constant merges (case (i)). Runs to
/// fixpoint, rewriting the pattern after each round.
EgdChaseResult ChasePatternEgds(GraphPattern& pattern,
                                const std::vector<TargetEgd>& egds,
                                const NreEvaluator& eval,
                                const EgdChaseOptions& options = {});

/// Egd chase on a concrete graph: egd bodies are evaluated with full NRE
/// semantics over G; violated equalities merge nodes (constants preferred
/// as representatives), failing on constant-constant merges. Used to
/// repair instantiated candidate solutions in the bounded existence
/// search.
EgdChaseResult ChaseGraphEgds(Graph& g, const std::vector<TargetEgd>& egds,
                              const NreEvaluator& eval,
                              const EgdChaseOptions& options = {});

}  // namespace gdx

#endif  // GDX_CHASE_EGD_CHASE_H_
