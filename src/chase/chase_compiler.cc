#include "chase/chase_compiler.h"

#include "chase/egd_chase.h"
#include "graph/nre_compile.h"

namespace gdx {
namespace {

void AppendCnreAtoms(const std::vector<CnreAtom>& atoms, std::string* out) {
  AppendRawU64(atoms.size(), out);
  for (const CnreAtom& atom : atoms) {
    AppendTermRawSignature(atom.x, out);
    AppendNreRawSignature(*atom.nre, out);
    AppendTermRawSignature(atom.y, out);
  }
}

}  // namespace

std::string ChaseCompiler::Key(const Setting& setting, const Instance& source,
                               const Universe& universe) {
  std::string key;
  key.reserve(64 + source.TotalFacts() * 24);
  // s-t tgds: CQ bodies (the variable count matters — unbound variables
  // change match enumeration) and CNRE heads.
  AppendRawU64(setting.st_tgds.size(), &key);
  for (const StTgd& tgd : setting.st_tgds) {
    AppendRawU64(tgd.body.num_vars(), &key);
    AppendRawU64(tgd.body.atoms().size(), &key);
    for (const RelAtom& atom : tgd.body.atoms()) {
      AppendRawU64(atom.relation, &key);
      AppendRawU64(atom.terms.size(), &key);
      for (const Term& t : atom.terms) AppendTermRawSignature(t, &key);
    }
    AppendCnreAtoms(tgd.head, &key);
  }
  // egds: CNRE bodies plus the equated variable pair.
  AppendRawU64(setting.egds.size(), &key);
  for (const TargetEgd& egd : setting.egds) {
    AppendRawU64(egd.body.num_vars(), &key);
    AppendCnreAtoms(egd.body.atoms(), &key);
    AppendRawU64(egd.x1, &key);
    AppendRawU64(egd.x2, &key);
  }
  // Source instance: every relation's facts in insertion order (the order
  // the chase fires triggers in).
  const size_t num_relations = source.schema().size();
  AppendRawU64(num_relations, &key);
  for (RelationId rel = 0; rel < num_relations; ++rel) {
    const std::vector<Tuple>& facts = source.facts(rel);
    AppendRawU64(facts.size(), &key);
    for (const Tuple& fact : facts) {
      AppendRawU64(fact.size(), &key);
      for (Value v : fact) AppendRawU64(v.raw(), &key);
    }
  }
  // The base null count pins the id space the artifact's fresh nulls (and
  // the labels derived from them) start at.
  AppendRawU64(universe.num_nulls(), &key);
  return key;
}

ChasedScenarioPtr ChaseCompiler::Compile(const Setting& setting,
                                         const Instance& source,
                                         Universe& universe,
                                         const NreEvaluator& eval,
                                         const ChaseCompileOptions& options) {
  const CancellationToken* cancel = options.cancel;
  auto artifact = std::make_shared<ChasedScenario>();
  artifact->base_nulls = universe.num_nulls();
  // Both algorithms analyze the mapping: the artifact's reliance bytes —
  // and hence the persisted RELI payload — are algorithm-independent.
  auto reliance =
      std::make_shared<const RelianceGraph>(RelianceGraph::Build(setting));
  artifact->reliance = reliance;
  if (options.algorithm == ChaseAlgorithm::kNaive) {
    artifact->pattern = ChaseToPattern(source, setting.st_tgds, universe,
                                       &artifact->stats, cancel);
    if (!setting.egds.empty() &&
        !(cancel != nullptr && cancel->stop_requested())) {
      EgdChaseResult egd = ChasePatternEgds(
          artifact->pattern, setting.egds, eval,
          {EgdChasePolicy::kDeferredRounds, cancel});
      artifact->egd_merges = egd.merges;
      if (egd.failed) {
        artifact->failed = true;
        artifact->failure_reason = egd.failure_reason;
      }
    }
  } else {
    DeltaChaseOptions delta_options;
    delta_options.pool = options.pool;
    delta_options.max_workers = options.max_workers;
    delta_options.cancel = cancel;
    delta_options.wrap_worker = options.wrap_worker;
    delta_options.observer = options.observer;
    DeltaChaseResult run = RunDeltaChase(setting, source, *reliance, universe,
                                         eval, delta_options);
    artifact->pattern = std::move(run.pattern);
    artifact->stats = run.stats;
    artifact->egd_merges = run.egd.merges;
    if (run.egd.failed) {
      artifact->failed = true;
      artifact->failure_reason = run.egd.failure_reason;
    }
    artifact->delta = run.delta;
  }
  if (cancel != nullptr && cancel->stop_requested()) {
    artifact->canceled = true;
  }
  artifact->null_labels = universe.NullLabelsSince(artifact->base_nulls);
  return artifact;
}

ChasedScenarioPtr ChaseCompiler::Compile(const Setting& setting,
                                         const Instance& source,
                                         Universe& universe,
                                         const NreEvaluator& eval,
                                         const CancellationToken* cancel) {
  ChaseCompileOptions options;
  options.cancel = cancel;
  return Compile(setting, source, universe, eval, options);
}

void ChaseCompiler::Adopt(const ChasedScenario& chased, Universe& universe) {
  universe.AppendNullLabels(chased.null_labels);
}

GraphPattern ReplayChase(const ChasedScenario& chased, Universe& universe) {
  const size_t base = universe.num_nulls();
  if (base == chased.base_nulls) {
    // Positioned at the artifact's own base: the stored arena restores the
    // exact labels and the pattern's ids already line up.
    ChaseCompiler::Adopt(chased, universe);
    return chased.pattern;
  }
  // The universe has since grown: draw the arena's nulls fresh (labels
  // derive from the new ids, exactly as a re-run of the chase would) and
  // shift the chase-created null ids to the new base. Pre-existing nulls
  // (below the artifact's base) and constants pass through untouched.
  for (size_t i = 0; i < chased.null_labels.size(); ++i) {
    universe.FreshNull();
  }
  const int64_t delta =
      static_cast<int64_t>(base) - static_cast<int64_t>(chased.base_nulls);
  GraphPattern shifted = chased.pattern;
  shifted.RewriteValues([&](Value v) {
    if (v.is_null() && v.id() >= chased.base_nulls) {
      return Value::Null(
          static_cast<uint32_t>(static_cast<int64_t>(v.id()) + delta));
    }
    return v;
  });
  return shifted;
}

}  // namespace gdx
