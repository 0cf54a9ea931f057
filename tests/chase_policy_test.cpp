// Tests for the egd-chase policy ablation, pattern saturation (§5's
// sameAs / target-tgd generalization), enumeration dedup, and the naive
// reference CQ evaluator.
#include <gtest/gtest.h>

#include "chase/egd_chase.h"
#include "chase/pattern_chase.h"
#include "chase/pattern_saturation.h"
#include "common/rng.h"
#include "exchange/parser.h"
#include "graph/isomorphism.h"
#include "relational/eval.h"
#include "solver/existence.h"
#include "workload/flights.h"
#include "workload/scenario_parser.h"

namespace gdx {
namespace {

AutomatonNreEvaluator eval;

std::string PatternSignature(const GraphPattern& pi, const Scenario& s) {
  return pi.ToString(*s.universe, *s.alphabet);
}

TEST(EgdChasePolicyTest, EagerAndDeferredReachSameFixpoint) {
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  GraphPattern deferred =
      ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
  GraphPattern eager = deferred;
  EgdChaseResult r1 = ChasePatternEgds(deferred, s.setting.egds, eval,
                                       {EgdChasePolicy::kDeferredRounds});
  EgdChaseResult r2 = ChasePatternEgds(eager, s.setting.egds, eval,
                                       {EgdChasePolicy::kEagerRestart});
  EXPECT_FALSE(r1.failed);
  EXPECT_FALSE(r2.failed);
  EXPECT_EQ(r1.merges, r2.merges);
  EXPECT_EQ(PatternSignature(deferred, s), PatternSignature(eager, s));
}

TEST(EgdChasePolicyTest, PoliciesAgreeOnGeneratedWorkloads) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FlightWorkloadParams params;
    params.seed = seed;
    params.num_flights = 12;
    params.num_hotels = 3;
    params.mode = FlightConstraintMode::kEgd;
    Scenario s = MakeFlightScenario(params);
    GraphPattern a =
        ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
    GraphPattern b = a;
    EgdChaseResult ra = ChasePatternEgds(a, s.setting.egds, eval,
                                         {EgdChasePolicy::kDeferredRounds});
    EgdChaseResult rb = ChasePatternEgds(b, s.setting.egds, eval,
                                         {EgdChasePolicy::kEagerRestart});
    EXPECT_EQ(ra.failed, rb.failed) << "seed " << seed;
    if (!ra.failed) {
      EXPECT_EQ(a.num_nodes(), b.num_nodes()) << "seed " << seed;
      EXPECT_EQ(a.num_edges(), b.num_edges()) << "seed " << seed;
    }
  }
}

TEST(EgdChasePolicyTest, EgdOrderDoesNotChangeFixpoint) {
  // Confluence: permuting the egd list leaves the chased pattern equal.
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<TargetEgd> extra = ParseTargetEgd(
      "(x1, h, x3), (x2, h, x3) -> x2 = x1", *s.alphabet, *s.universe);
  ASSERT_TRUE(extra.ok());
  std::vector<TargetEgd> forward = {s.setting.egds[0], *extra};
  std::vector<TargetEgd> backward = {*extra, s.setting.egds[0]};
  GraphPattern a =
      ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
  GraphPattern b = a;
  ChasePatternEgds(a, forward, eval);
  ChasePatternEgds(b, backward, eval);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
}

/// Both merge policies × both entry points (pattern chase, concrete-graph
/// chase over the pattern's definite subgraph).
constexpr EgdChasePolicy kPolicies[] = {EgdChasePolicy::kDeferredRounds,
                                        EgdChasePolicy::kEagerRestart};

TEST(EgdChasePolicyTest, ConstantClashFailsWithoutRewriting) {
  // Two distinct constants forced equal: every policy and entry point
  // fails with the same reason and leaves the structure un-rewritten.
  Result<Scenario> s = ParseScenario(R"(
    relation R/2
    fact R(a, c1)
    fact R(a, c2)
    fact R(b, c2)
    fact R(b, c3)
    stgd R(x, y) -> (x, e, y)
    egd (x1, e, x2), (x1, e, x3) -> x2 = x3
  )");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const GraphPattern chased =
      ChaseToPattern(*s->instance, s->setting.st_tgds, *s->universe);
  const std::string pattern_before = PatternSignature(chased, *s);
  const std::string graph_before =
      chased.DefiniteGraph().ToString(*s->universe, *s->alphabet);

  std::string reason;
  for (EgdChasePolicy policy : kPolicies) {
    const int p = static_cast<int>(policy);
    GraphPattern pattern = chased;
    const EgdChaseResult pattern_result =
        ChasePatternEgds(pattern, s->setting.egds, eval, {policy});
    EXPECT_TRUE(pattern_result.failed) << "policy " << p;
    EXPECT_EQ(pattern_result.rounds, 0u) << "policy " << p;
    EXPECT_EQ(PatternSignature(pattern, *s), pattern_before) << "policy " << p;

    Graph g = chased.DefiniteGraph();
    const EgdChaseResult graph_result =
        ChaseGraphEgds(g, s->setting.egds, eval, {policy});
    EXPECT_TRUE(graph_result.failed) << "policy " << p;
    EXPECT_EQ(graph_result.rounds, 0u) << "policy " << p;
    EXPECT_EQ(graph_result.failure_reason, pattern_result.failure_reason)
        << "policy " << p;
    EXPECT_EQ(g.ToString(*s->universe, *s->alphabet), graph_before)
        << "policy " << p;

    if (reason.empty()) reason = pattern_result.failure_reason;
    EXPECT_EQ(pattern_result.failure_reason, reason) << "policy " << p;
  }
  EXPECT_FALSE(reason.empty());
}

TEST(EgdChasePolicyTest, PreFiredTokenAbortsWithoutRewriting) {
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  const GraphPattern chased =
      ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
  const std::string pattern_before = PatternSignature(chased, s);
  const std::string graph_before =
      chased.DefiniteGraph().ToString(*s.universe, *s.alphabet);
  CancellationToken token;
  token.RequestStop();

  for (EgdChasePolicy policy : kPolicies) {
    const int p = static_cast<int>(policy);
    GraphPattern pattern = chased;
    const EgdChaseResult pattern_result =
        ChasePatternEgds(pattern, s.setting.egds, eval, {policy, &token});
    EXPECT_FALSE(pattern_result.failed) << "policy " << p;
    EXPECT_EQ(pattern_result.rounds, 0u) << "policy " << p;
    EXPECT_EQ(pattern_result.merges, 0u) << "policy " << p;
    EXPECT_EQ(PatternSignature(pattern, s), pattern_before) << "policy " << p;

    Graph g = chased.DefiniteGraph();
    const EgdChaseResult graph_result =
        ChaseGraphEgds(g, s.setting.egds, eval, {policy, &token});
    EXPECT_FALSE(graph_result.failed) << "policy " << p;
    EXPECT_EQ(graph_result.rounds, 0u) << "policy " << p;
    EXPECT_EQ(graph_result.merges, 0u) << "policy " << p;
    EXPECT_EQ(g.ToString(*s.universe, *s.alphabet), graph_before)
        << "policy " << p;
  }
}

TEST(PatternSaturationTest, SameAsEdgesAddedToPattern) {
  // Single-symbol mapping so hotel cities are definite; sameAs saturation
  // must link the two hx cities inside the pattern itself.
  Result<Scenario> s = ParseScenario(R"(
    relation Flight/3
    relation Hotel/2
    fact Flight(01, c1, c2)
    fact Flight(02, c3, c2)
    fact Hotel(01, hx)
    fact Hotel(02, hx)
    stgd Flight(x1, x2, x3), Hotel(x1, x4) ->
         (x2, f, y), (y, h, x4), (y, f, x3)
    sameas (x1, h, x3), (x2, h, x3) -> (x1, sameAs, x2)
  )");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  GraphPattern pi =
      ChaseToPattern(*s->instance, s->setting.st_tgds, *s->universe);
  size_t before = pi.num_edges();
  PatternSaturationStats stats;
  ASSERT_TRUE(SaturatePatternSameAs(pi, s->setting.sameas, *s->alphabet,
                                    eval, &stats)
                  .ok());
  EXPECT_EQ(stats.sameas_edges_added, 2u);  // N1<->N2 both directions
  EXPECT_EQ(pi.num_edges(), before + 2);
}

TEST(PatternSaturationTest, TargetTgdAddsHeadEdges) {
  Result<Scenario> s = ParseScenario(R"(
    relation R/2
    fact R(a, b)
    stgd R(x, y) -> (x, e, y)
    ttgd (x, e, y) -> (y, back, x)
  )");
  ASSERT_TRUE(s.ok());
  GraphPattern pi =
      ChaseToPattern(*s->instance, s->setting.st_tgds, *s->universe);
  PatternSaturationStats stats;
  ASSERT_TRUE(SaturatePatternTargetTgds(pi, s->setting.target_tgds,
                                        *s->universe, eval, &stats)
                  .ok());
  EXPECT_EQ(stats.tgd_triggers_fired, 1u);
  EXPECT_EQ(pi.num_edges(), 2u);
  // Fixpoint reached: the back edge's own trigger is satisfied.
  PatternSaturationStats stats2;
  ASSERT_TRUE(SaturatePatternTargetTgds(pi, s->setting.target_tgds,
                                        *s->universe, eval, &stats2)
                  .ok());
  EXPECT_EQ(stats2.tgd_triggers_fired, 0u);
}

TEST(PatternSaturationTest, DivergentTgdHitsBound) {
  Result<Scenario> s = ParseScenario(R"(
    relation R/2
    fact R(a, b)
    stgd R(x, y) -> (x, e, y)
    ttgd (x, e, y) -> (y, e, z)
  )");
  ASSERT_TRUE(s.ok());
  GraphPattern pi =
      ChaseToPattern(*s->instance, s->setting.st_tgds, *s->universe);
  Status st = SaturatePatternTargetTgds(pi, s->setting.target_tgds,
                                        *s->universe, eval, nullptr, 8);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(EnumerateSolutionsTest, IsomorphicDedupShrinksTheList) {
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  ExistenceOptions with_dedup;
  with_dedup.instantiation.max_witnesses_per_edge = 3;
  with_dedup.dedup_isomorphic = true;
  ExistenceOptions without_dedup = with_dedup;
  without_dedup.dedup_isomorphic = false;
  std::vector<Graph> deduped =
      ExistenceSolver(&eval, with_dedup)
          .EnumerateSolutions(s.setting, *s.instance, *s.universe, 32);
  std::vector<Graph> raw =
      ExistenceSolver(&eval, without_dedup)
          .EnumerateSolutions(s.setting, *s.instance, *s.universe, 32);
  EXPECT_LE(deduped.size(), raw.size());
  EXPECT_GE(deduped.size(), 2u);
  // Deduped list is pairwise non-isomorphic.
  for (size_t i = 0; i < deduped.size(); ++i) {
    for (size_t j = i + 1; j < deduped.size(); ++j) {
      EXPECT_FALSE(IsomorphicUpToNulls(deduped[i], deduped[j]));
    }
  }
}

// --- EvaluateCqNaive agreement property -----------------------------------

class CqAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CqAgreement, BacktrackingMatchesNaive) {
  Rng rng(GetParam());
  Schema schema;
  RelationId r = *schema.AddRelation("R", 2);
  RelationId p = *schema.AddRelation("P", 1);
  Universe universe;
  Instance instance(&schema);
  std::vector<Value> domain;
  for (int i = 0; i < 5; ++i) {
    domain.push_back(universe.MakeConstant("d" + std::to_string(i)));
  }
  for (int i = 0; i < 10; ++i) {
    (void)instance.AddFact(
        r, {domain[rng.NextU64() % domain.size()],
            domain[rng.NextU64() % domain.size()]});
  }
  for (int i = 0; i < 3; ++i) {
    (void)instance.AddFact(p, {domain[rng.NextU64() % domain.size()]});
  }
  // Query: R(x,y), R(y,z), P(x) -> x, z   (a small join).
  ConjunctiveQuery q(&schema);
  VarId x = q.InternVar("x");
  VarId y = q.InternVar("y");
  VarId z = q.InternVar("z");
  q.AddAtom(RelAtom{r, {Term::Var(x), Term::Var(y)}});
  q.AddAtom(RelAtom{r, {Term::Var(y), Term::Var(z)}});
  q.AddAtom(RelAtom{p, {Term::Var(x)}});
  q.SetHead({x, z});

  std::vector<Tuple> fast = EvaluateCq(q, instance);
  std::vector<Tuple> slow = EvaluateCqNaive(q, instance);
  auto sorter = [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].raw() != b[i].raw()) return a[i].raw() < b[i].raw();
    }
    return false;
  };
  std::sort(fast.begin(), fast.end(), sorter);
  std::sort(slow.begin(), slow.end(), sorter);
  EXPECT_EQ(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqAgreement,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace gdx
