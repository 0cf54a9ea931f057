// ISSUE 5 tests: chase-stage compilation. The ChaseCompiler must reproduce
// the uncompiled stage sequence exactly (fresh compile, memo hit at the
// same base, and replay at a shifted base), engine outcomes must be
// byte-identical whether the chased memo serves a solve or the chase runs
// fresh — at 1, 2 and 8 intra-solve workers — the chased memo must respect
// its LRU cap and compile each content once under concurrent solves, the
// CHSE snapshot section must round-trip artifacts and reject every
// corruption, and Universe copies must share one copy-on-write
// ConstantTable instead of deep-copying constant spellings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase_compiler.h"
#include "chase/egd_chase.h"
#include "chase/pattern_chase.h"
#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "persist/snapshot.h"
#include "persist/wire.h"
#include "workload/flights.h"
#include "workload/scenario_parser.h"

namespace gdx {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "gdx_chase_compile_" + name;
}

EngineOptions TestEngineOptions() {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 12;
  return options;
}

/// Paper examples + generated workloads, the family the other determinism
/// suites use.
std::vector<Scenario> MakeScenarioSet() {
  std::vector<Scenario> set;
  set.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
  set.push_back(MakeExample22Scenario(FlightConstraintMode::kSameAs));
  set.push_back(MakeExample52Scenario());
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    FlightWorkloadParams params;
    params.seed = seed;
    params.num_cities = 4;
    params.num_flights = 5;
    params.num_hotels = 3;
    params.mode = seed % 2 == 0 ? FlightConstraintMode::kSameAs
                                : FlightConstraintMode::kEgd;
    set.push_back(MakeFlightScenario(params));
  }
  return set;
}

/// A setting whose adapted egd chase clashes two constants (§5 case (i)).
Scenario MakeFailingScenario() {
  Result<Scenario> s = ParseScenario(R"(
    relation R/2
    fact R(c1, hx)
    fact R(c2, hx)
    stgd R(x, y) -> (x, h, y)
    egd (x1, h, y), (x2, h, y) -> x1 = x2
  )");
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

// --- copy-on-write constant sharing ----------------------------------------

TEST(ConstantTableTest, UniverseCopiesShareTheTable) {
  Universe original;
  original.MakeConstant("alpha");
  original.MakeConstant("beta");
  ASSERT_EQ(original.constants_use_count(), 1);

  // Worker-style copies fork in O(1): one shared table, many holders.
  std::vector<Universe> workers(4, original);
  EXPECT_EQ(original.constants_use_count(), 5);
  EXPECT_EQ(workers[0].shared_constants().get(),
            original.shared_constants().get());

  // Reads — including re-interning an existing name — never detach.
  Value alpha = workers[1].MakeConstant("alpha");
  EXPECT_EQ(alpha, *original.FindConstant("alpha"));
  EXPECT_EQ(workers[1].shared_constants().get(),
            original.shared_constants().get());

  // Null draws are arena-local and leave the table shared.
  workers[2].FreshNull();
  EXPECT_EQ(workers[2].shared_constants().get(),
            original.shared_constants().get());
  EXPECT_EQ(workers[2].num_nulls(), original.num_nulls() + 1);

  // A genuinely new constant detaches exactly the writing copy.
  Value gamma = workers[3].MakeConstant("gamma");
  EXPECT_NE(workers[3].shared_constants().get(),
            original.shared_constants().get());
  EXPECT_EQ(original.constants_use_count(), 4);  // 5 holders - the detached
  EXPECT_EQ(workers[3].NameOf(gamma), "gamma");
  EXPECT_FALSE(original.FindConstant("gamma").has_value());
  // The detached copy kept every shared spelling, id-for-id.
  EXPECT_EQ(workers[3].NameOf(alpha), "alpha");
}

TEST(ConstantTableTest, SoleOwnerInternsInPlace) {
  Universe u;
  u.MakeConstant("x");
  auto before = u.shared_constants();
  u.MakeConstant("y");  // use_count is 2 only because `before` is held...
  // ...so this interned via clone; drop the observer and intern in place.
  before.reset();
  auto table = u.shared_constants().get();
  u.MakeConstant("z");
  EXPECT_EQ(u.shared_constants().get(), table);
  EXPECT_EQ(u.num_constants(), 3u);
}

TEST(InternerTest, CopiesAreIndependentAndLookupsExact) {
  StringInterner a;
  SymbolId x = a.Intern("x");
  SymbolId y = a.Intern("y");
  StringInterner b = a;  // deep copy with a rebuilt view index
  EXPECT_EQ(b.Find("x"), std::optional<SymbolId>(x));
  EXPECT_EQ(b.Find("y"), std::optional<SymbolId>(y));
  SymbolId z = b.Intern("z");
  EXPECT_EQ(b.NameOf(z), "z");
  EXPECT_FALSE(a.Find("z").has_value());  // the copy diverged privately
  EXPECT_EQ(a.Intern("x"), x);            // re-intern: same id, no growth
  EXPECT_EQ(a.size(), 2u);
  // Binary keys (embedded NULs) intern exactly — the snapshot string
  // table stores raw memo key bytes through this path.
  std::string binary("a\0b", 3);
  SymbolId k = a.Intern(binary);
  EXPECT_EQ(a.NameOf(k), binary);
  EXPECT_EQ(a.Find(std::string_view(binary)), std::optional<SymbolId>(k));
}

// --- the chase-compilation artifact ----------------------------------------

TEST(ChaseCompilerTest, KeySeparatesChaseInputs) {
  Scenario a = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Scenario b = MakeExample22Scenario(FlightConstraintMode::kEgd);
  EXPECT_EQ(ChaseCompiler::Key(a.setting, *a.instance, *a.universe),
            ChaseCompiler::Key(b.setting, *b.instance, *b.universe))
      << "identical content must produce identical keys";

  // Constraint flavor changes the egd list -> different key.
  Scenario c = MakeExample22Scenario(FlightConstraintMode::kSameAs);
  EXPECT_NE(ChaseCompiler::Key(a.setting, *a.instance, *a.universe),
            ChaseCompiler::Key(c.setting, *c.instance, *c.universe));

  // An extra fact changes the instance -> different key.
  Scenario d = MakeExample22Scenario(FlightConstraintMode::kEgd);
  RelationId rel = 0;
  Tuple extra;
  for (size_t i = 0; i < d.source_schema->decl(rel).arity; ++i) {
    extra.push_back(d.universe->MakeConstant("pad" + std::to_string(i)));
  }
  ASSERT_TRUE(d.instance->AddFact(rel, extra).ok());
  EXPECT_NE(ChaseCompiler::Key(a.setting, *a.instance, *a.universe),
            ChaseCompiler::Key(d.setting, *d.instance, *d.universe));

  // A grown null arena shifts the base -> different key.
  Scenario e = MakeExample22Scenario(FlightConstraintMode::kEgd);
  e.universe->FreshNull();
  EXPECT_NE(ChaseCompiler::Key(a.setting, *a.instance, *a.universe),
            ChaseCompiler::Key(e.setting, *e.instance, *e.universe));
}

TEST(ChaseCompilerTest, CompileMatchesUncompiledStageSequence) {
  AutomatonNreEvaluator eval;
  Scenario compiled_s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  ChasedScenarioPtr artifact = ChaseCompiler::Compile(
      compiled_s.setting, *compiled_s.instance, *compiled_s.universe, eval);

  Scenario hand_s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  PatternChaseStats stats;
  GraphPattern pattern = ChaseToPattern(
      *hand_s.instance, hand_s.setting.st_tgds, *hand_s.universe, &stats);
  EgdChaseResult egd =
      ChasePatternEgds(pattern, hand_s.setting.egds, eval);

  ASSERT_FALSE(artifact->failed);
  EXPECT_EQ(artifact->stats.triggers, stats.triggers);
  EXPECT_EQ(artifact->stats.edges_added, stats.edges_added);
  EXPECT_EQ(artifact->stats.nulls_created, stats.nulls_created);
  EXPECT_EQ(artifact->egd_merges, egd.merges);
  EXPECT_EQ(artifact->base_nulls, 0u);
  EXPECT_EQ(artifact->null_labels.size(), stats.nulls_created);
  EXPECT_EQ(artifact->pattern.ToString(*compiled_s.universe,
                                       *compiled_s.alphabet),
            pattern.ToString(*hand_s.universe, *hand_s.alphabet));
  EXPECT_EQ(compiled_s.universe->num_nulls(), hand_s.universe->num_nulls());
}

TEST(ChaseCompilerTest, ReplayAtShiftedBaseMatchesRechase) {
  AutomatonNreEvaluator eval;
  // Compile at base 0 on one scenario...
  Scenario source = MakeExample22Scenario(FlightConstraintMode::kEgd);
  ChasedScenarioPtr artifact = ChaseCompiler::Compile(
      source.setting, *source.instance, *source.universe, eval);

  // ...then replay into an identical scenario whose universe has grown —
  // the mid-solve situation of the decision stages.
  Scenario replayed = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Scenario rechased = MakeExample22Scenario(FlightConstraintMode::kEgd);
  for (int i = 0; i < 5; ++i) {
    replayed.universe->FreshNull();
    rechased.universe->FreshNull();
  }
  GraphPattern from_replay = ReplayChase(*artifact, *replayed.universe);
  GraphPattern from_rechase = ChaseToPattern(
      *rechased.instance, rechased.setting.st_tgds, *rechased.universe);
  EgdChaseResult egd =
      ChasePatternEgds(from_rechase, rechased.setting.egds, eval);
  ASSERT_FALSE(egd.failed);
  EXPECT_EQ(from_replay.ToString(*replayed.universe, *replayed.alphabet),
            from_rechase.ToString(*rechased.universe, *rechased.alphabet));
  EXPECT_EQ(replayed.universe->num_nulls(), rechased.universe->num_nulls());
  // Labels of the replayed nulls match a genuine re-chase's, name for name.
  for (size_t id = 5; id < replayed.universe->num_nulls(); ++id) {
    EXPECT_EQ(replayed.universe->NameOf(Value::Null(id)),
              rechased.universe->NameOf(Value::Null(id)));
  }
}

TEST(ChaseCompilerTest, FailedChaseCompilesToFailedArtifact) {
  AutomatonNreEvaluator eval;
  Scenario s = MakeFailingScenario();
  ChasedScenarioPtr artifact =
      ChaseCompiler::Compile(s.setting, *s.instance, *s.universe, eval);
  EXPECT_TRUE(artifact->failed);
  EXPECT_FALSE(artifact->failure_reason.empty());

  // The engine reports the refutation identically from a memo hit.
  ExchangeEngine engine(TestEngineOptions());
  Scenario first = MakeFailingScenario();
  Scenario second = MakeFailingScenario();
  Result<ExchangeOutcome> cold = engine.Solve(first);
  Result<ExchangeOutcome> warm = engine.Solve(second);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(cold->existence.refuted_by_chase);
  EXPECT_EQ(warm->metrics.chase_cache_hits, 1u);
  EXPECT_EQ(warm->metrics.chase_triggers, 0u);
  EXPECT_EQ(cold->ToString(*first.universe, *first.alphabet),
            warm->ToString(*second.universe, *second.alphabet));
}

// --- cached vs fresh engine outcomes at 1/2/8 workers ----------------------

TEST(ChaseCompileEngineTest, CachedVsFreshByteIdenticalAt1and2and8Workers) {
  for (size_t workers : {1u, 2u, 8u}) {
    EngineOptions cached_options = TestEngineOptions();
    cached_options.intra_solve_threads = workers;
    EngineOptions fresh_options = cached_options;
    fresh_options.enable_cache = false;  // chase runs fresh on every solve

    ExchangeEngine cached_engine(cached_options);
    ExchangeEngine fresh_engine(fresh_options);
    // Two passes through the cached engine: pass 2 serves every chase
    // from the memo (identical content, identical base null count).
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<Scenario> cached_set = MakeScenarioSet();
      std::vector<Scenario> fresh_set = MakeScenarioSet();
      for (size_t i = 0; i < cached_set.size(); ++i) {
        Result<ExchangeOutcome> from_cache =
            cached_engine.Solve(cached_set[i]);
        Result<ExchangeOutcome> from_fresh =
            fresh_engine.Solve(fresh_set[i]);
        ASSERT_TRUE(from_cache.ok());
        ASSERT_TRUE(from_fresh.ok());
        EXPECT_EQ(from_cache->ToString(*cached_set[i].universe,
                                       *cached_set[i].alphabet),
                  from_fresh->ToString(*fresh_set[i].universe,
                                       *fresh_set[i].alphabet))
            << "scenario " << i << " pass " << pass << " at " << workers
            << " workers";
        if (pass == 1) {
          EXPECT_EQ(from_cache->metrics.chase_cache_hits, 1u)
              << "pass 2 must be served by the chased memo";
          EXPECT_EQ(from_cache->metrics.chase_triggers, 0u);
        }
      }
    }
    CacheStats stats = cached_engine.cache().stats();
    EXPECT_GT(stats.chase_hits, 0u);
    EXPECT_GT(stats.chase_misses, 0u);
  }
}

// --- LRU cap ----------------------------------------------------------------

TEST(ChasedMemoTest, LruCapBoundsChasedMemo) {
  EngineCacheOptions options;
  options.max_chased_entries = 2;
  options.num_shards = 1;  // exact global LRU (the behavior under test)
  EngineCache cache(options);
  for (int i = 0; i < 4; ++i) {
    auto artifact = std::make_shared<ChasedScenario>();
    artifact->base_nulls = static_cast<size_t>(i);
    cache.StoreChased("key" + std::to_string(i),
                      ChasedScenarioPtr(artifact));
  }
  EXPECT_EQ(cache.sizes().chased_entries, 2u);
  EXPECT_EQ(cache.stats().chase_evictions, 2u);
  EXPECT_EQ(cache.LookupChased("key0"), nullptr);
  EXPECT_EQ(cache.LookupChased("key1"), nullptr);
  ASSERT_NE(cache.LookupChased("key2"), nullptr);
  ASSERT_NE(cache.LookupChased("key3"), nullptr);

  // Re-touch key2 so key3 becomes the LRU entry, then overflow.
  ASSERT_NE(cache.LookupChased("key2"), nullptr);
  auto fresh = std::make_shared<ChasedScenario>();
  cache.StoreChased("key4", ChasedScenarioPtr(fresh));
  EXPECT_NE(cache.LookupChased("key2"), nullptr) << "recently used: kept";
  EXPECT_EQ(cache.LookupChased("key3"), nullptr) << "LRU victim: evicted";
}

TEST(ChasedMemoTest, EngineHonorsChasedCapAndStaysCorrect) {
  EngineOptions tiny = TestEngineOptions();
  tiny.cache.max_chased_entries = 2;
  ExchangeEngine capped(tiny);
  ExchangeEngine unbounded(TestEngineOptions());
  for (int round = 0; round < 2; ++round) {
    std::vector<Scenario> a = MakeScenarioSet();
    std::vector<Scenario> b = MakeScenarioSet();
    for (size_t i = 0; i < a.size(); ++i) {
      Result<ExchangeOutcome> o1 = capped.Solve(a[i]);
      Result<ExchangeOutcome> o2 = unbounded.Solve(b[i]);
      ASSERT_TRUE(o1.ok());
      ASSERT_TRUE(o2.ok());
      EXPECT_EQ(o1->ToString(*a[i].universe, *a[i].alphabet),
                o2->ToString(*b[i].universe, *b[i].alphabet))
          << "eviction must never change answers (scenario " << i << ")";
    }
  }
  EXPECT_LE(capped.cache().sizes().chased_entries, 2u);
  EXPECT_GT(capped.cache().stats().chase_evictions, 0u);
}

TEST(ChasedMemoTest, ConcurrentSolvesOfOneContentCompileOnce) {
  // Solves of one content that overlap in time share a single chase
  // compile: exactly one chased-memo miss per engine, whatever the timing.
  constexpr size_t kThreads = 8;
  for (int round = 0; round < 10; ++round) {
    ExchangeEngine engine(TestEngineOptions());
    std::vector<Scenario> scenarios;
    for (size_t t = 0; t < kThreads; ++t) {
      scenarios.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
    }
    std::vector<std::string> outputs(kThreads);
    std::atomic<size_t> arrived{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ++arrived;
        while (arrived.load() < kThreads) std::this_thread::yield();
        Result<ExchangeOutcome> outcome = engine.Solve(scenarios[t]);
        outputs[t] = outcome.ok() ? outcome->ToString(*scenarios[t].universe,
                                                      *scenarios[t].alphabet)
                                  : outcome.status().ToString();
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(outputs[t], outputs[0]) << "round " << round;
    }
    const CacheStats stats = engine.cache().stats();
    EXPECT_EQ(stats.chase_misses, 1u) << "round " << round;
    EXPECT_EQ(stats.chase_hits, kThreads - 1) << "round " << round;
  }
}

// --- CHSE persistence -------------------------------------------------------

/// A hand-built artifact exercising every CHSE field: failure flag off,
/// nested/union/star NRE labels, pre-existing and chase-created nulls.
ChasedScenarioPtr MakeSyntheticArtifact() {
  auto chased = std::make_shared<ChasedScenario>();
  chased->stats.triggers = 2;
  chased->stats.edges_added = 3;
  chased->stats.nulls_created = 2;
  chased->egd_merges = 1;
  chased->base_nulls = 1;  // one pre-existing null below the arena
  chased->null_labels = {"N2", "custom"};
  NrePtr f = Nre::Symbol(0);
  NrePtr g = Nre::Symbol(1);
  chased->pattern.AddEdge(Value::Constant(0),
                          Nre::Concat(f, Nre::Star(g)), Value::Null(1));
  chased->pattern.AddEdge(Value::Null(1),
                          Nre::Union(Nre::Inverse(0), Nre::Nest(g)),
                          Value::Null(2));
  chased->pattern.AddEdge(Value::Null(0), Nre::Epsilon(),
                          Value::Constant(5));
  return chased;
}

TEST(ChsePersistTest, SyntheticArtifactRoundTripsByteStable) {
  WarmState state;
  state.chased.emplace_back("synthetic-key", MakeSyntheticArtifact());
  auto failed = std::make_shared<ChasedScenario>();
  failed->failed = true;
  failed->failure_reason = "egd chase failure: test";
  state.chased.emplace_back("failed-key", ChasedScenarioPtr(failed));

  std::string bytes = EncodeSnapshot(state);
  Result<WarmState> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->chased.size(), 2u);
  EXPECT_EQ(EncodeSnapshot(*decoded), bytes)
      << "decode -> encode must be the identity";

  const ChasedScenario& round = *decoded->chased[0].second;
  EXPECT_EQ(decoded->chased[0].first, "synthetic-key");
  EXPECT_FALSE(round.failed);
  EXPECT_EQ(round.stats.triggers, 2u);
  EXPECT_EQ(round.stats.edges_added, 3u);
  EXPECT_EQ(round.stats.nulls_created, 2u);
  EXPECT_EQ(round.egd_merges, 1u);
  EXPECT_EQ(round.base_nulls, 1u);
  EXPECT_EQ(round.null_labels,
            (std::vector<std::string>{"N2", "custom"}));
  ASSERT_EQ(round.pattern.num_edges(), 3u);
  EXPECT_TRUE(round.pattern.edges()[0].nre->Equals(
      *MakeSyntheticArtifact()->pattern.edges()[0].nre));
  EXPECT_TRUE(decoded->chased[1].second->failed);
  EXPECT_EQ(decoded->chased[1].second->failure_reason,
            "egd chase failure: test");
}

TEST(ChsePersistTest, WarmRunReportsZeroChaseTriggersAndRestoredHits) {
  // The ISSUE 5 acceptance criterion end to end: cold run + save, then a
  // cold process warm-starts and re-runs the same workload — zero pattern
  // chase triggers, chase_restored_hits > 0, byte-identical outcomes.
  std::string path = TempPath("warm_chase.gdxsnap");
  ExchangeEngine cold(TestEngineOptions());
  std::vector<Scenario> cold_set = MakeScenarioSet();
  std::vector<std::string> cold_out;
  for (Scenario& s : cold_set) {
    Result<ExchangeOutcome> o = cold.Solve(s);
    ASSERT_TRUE(o.ok());
    cold_out.push_back(o->ToString(*s.universe, *s.alphabet));
  }
  ASSERT_GT(cold.cache().sizes().chased_entries, 0u);
  ASSERT_TRUE(cold.SaveWarmState(path).ok());

  ExchangeEngine warm(TestEngineOptions());
  Result<SnapshotRestoreStats> restored = warm.WarmStart(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->chased_entries, cold.cache().sizes().chased_entries);

  std::vector<Scenario> warm_set = MakeScenarioSet();
  Metrics warm_total;
  for (size_t i = 0; i < warm_set.size(); ++i) {
    Result<ExchangeOutcome> o = warm.Solve(warm_set[i]);
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o->ToString(*warm_set[i].universe, *warm_set[i].alphabet),
              cold_out[i])
        << "scenario " << i;
    warm_total.Accumulate(o->metrics);
  }
  EXPECT_EQ(warm_total.chase_triggers, 0u)
      << "a warm re-run must not fire a single chase trigger";
  EXPECT_EQ(warm_total.chase_merges, 0u);
  EXPECT_EQ(warm_total.chase_cache_misses, 0u);
  EXPECT_GT(warm_total.chase_cache_restored_hits, 0u);
  CacheStats stats = warm.cache().stats();
  EXPECT_EQ(stats.chase_misses, 0u);
  EXPECT_EQ(stats.chase_restored_hits, stats.chase_hits);
  EXPECT_GT(stats.chase_restored_hits, 0u);
}

TEST(ChsePersistTest, CorruptChseSectionDegradesToColdStart) {
  // Build a snapshot whose CHSE section is populated, locate the section
  // via the table, and fuzz bits across its payload: every flip must fail
  // the decode (section checksum), and loading such a file must leave the
  // cache empty — a clean cold start, never partial state or UB (the
  // ASan/UBSan CI legs run this test).
  ExchangeEngine engine(TestEngineOptions());
  std::vector<Scenario> set = MakeScenarioSet();
  for (Scenario& s : set) ASSERT_TRUE(engine.Solve(s).ok());
  std::string bytes = EncodeSnapshot(engine.cache().ExportWarmState());

  // Header: magic(8) version(4) section_count(4) table_checksum(8).
  WireReader header(bytes);
  std::string_view magic;
  uint32_t version, num_sections;
  uint64_t table_checksum;
  ASSERT_TRUE(header.ReadRaw(8, &magic));
  ASSERT_TRUE(header.ReadU32(&version));
  ASSERT_TRUE(header.ReadU32(&num_sections));
  ASSERT_TRUE(header.ReadU64(&table_checksum));
  uint64_t chse_offset = 0, chse_length = 0;
  for (uint32_t i = 0; i < num_sections; ++i) {
    uint32_t id;
    uint64_t offset, length, checksum;
    ASSERT_TRUE(header.ReadU32(&id));
    ASSERT_TRUE(header.ReadU64(&offset));
    ASSERT_TRUE(header.ReadU64(&length));
    ASSERT_TRUE(header.ReadU64(&checksum));
    if (id == (uint32_t('C') | uint32_t('H') << 8 | uint32_t('S') << 16 |
               uint32_t('E') << 24)) {
      chse_offset = offset;
      chse_length = length;
    }
  }
  ASSERT_GT(chse_length, 4u) << "the snapshot must carry chased entries";

  const size_t step = chse_length > 97 ? chse_length / 97 : 1;
  for (uint64_t pos = 0; pos < chse_length; pos += step) {
    std::string flipped = bytes;
    flipped[chse_offset + pos] = static_cast<char>(
        static_cast<uint8_t>(flipped[chse_offset + pos]) ^
        (1u << (pos % 8)));
    Result<WarmState> decoded = DecodeSnapshot(flipped);
    EXPECT_FALSE(decoded.ok()) << "flip at CHSE byte " << pos;
  }

  // A corrupted file on disk: LoadSnapshot warns and restores nothing.
  std::string flipped = bytes;
  flipped[chse_offset + chse_length / 2] ^= 0x20;
  std::string path = TempPath("corrupt_chse.gdxsnap");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  out.close();
  EngineCache cache;
  Status status = cache.LoadSnapshot(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(cache.sizes().chased_entries, 0u);
  EXPECT_EQ(cache.sizes().nre_entries, 0u);
}

TEST(ChsePersistTest, SemanticallyInvalidChseEntriesRejected) {
  // Invalid content behind a *valid* checksum (EncodeSnapshot happily
  // writes any WarmState) must still fail the CHSE validation rules.
  // A pattern null outside the declared arena (id >= base + labels) is
  // unreplayable — the decoder must reject it, not hand it to a cache.
  auto bad = std::make_shared<ChasedScenario>();
  bad->base_nulls = 0;
  bad->null_labels = {};  // empty arena...
  bad->pattern.AddEdge(Value::Constant(0), Nre::Symbol(0),
                       Value::Null(7));  // ...but a null with id 7
  WarmState state;
  state.chased.emplace_back("k", ChasedScenarioPtr(bad));
  Result<WarmState> decoded = DecodeSnapshot(EncodeSnapshot(state));
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("out of range"),
            std::string::npos)
      << decoded.status().ToString();
}

}  // namespace
}  // namespace gdx
