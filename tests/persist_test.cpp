// ISSUE 4 persistence tests: the versioned snapshot format must carry the
// EngineCache's full warm state — NRE memo, answer memo, compiled
// automata — across a save/load boundary without changing a single output
// byte, and must treat every corrupted file (truncation, bit flips, bad
// magic/version) as a clean cold start, never UB. Restored compiled
// automata are pitted against freshly compiled ones on the randomized
// differential from nre_eval_equivalence_test.cpp. The ISSUE 9 RELI
// section (persisted reliance analyses) gets the same treatment at the
// bottom: byte-stable round trips, bit-flip and semantic-corruption
// rejection, and a warm start that replays every graph with zero
// RelianceGraph::Build calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "chase/chase_compiler.h"
#include "chase/reliance.h"
#include "engine/batch_executor.h"
#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "graph/nre_eval.h"
#include "graph/nre_parser.h"
#include "persist/snapshot.h"
#include "persist/wire.h"
#include "workload/flights.h"
#include "workload/random_graph.h"

namespace gdx {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "gdx_persist_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The deterministic mixed scenario list the equivalence suite uses:
/// paper examples (with a query — exercises the answer memo) plus
/// generated flight workloads.
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

EngineOptions TestEngineOptions() {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 12;
  return options;
}

std::vector<std::string> SolveAllToStrings(const ExchangeEngine& engine,
                                           std::vector<Scenario>& scenarios,
                                           Metrics* total = nullptr) {
  std::vector<std::string> out;
  for (Scenario& s : scenarios) {
    Result<ExchangeOutcome> outcome = engine.Solve(s);
    out.push_back(outcome.ok()
                      ? outcome->ToString(*s.universe, *s.alphabet)
                      : outcome.status().ToString());
    if (total != nullptr && outcome.ok()) {
      total->Accumulate(outcome->metrics);
    }
  }
  return out;
}

// --- wire primitives -------------------------------------------------------

TEST(WireTest, RoundTripAndBoundsChecks) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutBytes("hello");

  WireReader r(w.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  std::string_view bytes;
  ASSERT_TRUE(r.ReadU8(&u8));
  EXPECT_EQ(u8, 0xab);
  ASSERT_TRUE(r.ReadU32(&u32));
  EXPECT_EQ(u32, 0xdeadbeefu);
  ASSERT_TRUE(r.ReadU64(&u64));
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  ASSERT_TRUE(r.ReadBytes(&bytes));
  EXPECT_EQ(bytes, "hello");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.ReadU8(&u8));  // past the end: refused, not read

  // A length prefix pointing past the end is refused.
  WireWriter bad;
  bad.PutU64(1000);
  bad.PutRaw("short");
  WireReader br(bad.bytes());
  EXPECT_FALSE(br.ReadBytes(&bytes));
}

TEST(WireTest, Fnv1a64MatchesSpecConstants) {
  // The spec's normative test vectors (docs/FORMAT.md §Checksums).
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// --- codec round trips -----------------------------------------------------

TEST(SnapshotCodecTest, EmptyStateRoundTrips) {
  std::string bytes = EncodeSnapshot(WarmState{});
  Result<WarmState> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->nre.empty());
  EXPECT_TRUE(decoded->answers.empty());
  EXPECT_TRUE(decoded->compiled.empty());
  EXPECT_TRUE(decoded->chased.empty());
  // decode → encode is the identity on valid snapshots.
  EXPECT_EQ(EncodeSnapshot(*decoded), bytes);
}

TEST(SnapshotCodecTest, PopulatedStateDecodeEncodeIdentity) {
  // Populate a cache the way the engine does, then round-trip its export.
  EngineCache cache;
  Alphabet alphabet;
  Universe universe;
  RandomGraphParams gp;
  gp.num_nodes = 10;
  gp.num_edges = 30;
  gp.num_labels = 3;
  gp.seed = 99;
  Graph g = MakeRandomGraph(gp, universe, alphabet);
  NaiveNreEvaluator base;
  CachingNreEvaluator eval(&base, &cache);
  Rng rng(17);
  for (int i = 0; i < 6; ++i) {
    NrePtr nre = MakeRandomNre(3, gp.num_labels, alphabet, rng);
    eval.Eval(nre, g);                  // NRE memo
    cache.GetOrCompile(nre);            // compiled memo
  }
  cache.StoreAnswers("synthetic-answer-key", g,
                     {{g.nodes()[0], g.nodes()[1]}, {g.nodes()[2]}});

  WarmState state = cache.ExportWarmState();
  EXPECT_EQ(state.nre.size(), cache.sizes().nre_entries);
  EXPECT_EQ(state.compiled.size(), cache.sizes().compiled_entries);
  EXPECT_EQ(state.answers.size(), cache.sizes().answer_keys);

  std::string bytes = EncodeSnapshot(state);
  Result<WarmState> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeSnapshot(*decoded), bytes);
}

TEST(SnapshotCodecTest, CacheRoundTripIsByteStable) {
  // Solve real scenarios, save, load into a second cache, save again:
  // the two snapshot files must be byte-identical (the restore preserved
  // keys, payloads, and LRU order exactly).
  ExchangeEngine engine(TestEngineOptions());
  std::vector<Scenario> scenarios = MakeScenarios();
  SolveAllToStrings(engine, scenarios);
  ASSERT_GT(engine.cache().sizes().nre_entries, 0u);
  ASSERT_GT(engine.cache().sizes().compiled_entries, 0u);

  std::string path1 = TempPath("roundtrip1.gdxsnap");
  std::string path2 = TempPath("roundtrip2.gdxsnap");
  ASSERT_TRUE(engine.SaveWarmState(path1).ok());

  EngineCache restored;
  SnapshotRestoreStats stats;
  Status loaded = restored.LoadSnapshot(path1, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(stats.nre_entries, engine.cache().sizes().nre_entries);
  EXPECT_EQ(stats.answer_keys, engine.cache().sizes().answer_keys);
  EXPECT_EQ(stats.compiled_entries, engine.cache().sizes().compiled_entries);
  EXPECT_EQ(stats.chased_entries, engine.cache().sizes().chased_entries);
  EXPECT_EQ(stats.evicted_on_load, 0u);

  ASSERT_TRUE(restored.SaveSnapshot(path2).ok());
  EXPECT_EQ(ReadFileBytes(path1), ReadFileBytes(path2));
}

// --- warm-start behavior ---------------------------------------------------

TEST(WarmStartTest, WarmEngineIsByteIdenticalAndMissFree) {
  std::string path = TempPath("warm.gdxsnap");

  // Cold process: solve, save.
  ExchangeEngine cold(TestEngineOptions());
  std::vector<Scenario> cold_scenarios = MakeScenarios();
  std::vector<std::string> cold_out =
      SolveAllToStrings(cold, cold_scenarios);
  ASSERT_TRUE(cold.SaveWarmState(path).ok());
  CacheStats cold_stats = cold.cache().stats();
  EXPECT_GT(cold_stats.compile_misses, 0u);  // cold run really compiled
  EXPECT_EQ(cold_stats.restored_hits(), 0u);

  // Warm process: identical scenarios, restored cache.
  ExchangeEngine warm(TestEngineOptions());
  Result<SnapshotRestoreStats> restored = warm.WarmStart(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->nre_entries, cold.cache().sizes().nre_entries);
  EXPECT_EQ(restored->compiled_entries,
            cold.cache().sizes().compiled_entries);

  std::vector<Scenario> warm_scenarios = MakeScenarios();
  Metrics warm_total;
  std::vector<std::string> warm_out =
      SolveAllToStrings(warm, warm_scenarios, &warm_total);

  // Byte-identical outputs, zero NRE/compile misses (the acceptance
  // criterion), and the restored-entry hit counters account for it.
  ASSERT_EQ(warm_out.size(), cold_out.size());
  for (size_t i = 0; i < cold_out.size(); ++i) {
    EXPECT_EQ(warm_out[i], cold_out[i]) << "scenario " << i;
  }
  CacheStats warm_stats = warm.cache().stats();
  EXPECT_EQ(warm_stats.nre_misses, 0u);
  EXPECT_EQ(warm_stats.compile_misses, 0u);
  EXPECT_EQ(warm_stats.chase_misses, 0u);
  EXPECT_GT(warm_stats.nre_restored_hits, 0u);
  // The warm chase stage is served entirely by restored §5 artifacts
  // (ISSUE 5): zero chase work, every chase hit a restored one.
  EXPECT_GT(warm_stats.chase_restored_hits, 0u);
  EXPECT_EQ(warm_stats.chase_hits, warm_stats.chase_restored_hits);
  EXPECT_EQ(warm_total.chase_triggers, 0u);
  EXPECT_EQ(warm_total.chase_cache_restored_hits,
            warm_stats.chase_restored_hits);
  // Restored relations short-circuit most evaluations before the
  // automaton layer; whatever compile traffic remains must be served
  // entirely by restored plans (the differential suite below proves the
  // plans themselves behave identically to fresh compiles).
  EXPECT_EQ(warm_stats.compile_hits, warm_stats.compile_restored_hits);
  // Restored hits flow through per-solve attribution into Metrics.
  EXPECT_EQ(warm_total.nre_cache_restored_hits, warm_stats.nre_restored_hits);
  EXPECT_EQ(warm_total.compile_cache_restored_hits,
            warm_stats.compile_restored_hits);
  EXPECT_EQ(warm_total.compile_cache_misses, 0u);
}

TEST(WarmStartTest, BatchExecutorHooksAndReportCounters) {
  std::string path = TempPath("warm_batch.gdxsnap");
  BatchOptions options;
  options.engine = TestEngineOptions();
  options.num_threads = 2;

  BatchExecutor first(options);
  std::vector<Scenario> scenarios = MakeScenarios();
  BatchReport cold_report = first.SolveAll(scenarios);
  EXPECT_EQ(cold_report.errors, 0u);
  EXPECT_EQ(cold_report.total.cache_restored_hits(), 0u);
  ASSERT_TRUE(first.SaveWarmState(path).ok());

  BatchExecutor second(options);
  Result<SnapshotRestoreStats> restored = second.WarmStart(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::vector<Scenario> scenarios2 = MakeScenarios();
  BatchReport warm_report = second.SolveAll(scenarios2);
  EXPECT_EQ(warm_report.errors, 0u);
  EXPECT_EQ(warm_report.total.nre_cache_misses, 0u);
  EXPECT_EQ(warm_report.total.compile_cache_misses, 0u);
  EXPECT_GT(warm_report.total.cache_restored_hits(), 0u);
  // The Summary surfaces the warm line for CLI users.
  EXPECT_NE(warm_report.Summary().find("warm: restored-entry hits"),
            std::string::npos);
}

TEST(WarmStartTest, LiveEntriesWinOverSnapshotDuplicates) {
  BinaryRelation live = {{Value::Constant(1), Value::Constant(2)}};
  BinaryRelation stale = {{Value::Constant(3), Value::Constant(4)}};

  WarmState state;
  state.nre.emplace_back("shared-key", stale);
  state.nre.emplace_back("snapshot-only-key", stale);

  EngineCache cache;
  cache.StoreNre("shared-key", live);
  SnapshotRestoreStats restored = cache.ImportWarmState(std::move(state));
  EXPECT_EQ(restored.nre_entries, 1u);  // only the snapshot-only key

  BinaryRelation out;
  ASSERT_TRUE(cache.LookupNre("shared-key", &out));
  EXPECT_EQ(out, live);
  // The surviving live entry is not "restored": no restored-hit tick.
  EXPECT_EQ(cache.stats().nre_restored_hits, 0u);
  ASSERT_TRUE(cache.LookupNre("snapshot-only-key", &out));
  EXPECT_EQ(cache.stats().nre_restored_hits, 1u);
}

TEST(WarmStartTest, MidLifeWarmStartNeverEvictsLiveWorkingSet) {
  // A cache already at its cap with a live working set loads an older
  // snapshot of equal size: every live entry must survive (restored
  // entries rank below live ones in LRU order) and the whole snapshot
  // must be the part that gets evicted.
  const size_t kCap = 4;
  WarmState snapshot;
  for (size_t i = 0; i < kCap; ++i) {
    snapshot.nre.emplace_back(
        "stale" + std::to_string(i),
        BinaryRelation{{Value::Constant(i), Value::Constant(i)}});
  }

  EngineCacheOptions options;
  options.max_nre_entries = kCap;
  options.num_shards = 1;  // exact global LRU (the behavior under test)
  EngineCache cache(options);
  for (size_t i = 0; i < kCap; ++i) {
    cache.StoreNre("live" + std::to_string(i),
                   {{Value::Constant(i), Value::Constant(i)}});
  }

  SnapshotRestoreStats restored = cache.ImportWarmState(std::move(snapshot));
  EXPECT_EQ(restored.nre_entries, kCap);
  EXPECT_EQ(restored.evicted_on_load, kCap);  // the snapshot, not the set
  EXPECT_EQ(cache.sizes().nre_entries, kCap);
  BinaryRelation out;
  for (size_t i = 0; i < kCap; ++i) {
    EXPECT_TRUE(cache.LookupNre("live" + std::to_string(i), &out)) << i;
    EXPECT_FALSE(cache.LookupNre("stale" + std::to_string(i), &out)) << i;
  }
}

TEST(WarmStartTest, LruCapsRespectedOnLoad) {
  // Save 8 compiled + 6 NRE entries, reload under caps of 3 / 2: only
  // the most recently used survive, eviction counters account for the
  // rest, and lookups confirm which entries made it.
  // Single-shard caches on both sides: this test pins exact global LRU
  // order across a save/restore (which entries survive tight caps).
  EngineCacheOptions big_options;
  big_options.num_shards = 1;
  EngineCache big(big_options);
  Alphabet alphabet;
  std::vector<NrePtr> nres;
  for (int i = 0; i < 8; ++i) {
    SymbolId s = alphabet.Intern("s" + std::to_string(i));
    nres.push_back(Nre::Symbol(s));
    big.GetOrCompile(nres.back());
  }
  for (int i = 0; i < 6; ++i) {
    big.StoreNre("key" + std::to_string(i),
                 {{Value::Constant(i), Value::Constant(i)}});
  }

  EngineCacheOptions capped_options;
  capped_options.max_compiled_entries = 3;
  capped_options.max_nre_entries = 2;
  capped_options.num_shards = 1;
  EngineCache capped(capped_options);
  SnapshotRestoreStats restored = capped.ImportWarmState(big.ExportWarmState());
  EXPECT_EQ(restored.compiled_entries, 8u);
  EXPECT_EQ(restored.nre_entries, 6u);
  EXPECT_EQ(restored.evicted_on_load, (8u - 3u) + (6u - 2u));
  EXPECT_EQ(capped.sizes().compiled_entries, 3u);
  EXPECT_EQ(capped.sizes().nre_entries, 2u);

  // Most recently used entries survived; the oldest were dropped.
  BinaryRelation out;
  EXPECT_TRUE(capped.LookupNre("key5", &out));
  EXPECT_TRUE(capped.LookupNre("key4", &out));
  EXPECT_FALSE(capped.LookupNre("key0", &out));
  CacheStats before = capped.stats();
  capped.GetOrCompile(nres[7]);  // MRU compiled entry: restored hit
  EXPECT_EQ(capped.stats().compile_hits, before.compile_hits + 1);
  EXPECT_EQ(capped.stats().compile_restored_hits,
            before.compile_restored_hits + 1);
  capped.GetOrCompile(nres[0]);  // evicted on load: recompiles
  EXPECT_EQ(capped.stats().compile_misses, before.compile_misses + 1);
}

// --- restored automata vs fresh compiles -----------------------------------

TEST(RestoredAutomataTest, AgreeWithFreshCompilesOnRandomizedDifferential) {
  struct Params {
    uint64_t seed;
    size_t nodes, edges, labels, depth, nres;
  };
  for (const Params& p : {Params{31, 8, 20, 2, 4, 8},
                          Params{32, 12, 36, 3, 4, 8},
                          Params{33, 30, 120, 2, 3, 6},
                          Params{34, 200, 800, 2, 3, 3}}) {
    Universe universe;
    Alphabet alphabet;
    RandomGraphParams gp;
    gp.num_nodes = p.nodes;
    gp.num_edges = p.edges;
    gp.num_labels = p.labels;
    gp.seed = p.seed;
    Graph g = MakeRandomGraph(gp, universe, alphabet);
    Rng rng(p.seed * 7919 + 13);

    std::vector<NrePtr> nres;
    EngineCache saved;
    for (size_t i = 0; i < p.nres; ++i) {
      nres.push_back(MakeRandomNre(p.depth, p.labels, alphabet, rng));
      saved.GetOrCompile(nres.back());
    }

    // Round-trip the compiled memo through the codec.
    Result<WarmState> decoded =
        DecodeSnapshot(EncodeSnapshot(saved.ExportWarmState()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EngineCache restored;
    restored.ImportWarmState(std::move(decoded).value());
    ASSERT_EQ(restored.sizes().compiled_entries, p.nres);

    AutomatonNreEvaluator warm_eval(&restored);
    AutomatonNreEvaluator fresh_eval;
    NaiveNreEvaluator legacy;
    for (const NrePtr& nre : nres) {
      BinaryRelation expected = fresh_eval.Eval(nre, g);
      EXPECT_EQ(warm_eval.Eval(nre, g), expected)
          << "seed " << p.seed << ": " << nre->ToString(alphabet);
      EXPECT_EQ(legacy.Eval(nre, g), expected)
          << "seed " << p.seed << ": " << nre->ToString(alphabet);
    }
    // Every evaluation was served by a restored automaton, none recompiled.
    EXPECT_EQ(restored.stats().compile_misses, 0u);
    EXPECT_EQ(restored.stats().compile_restored_hits,
              restored.stats().compile_hits);
  }
}

TEST(RestoredAutomataTest, FromPartsRejectsInvalidParts) {
  // A valid automaton decomposes and reassembles, with the reversed
  // transition lists re-derived to exactly what Compile produced...
  Alphabet alphabet;
  SymbolId a = alphabet.Intern("a");
  CompiledNrePtr ok = CompiledNre::Compile(Nre::Star(Nre::Symbol(a)));
  ASSERT_NE(ok, nullptr);
  auto forward_states = [](const CompiledNre& c) {
    std::vector<CompiledNre::State> out;
    for (uint32_t s = 0; s < c.num_states(); ++s) out.push_back(c.Forward(s));
    return out;
  };
  std::vector<uint8_t> accepting;
  for (uint32_t s = 0; s < ok->num_states(); ++s) {
    accepting.push_back(ok->Accepting(s) ? 1 : 0);
  }
  CompiledNrePtr rebuilt =
      CompiledNre::FromParts(ok->start(), forward_states(*ok), accepting, {});
  ASSERT_NE(rebuilt, nullptr);
  for (uint32_t s = 0; s < ok->num_states(); ++s) {
    EXPECT_EQ(rebuilt->Reverse(s).fwd, ok->Reverse(s).fwd) << "state " << s;
    EXPECT_EQ(rebuilt->Reverse(s).bwd, ok->Reverse(s).bwd) << "state " << s;
    EXPECT_EQ(rebuilt->Reverse(s).tests, ok->Reverse(s).tests)
        << "state " << s;
  }

  // ...but every broken variant is refused.
  EXPECT_EQ(CompiledNre::FromParts(99, forward_states(*ok), accepting, {}),
            nullptr);  // start out of range
  EXPECT_EQ(CompiledNre::FromParts(ok->start(), {}, {}, {}),
            nullptr);  // no states
  std::vector<uint8_t> bad_accepting = accepting;
  bad_accepting[0] = 7;
  EXPECT_EQ(
      CompiledNre::FromParts(ok->start(), forward_states(*ok), bad_accepting,
                             {}),
      nullptr);  // non-boolean accepting flag
  std::vector<CompiledNre::State> bad_target = forward_states(*ok);
  bad_target[0].fwd.emplace_back(a, 1000);
  EXPECT_EQ(CompiledNre::FromParts(ok->start(), bad_target, accepting, {}),
            nullptr);  // transition target out of range
  std::vector<CompiledNre::State> unsorted = forward_states(*ok);
  unsorted[0].fwd.emplace_back(a, 0);
  unsorted[0].fwd.emplace_back(a, 0);  // duplicate → not strictly sorted
  EXPECT_EQ(CompiledNre::FromParts(ok->start(), unsorted, accepting, {}),
            nullptr);  // non-canonical transition order
}

// --- corruption safety -----------------------------------------------------

/// One valid snapshot with all three memos populated, built once.
std::string MakeValidSnapshotBytes() {
  ExchangeEngine engine(TestEngineOptions());
  std::vector<Scenario> scenarios = MakeScenarios();
  SolveAllToStrings(engine, scenarios);
  return EncodeSnapshot(engine.cache().ExportWarmState());
}

TEST(CorruptionTest, EveryTruncationFailsCleanly) {
  std::string bytes = MakeValidSnapshotBytes();
  ASSERT_GT(bytes.size(), 64u);
  // Every length below 64 (header/table territory), then sampled
  // positions through the payloads.
  const size_t step = bytes.size() > 257 ? bytes.size() / 257 : 1;
  for (size_t len = 0; len < bytes.size(); len += (len < 64 ? 1 : step)) {
    Result<WarmState> decoded = DecodeSnapshot(bytes.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
  // A truncated *file* leaves the loading cache untouched (empty).
  std::string path = TempPath("truncated.gdxsnap");
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EngineCache cache;
  Status status = cache.LoadSnapshot(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(cache.sizes().nre_entries, 0u);
  EXPECT_EQ(cache.sizes().answer_keys, 0u);
  EXPECT_EQ(cache.sizes().compiled_entries, 0u);
}

TEST(CorruptionTest, EverySampledBitFlipIsDetected) {
  // The format checksums every byte: magic and version by direct
  // comparison, the section table by the header checksum, payloads by
  // per-section checksums. Any single bit flip must therefore fail the
  // decode — and must never crash (ASan/UBSan legs run this test too).
  std::string bytes = MakeValidSnapshotBytes();
  const size_t step = bytes.size() > 331 ? bytes.size() / 331 : 1;
  for (size_t pos = 0; pos < bytes.size(); pos += step) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(
        static_cast<uint8_t>(flipped[pos]) ^ (1u << (pos % 8)));
    Result<WarmState> decoded = DecodeSnapshot(flipped);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << pos;
  }
}

TEST(CorruptionTest, BadMagicAndWrongVersionRejected) {
  std::string bytes = MakeValidSnapshotBytes();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  Result<WarmState> decoded = DecodeSnapshot(bad_magic);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);

  // Version is the u32 at offset 8; a future version must be refused
  // with a message naming versions (the forward-compat policy).
  std::string future = bytes;
  future[8] = static_cast<char>(kFormatVersion + 1);
  decoded = DecodeSnapshot(future);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);

  EngineCache cache;
  std::string path = TempPath("future.gdxsnap");
  WriteFileBytes(path, future);
  EXPECT_FALSE(cache.LoadSnapshot(path).ok());
  EXPECT_EQ(cache.sizes().compiled_entries, 0u);

  // A missing file is a clean NotFound, not a crash.
  EXPECT_EQ(cache.LoadSnapshot(TempPath("does_not_exist.gdxsnap")).code(),
            StatusCode::kNotFound);
}

TEST(CorruptionTest, GarbageAndEmptyFilesRejected) {
  for (const std::string& garbage :
       {std::string(), std::string("not a snapshot"),
        std::string(200, '\xff'), std::string(9, '\0')}) {
    Result<WarmState> decoded = DecodeSnapshot(garbage);
    EXPECT_FALSE(decoded.ok());
  }
}

// --- reliance persistence (RELI, ISSUE 9) ----------------------------------

/// Warm state whose chased memo is populated — solving under the default
/// ChaseAlgorithm::kDelta attaches a reliance analysis to every artifact.
WarmState MakeRelianceWarmState() {
  ExchangeEngine engine(TestEngineOptions());
  std::vector<Scenario> scenarios = MakeScenarios();
  SolveAllToStrings(engine, scenarios);
  return engine.cache().ExportWarmState();
}

TEST(ReliancePersistTest, RoundTripIsByteStableAndFieldExact) {
  WarmState state = MakeRelianceWarmState();
  ASSERT_FALSE(state.chased.empty());
  size_t with_reliance = 0;
  for (const auto& [key, chased] : state.chased) {
    if (chased->reliance != nullptr) ++with_reliance;
  }
  ASSERT_GT(with_reliance, 0u);

  const std::string bytes = EncodeSnapshot(state);
  Result<WarmState> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeSnapshot(*decoded), bytes);  // decode→encode identity

  // Every reliance graph restores field-for-field, including the strata
  // the decoder re-derives (DeriveStrata) rather than reads.
  ASSERT_EQ(decoded->chased.size(), state.chased.size());
  for (const auto& [key, original] : state.chased) {
    const ChasedScenario* restored = nullptr;
    for (const auto& [dkey, dchased] : decoded->chased) {
      if (dkey == key) restored = dchased.get();
    }
    ASSERT_NE(restored, nullptr) << key;
    ASSERT_EQ(original->reliance != nullptr, restored->reliance != nullptr);
    if (original->reliance == nullptr) continue;
    const RelianceGraph& a = *original->reliance;
    const RelianceGraph& b = *restored->reliance;
    EXPECT_EQ(a.num_st_tgds, b.num_st_tgds);
    EXPECT_EQ(a.num_egds, b.num_egds);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t n = 0; n < a.nodes.size(); ++n) {
      EXPECT_EQ(a.nodes[n].body_symbols, b.nodes[n].body_symbols);
      EXPECT_EQ(a.nodes[n].definite_head_symbols,
                b.nodes[n].definite_head_symbols);
      EXPECT_EQ(a.nodes[n].nullable_body_atom, b.nodes[n].nullable_body_atom);
      EXPECT_EQ(a.nodes[n].dead, b.nodes[n].dead);
    }
    EXPECT_EQ(a.out, b.out);
    EXPECT_EQ(a.scc_of, b.scc_of);
    EXPECT_EQ(a.strata, b.strata);
    EXPECT_EQ(a.stratum_level, b.stratum_level);
  }
}

TEST(ReliancePersistTest, PreReliArtifactsRestoreWithNullReliance) {
  // A pre-ISSUE-9 snapshot is modeled by chased artifacts without a
  // reliance graph: the encoder then emits no RELI entry for them and the
  // restore succeeds with a null analysis — no version bump needed.
  WarmState state = MakeRelianceWarmState();
  for (auto& [key, chased] : state.chased) {
    auto stripped = std::make_shared<ChasedScenario>(*chased);
    stripped->reliance = nullptr;
    chased = std::move(stripped);
  }
  Result<WarmState> decoded = DecodeSnapshot(EncodeSnapshot(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->chased.size(), state.chased.size());
  for (const auto& [key, chased] : decoded->chased) {
    EXPECT_EQ(chased->reliance, nullptr) << key;
  }
}

TEST(ReliancePersistTest, SemanticallyInvalidGraphsRejected) {
  // Invalid reliance content behind a *valid* checksum (EncodeSnapshot
  // writes any WarmState verbatim) must fail RELI validation, not reach
  // a cache. Each mutation leaves every other section intact.
  WarmState state = MakeRelianceWarmState();
  size_t idx = state.chased.size();
  for (size_t i = 0; i < state.chased.size(); ++i) {
    if (state.chased[i].second->reliance != nullptr) idx = i;
  }
  ASSERT_LT(idx, state.chased.size());

  const auto mutate = [&](const std::function<void(RelianceGraph*)>& fn) {
    WarmState tampered = MakeRelianceWarmState();
    auto chased = std::make_shared<ChasedScenario>(*tampered.chased[idx].second);
    RelianceGraph graph = *chased->reliance;
    fn(&graph);
    chased->reliance = std::make_shared<const RelianceGraph>(std::move(graph));
    tampered.chased[idx].second = std::move(chased);
    return DecodeSnapshot(EncodeSnapshot(tampered));
  };

  Result<WarmState> decoded = mutate([](RelianceGraph* g) {
    g->nodes[0].body_symbols = {5, 5};  // not strictly increasing
  });
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("increasing"), std::string::npos)
      << decoded.status().ToString();

  decoded = mutate([](RelianceGraph* g) {
    // An adjacency target past the node range — keeps the row sorted so
    // only the bounds check can reject it.
    g->out[0].push_back(static_cast<uint32_t>(g->nodes.size()));
  });
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("out of range"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ReliancePersistTest, DuplicateRelianceEntryRejected) {
  WarmState state = MakeRelianceWarmState();
  size_t idx = state.chased.size();
  for (size_t i = 0; i < state.chased.size(); ++i) {
    if (state.chased[i].second->reliance != nullptr) idx = i;
  }
  ASSERT_LT(idx, state.chased.size());
  // Two chased entries under one key each carry a reliance graph: the
  // second RELI record targets an artifact whose analysis is already
  // attached — structural corruption, not a merge.
  state.chased.push_back(state.chased[idx]);
  Result<WarmState> decoded = DecodeSnapshot(EncodeSnapshot(state));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("duplicate reliance"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ReliancePersistTest, CorruptReliSectionDegradesToColdStart) {
  // Locate the RELI section via the table and fuzz bits across its
  // payload: every flip must fail the decode (per-section checksum — no
  // format version bump involved), and loading such a file must leave
  // the cache empty. Mirrors the CHSE fuzz in chase_compile_test.
  std::string bytes = EncodeSnapshot(MakeRelianceWarmState());

  WireReader header(bytes);
  std::string_view magic;
  uint32_t version, num_sections;
  uint64_t table_checksum;
  ASSERT_TRUE(header.ReadRaw(8, &magic));
  ASSERT_TRUE(header.ReadU32(&version));
  ASSERT_TRUE(header.ReadU32(&num_sections));
  ASSERT_TRUE(header.ReadU64(&table_checksum));
  uint64_t reli_offset = 0, reli_length = 0;
  for (uint32_t i = 0; i < num_sections; ++i) {
    uint32_t id;
    uint64_t offset, length, checksum;
    ASSERT_TRUE(header.ReadU32(&id));
    ASSERT_TRUE(header.ReadU64(&offset));
    ASSERT_TRUE(header.ReadU64(&length));
    ASSERT_TRUE(header.ReadU64(&checksum));
    if (id == (uint32_t('R') | uint32_t('E') << 8 | uint32_t('L') << 16 |
               uint32_t('I') << 24)) {
      reli_offset = offset;
      reli_length = length;
    }
  }
  ASSERT_GT(reli_length, 4u) << "the snapshot must carry reliance entries";

  const size_t step = reli_length > 97 ? reli_length / 97 : 1;
  for (uint64_t pos = 0; pos < reli_length; pos += step) {
    std::string flipped = bytes;
    flipped[reli_offset + pos] = static_cast<char>(
        static_cast<uint8_t>(flipped[reli_offset + pos]) ^
        (1u << (pos % 8)));
    Result<WarmState> decoded = DecodeSnapshot(flipped);
    EXPECT_FALSE(decoded.ok()) << "flip at RELI byte " << pos;
  }

  std::string flipped = bytes;
  flipped[reli_offset + reli_length / 2] ^= 0x20;
  std::string path = TempPath("corrupt_reli.gdxsnap");
  WriteFileBytes(path, flipped);
  EngineCache cache;
  Status status = cache.LoadSnapshot(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(cache.sizes().chased_entries, 0u);
  EXPECT_EQ(cache.sizes().nre_entries, 0u);
}

TEST(ReliancePersistTest, WarmStartReplaysRelianceWithZeroRebuilds) {
  std::string path = TempPath("warm_reli.gdxsnap");
  ExchangeEngine cold(TestEngineOptions());
  std::vector<Scenario> cold_scenarios = MakeScenarios();
  std::vector<std::string> cold_out =
      SolveAllToStrings(cold, cold_scenarios);
  ASSERT_TRUE(cold.SaveWarmState(path).ok());

  ExchangeEngine warm(TestEngineOptions());
  ASSERT_TRUE(warm.WarmStart(path).ok());
  // The restored artifacts carry their persisted analyses...
  WarmState restored = warm.cache().ExportWarmState();
  size_t with_reliance = 0;
  for (const auto& [key, chased] : restored.chased) {
    if (chased->reliance != nullptr) ++with_reliance;
  }
  EXPECT_GT(with_reliance, 0u);

  // ...so replaying the full workload builds not a single new graph
  // (the ISSUE 9 zero-recompute criterion), while outputs stay
  // byte-identical to the cold run.
  const uint64_t builds_before = RelianceGraph::BuildCount();
  std::vector<Scenario> warm_scenarios = MakeScenarios();
  Metrics warm_total;
  std::vector<std::string> warm_out =
      SolveAllToStrings(warm, warm_scenarios, &warm_total);
  EXPECT_EQ(RelianceGraph::BuildCount(), builds_before);
  ASSERT_EQ(warm_out.size(), cold_out.size());
  for (size_t i = 0; i < cold_out.size(); ++i) {
    EXPECT_EQ(warm_out[i], cold_out[i]) << "scenario " << i;
  }
  EXPECT_EQ(warm_total.chase_delta_rounds, 0u);  // no chase ran at all
  EXPECT_GT(warm_total.chase_cache_restored_hits, 0u);
}

}  // namespace
}  // namespace gdx
