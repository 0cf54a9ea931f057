#ifndef GDX_ENGINE_CACHE_H_
#define GDX_ENGINE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/chase_compiler.h"
#include "common/parallel_search.h"
#include "common/status.h"
#include "graph/cnre.h"
#include "graph/nre_compile.h"
#include "graph/nre_eval.h"
#include "persist/snapshot.h"

namespace gdx {

/// Counter snapshot of the engine cache (copyable; see EngineCache::stats).
/// The `*_restored_hits` counters (ISSUE 4) count the subset of hits that
/// were served from entries restored by LoadSnapshot rather than computed
/// in this process — each such hit increments both the plain hit counter
/// and its restored twin, so restored_hits() <= hits() always.
struct CacheStats {
  uint64_t nre_hits = 0;
  uint64_t nre_misses = 0;
  uint64_t answer_hits = 0;
  uint64_t answer_misses = 0;
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  uint64_t chase_hits = 0;
  uint64_t chase_misses = 0;
  uint64_t nre_evictions = 0;
  uint64_t answer_evictions = 0;
  uint64_t compile_evictions = 0;
  uint64_t chase_evictions = 0;
  uint64_t nre_restored_hits = 0;
  uint64_t answer_restored_hits = 0;
  uint64_t compile_restored_hits = 0;
  uint64_t chase_restored_hits = 0;

  uint64_t hits() const {
    return nre_hits + answer_hits + compile_hits + chase_hits;
  }
  uint64_t misses() const {
    return nre_misses + answer_misses + compile_misses + chase_misses;
  }
  uint64_t evictions() const {
    return nre_evictions + answer_evictions + compile_evictions +
           chase_evictions;
  }
  uint64_t restored_hits() const {
    return nre_restored_hits + answer_restored_hits +
           compile_restored_hits + chase_restored_hits;
  }

  void Accumulate(const CacheStats& other) {
    nre_hits += other.nre_hits;
    nre_misses += other.nre_misses;
    answer_hits += other.answer_hits;
    answer_misses += other.answer_misses;
    compile_hits += other.compile_hits;
    compile_misses += other.compile_misses;
    chase_hits += other.chase_hits;
    chase_misses += other.chase_misses;
    nre_evictions += other.nre_evictions;
    answer_evictions += other.answer_evictions;
    compile_evictions += other.compile_evictions;
    chase_evictions += other.chase_evictions;
    nre_restored_hits += other.nre_restored_hits;
    answer_restored_hits += other.answer_restored_hits;
    compile_restored_hits += other.compile_restored_hits;
    chase_restored_hits += other.chase_restored_hits;
  }
};

/// What one LoadSnapshot call restored (and immediately dropped again
/// when the receiving cache's LRU caps are smaller than the snapshot).
struct SnapshotRestoreStats {
  size_t nre_entries = 0;
  size_t answer_keys = 0;
  size_t answer_entries = 0;
  size_t compiled_entries = 0;
  size_t chased_entries = 0;
  /// Restored entries evicted straight away by EngineCacheOptions caps
  /// (the most recently used entries of the snapshot are the ones kept).
  size_t evicted_on_load = 0;
};

/// Live entry counts of the cache (see EngineCache::sizes).
struct CacheSizes {
  size_t nre_entries = 0;
  size_t answer_keys = 0;
  size_t answer_entries = 0;
  size_t compiled_entries = 0;
  size_t chased_entries = 0;
};

/// Size caps of the engine cache (ISSUE 2: long-running services must not
/// grow without bound). Eviction is LRU at entry granularity for the NRE
/// and compiled-automaton memos and at key granularity for the answer
/// memo. 0 = unbounded.
///
/// Sharding (ISSUE 7 tentpole): the memos are partitioned into
/// `num_shards` independent shards by key hash, each behind its own
/// mutex, so concurrent sessions of a resident server contend only when
/// they touch the same shard — the single-mutex design serialized every
/// lookup at service concurrency. Caps are distributed over the shards
/// (shard i gets cap/S plus one of the cap%S remainder slots), so the
/// global entry count stays <= the configured cap; LRU eviction is exact
/// per shard and approximate globally. num_shards = 1 reproduces the old
/// exact-global-LRU behavior bit for bit (the fine-grained LRU tests pin
/// it).
struct EngineCacheOptions {
  size_t max_nre_entries = 1u << 16;
  size_t max_answer_keys = 1u << 13;
  size_t max_compiled_entries = 1u << 12;
  size_t max_chased_entries = 1u << 10;
  /// Number of lock shards; rounded up to a power of two, clamped to
  /// [1, 256]. The default suits typical service worker counts.
  size_t num_shards = 8;
};

/// Per-solve cache traffic sink (ISSUE 2 satellite): one instance lives on
/// a Solve's stack; every thread working for that solve — the caller and
/// the intra-solve workers — installs it via ScopedCacheAttribution, so
/// concurrent sibling solves no longer bleed into each other's per-solve
/// counters. Atomic because several workers of one solve increment it at
/// once. Summed per-solve snapshots equal the batch-wide stats() delta
/// exactly.
struct PerSolveCacheStats {
  std::atomic<uint64_t> nre_hits{0};
  std::atomic<uint64_t> nre_misses{0};
  std::atomic<uint64_t> answer_hits{0};
  std::atomic<uint64_t> answer_misses{0};
  std::atomic<uint64_t> compile_hits{0};
  std::atomic<uint64_t> compile_misses{0};
  std::atomic<uint64_t> chase_hits{0};
  std::atomic<uint64_t> chase_misses{0};
  std::atomic<uint64_t> nre_restored_hits{0};
  std::atomic<uint64_t> answer_restored_hits{0};
  std::atomic<uint64_t> compile_restored_hits{0};
  std::atomic<uint64_t> chase_restored_hits{0};

  CacheStats Snapshot() const {
    CacheStats out;
    out.nre_hits = nre_hits.load(std::memory_order_relaxed);
    out.nre_misses = nre_misses.load(std::memory_order_relaxed);
    out.answer_hits = answer_hits.load(std::memory_order_relaxed);
    out.answer_misses = answer_misses.load(std::memory_order_relaxed);
    out.compile_hits = compile_hits.load(std::memory_order_relaxed);
    out.compile_misses = compile_misses.load(std::memory_order_relaxed);
    out.chase_hits = chase_hits.load(std::memory_order_relaxed);
    out.chase_misses = chase_misses.load(std::memory_order_relaxed);
    out.nre_restored_hits =
        nre_restored_hits.load(std::memory_order_relaxed);
    out.answer_restored_hits =
        answer_restored_hits.load(std::memory_order_relaxed);
    out.compile_restored_hits =
        compile_restored_hits.load(std::memory_order_relaxed);
    out.chase_restored_hits =
        chase_restored_hits.load(std::memory_order_relaxed);
    return out;
  }
};

/// RAII installer of the calling thread's per-solve sink (thread-local;
/// restores the previous sink on destruction, so nested scopes and pool
/// workers serving different solves in sequence attribute correctly).
class ScopedCacheAttribution {
 public:
  explicit ScopedCacheAttribution(PerSolveCacheStats* sink);
  ~ScopedCacheAttribution();
  ScopedCacheAttribution(const ScopedCacheAttribution&) = delete;
  ScopedCacheAttribution& operator=(const ScopedCacheAttribution&) = delete;

 private:
  PerSolveCacheStats* previous_;
};

/// Thread-safe engine-level memo tables (PR 1 tentpole part 3; LRU-capped
/// and per-solve attributed since ISSUE 2; hash-sharded since ISSUE 7):
///
///  * NRE memo — ⟦r⟧_G keyed by the NRE's raw structure (kinds + symbol
///    ids) and the graph's exact RawSignature. Both are name-free and
///    collision-free, so entries are shared soundly across scenarios and
///    universes: equal keys imply the evaluation inputs are bitwise equal.
///  * Answer memo — constant query-answer sets per solution graph. Nulls
///    are generation artifacts (every solve draws fresh ones), so a plain
///    signature key would never repeat; instead the key is the query's raw
///    structure plus the graph's *null-blind* shape, and a candidate hit
///    is verified with IsomorphicUpToNulls before being served. Constants
///    map to themselves under that isomorphism, so the memoized constant
///    tuples are exact for the probe graph. Repeated queries over an
///    already-seen target graph thus skip CNRE matching entirely, across
///    solves and across scenarios.
///  * Compiled-automaton memo (ISSUE 3 tentpole part 4) — CompiledNre
///    plans keyed by the NRE's raw structural signature alone (no graph
///    component: a compiled automaton is graph-independent). The bounded
///    search evaluates the same handful of constraint NREs against
///    thousands of near-identical candidate graphs; with this memo each
///    expression is lowered exactly once per process and shared by every
///    intra-solve worker and batch scenario (entries are immutable
///    shared_ptrs, handed out without copying).
///  * Chased-scenario memo (ISSUE 5 tentpole) — §5 universal
///    representatives (ChasedScenario artifacts: chased pattern + null
///    arena + chase counters) keyed by ChaseCompiler::Key, the content
///    signature of everything the chase reads. A batch that repeats
///    scenario content — or a warm-started process re-running a saved
///    workload — runs the s-t + egd chase once per distinct content and
///    replays the artifact everywhere else. Entries are immutable
///    shared_ptrs, handed out without copying.
///
/// Ownership: the cache owns every memoized payload. NRE relations and
/// answer sets are stored by value and copied out on hit; compiled
/// automata are immutable shared_ptrs handed out without copying, so a
/// plan stays alive in callers even after the LRU evicts its entry.
///
/// Thread safety (ISSUE 7 tentpole): every public method is safe to call
/// concurrently. The memos and counters are partitioned into
/// EngineCacheOptions::num_shards independent shards by FNV-1a key hash,
/// each behind its own mutex — concurrent sessions of a resident server
/// contend only on same-shard keys instead of on one global lock
/// (compilation itself deliberately runs outside any lock). Per-solve
/// counter attribution is routed through the calling thread's
/// thread-local PerSolveCacheStats sink (ScopedCacheAttribution) and is
/// exact regardless of shard count.
///
/// Staged traffic: while an EffectJournal is installed on the calling
/// thread (a fanned-out ParallelSearch rank or FanOutTasks task), NRE- and
/// compile-memo accesses read the memo without counting or touching it
/// and record the access in the journal. Applying the journal counts each
/// recorded lookup as a hit or a miss against the memo as it is then, and
/// publishes on a miss — so contents, LRU order and counters equal a
/// sequential run's, whatever the worker count. The answer and chased
/// memos are touched only outside fan-outs and are not staged.
///
/// Invalidation: keys are pure functions of evaluation inputs — raw NRE
/// structure and raw graph content — so entries never go stale and there
/// is no invalidation protocol. Entries only leave via LRU eviction at
/// the EngineCacheOptions caps or Clear(). Mutating a Graph never
/// corrupts the cache (graphs are keyed by content, not identity), it
/// just produces a different key on the next lookup.
///
/// Persistence (ISSUE 4, extended by ISSUE 5): SaveSnapshot/LoadSnapshot
/// serialize and restore all four memos — compiled automata and chased
/// scenarios included — through the versioned snapshot format of
/// docs/FORMAT.md. Loading is transactional
/// (a corrupt file restores nothing and returns a non-OK Status), keeps
/// live entries over snapshot duplicates, preserves the snapshot's
/// per-shard LRU order, and respects this cache's LRU caps. Hits on
/// restored entries are additionally counted in the *_restored_hits
/// counters. Export order is shard-major (shard 0..S-1, least- to
/// most-recently used within each), and import routes entries back to
/// their shard by the same key hash — save → load → save is
/// byte-stable for any fixed shard count, and a snapshot written under
/// one shard count loads correctly under any other.
class EngineCache : public CompiledNreCache {
 public:
  explicit EngineCache(EngineCacheOptions options = {});

  /// The NRE-memo key for ⟦nre⟧_g (raw NRE structure + exact graph raw
  /// signature). Compute once per evaluation and reuse for lookup + store.
  static std::string NreKey(const NrePtr& nre, const Graph& g);

  /// Looks up ⟦r⟧_g by key; returns true and fills `*out` on a hit.
  /// Both apply at once, journal or not (see GetOrEvalNre).
  bool LookupNre(const std::string& key, BinaryRelation* out);
  void StoreNre(std::string key, BinaryRelation relation);

  /// ⟦r⟧_g by key: a hit is served from the memo, a miss runs `eval` and
  /// publishes its result — unless the calling thread's evaluation token
  /// (ScopedEvalCancellation) fired, since the relation may then be
  /// truncated. This is the access CachingNreEvaluator makes, and the
  /// one NRE-memo access that is staged under an EffectJournal.
  BinaryRelation GetOrEvalNre(std::string key,
                              const std::function<BinaryRelation()>& eval);

  /// The answer-memo key for `query` over solution graph `g` (raw query
  /// structure + null-blind graph shape; no names, no universe identity).
  static std::string AnswerKey(const CnreQuery& query, const Graph& g);

  /// Looks up the memoized constant answer set of the keyed query over a
  /// graph null-isomorphic to `g`; returns true and fills `*out` on a
  /// verified hit.
  bool LookupAnswers(const std::string& key, const Graph& g,
                     std::vector<std::vector<Value>>* out);
  void StoreAnswers(const std::string& key, const Graph& g,
                    std::vector<std::vector<Value>> answers);

  /// The compiled automaton of `nre`, shared across callers: a hit returns
  /// the memoized immutable plan; a miss compiles outside the lock and
  /// publishes the result (first writer wins under races). This is the
  /// CompiledNreCache hook the engine's AutomatonNreEvaluator is wired to.
  CompiledNrePtr GetOrCompile(const NrePtr& nre) override;

  /// Looks up the chased-scenario artifact for a ChaseCompiler::Key;
  /// nullptr on a miss. Every call counts as exactly one chase hit or
  /// miss (like the other memos).
  ChasedScenarioPtr LookupChased(const std::string& key);

  /// Publishes a compiled chase artifact. Racing publishers of one key
  /// keep the first (artifacts are interchangeable — compilation is
  /// deterministic).
  void StoreChased(const std::string& key, ChasedScenarioPtr artifact);

  // --- Warm-start persistence (ISSUE 4 tentpole) ------------------------

  /// Writes the cache's current warm state to `path` as one versioned
  /// snapshot (docs/FORMAT.md). Thread-safe; concurrent stores landing
  /// during the export are either fully included or fully absent.
  Status SaveSnapshot(const std::string& path) const;

  /// Restores a snapshot saved by SaveSnapshot. Transactional: a
  /// truncated/corrupted/wrong-version file restores nothing and returns
  /// a descriptive non-OK Status (a cold start, not UB). On success the
  /// restored entries join the memos flagged as restored (hits on them
  /// tick the *_restored_hits counters), live entries win over snapshot
  /// duplicates, and restored entries rank *below* every live entry in
  /// LRU order (a snapshot is older than anything computed here), so a
  /// mid-life load under tight caps evicts snapshot entries, never the
  /// live working set. `restored` (optional) receives what was loaded.
  Status LoadSnapshot(const std::string& path,
                      SnapshotRestoreStats* restored = nullptr);

  /// The snapshot codec's view of the cache content (entries ordered
  /// shard-major, least- to most-recently used within each shard).
  /// Exposed for the persistence layer and its tests;
  /// SaveSnapshot == WriteSnapshotFile(ExportWarmState).
  WarmState ExportWarmState() const;

  /// Installs decoded warm state; see LoadSnapshot for the semantics.
  SnapshotRestoreStats ImportWarmState(WarmState state);

  CacheStats stats() const;
  CacheSizes sizes() const;
  const EngineCacheOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }
  void ResetStats();
  void Clear();

 private:
  /// Same-key non-isomorphic graphs are rare (the key pins the
  /// null-blind shape), so a handful of entries per answer key is plenty.
  static constexpr size_t kMaxAnswerEntriesPerKey = 8;

  struct NreEntry {
    BinaryRelation relation;
    std::list<std::string>::iterator lru;
    bool restored = false;  // came from LoadSnapshot
  };
  struct AnswerEntry {
    Graph graph;  // retained for the isomorphism verification on lookup
    std::vector<std::vector<Value>> answers;
    bool restored = false;
  };
  struct AnswerBucket {
    std::vector<AnswerEntry> entries;
    std::list<std::string>::iterator lru;
  };
  struct CompiledEntry {
    CompiledNrePtr compiled;
    std::list<std::string>::iterator lru;
    bool restored = false;
  };
  struct ChasedEntry {
    ChasedScenarioPtr artifact;
    std::list<std::string>::iterator lru;
    bool restored = false;
  };

  /// One lock shard: a full private copy of the four memos plus its own
  /// counters and cap quotas. Every mutation of a shard happens under its
  /// mutex; cross-shard reads (stats/sizes/export) lock one shard at a
  /// time and merge.
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, NreEntry> nre_memo;
    std::list<std::string> nre_lru;  // front = most recently used
    std::unordered_map<std::string, AnswerBucket> answer_memo;
    std::list<std::string> answer_lru;
    size_t answer_entries = 0;
    std::unordered_map<std::string, CompiledEntry> compiled_memo;
    std::list<std::string> compiled_lru;
    std::unordered_map<std::string, ChasedEntry> chased_memo;
    std::list<std::string> chased_lru;
    CacheStats stats;
    /// This shard's slice of the global caps. SIZE_MAX = unbounded
    /// (the sentinel a global cap of 0 maps to); a literal 0 means the
    /// shard retains nothing — that happens when a global cap is smaller
    /// than the shard count, and keeps the global total within the cap.
    size_t max_nre_entries = std::numeric_limits<size_t>::max();
    size_t max_answer_keys = std::numeric_limits<size_t>::max();
    size_t max_compiled_entries = std::numeric_limits<size_t>::max();
    size_t max_chased_entries = std::numeric_limits<size_t>::max();
  };

  Shard& ShardFor(const std::string& key) const;

  static void TouchNre(Shard& shard, NreEntry& entry);
  static void TouchAnswers(Shard& shard, AnswerBucket& bucket);
  static void TouchCompiled(Shard& shard, CompiledEntry& entry);
  static void TouchChased(Shard& shard, ChasedEntry& entry);
  /// Called with the shard's mutex held.
  static void EvictOverCap(Shard& shard);
  static void InsertNre(Shard& shard, std::string key,
                        BinaryRelation relation);

  /// One counted NRE-memo lookup on behalf of `sink`: a hit touches the
  /// LRU and fills `*out` (when non-null).
  bool ApplyNreAccess(const std::string& key, BinaryRelation* out,
                      PerSolveCacheStats* sink);
  /// Uncounted read that leaves the LRU order alone (staged accesses).
  bool PeekNre(const std::string& key, BinaryRelation* out);
  /// One counted compile-memo access: a hit returns the memoized plan; a
  /// miss publishes `compiled`, or — when it is null — counts nothing and
  /// returns null (a lookup that the caller follows with a compile).
  CompiledNrePtr ApplyCompileAccess(std::string key, CompiledNrePtr compiled,
                                    PerSolveCacheStats* sink);

  EngineCacheOptions options_;
  /// Fixed at construction (mutexes make Shard immovable, hence the
  /// unique_ptr indirection).
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

/// NreEvaluator decorator that memoizes full-relation Eval() calls in an
/// EngineCache. EvalFrom/Contains delegate to the base evaluator unchanged
/// (they are cheap single-source queries and keep results bit-identical to
/// the undecorated evaluator).
class CachingNreEvaluator : public NreEvaluator {
 public:
  CachingNreEvaluator(const NreEvaluator* base, EngineCache* cache)
      : base_(base), cache_(cache) {}

  BinaryRelation Eval(const NrePtr& nre, const Graph& g) const override;
  BinaryRelation EvalOnView(const NrePtr& nre,
                            const GraphView& view) const override;
  /// Memo check first: a hit never invokes the view factory, so repeated
  /// matcher builds over an already-seen graph skip CSR indexing.
  BinaryRelation EvalDeferred(
      const NrePtr& nre, const Graph& g,
      const std::function<const GraphView&()>& view) const override;
  std::vector<Value> EvalFrom(const NrePtr& nre, const Graph& g,
                              Value src) const override {
    return base_->EvalFrom(nre, g, src);
  }
  /// Pass-through so the base evaluator's 64-way batched BFS serves
  /// source batches even behind the cache decorator (ISSUE 10).
  std::vector<std::vector<Value>> EvalFromMany(
      const NrePtr& nre, const Graph& g,
      const std::vector<Value>& srcs) const override {
    return base_->EvalFromMany(nre, g, srcs);
  }
  bool Contains(const NrePtr& nre, const Graph& g, Value src,
                Value dst) const override {
    return base_->Contains(nre, g, src, dst);
  }
  const char* name() const override { return "caching"; }

  const NreEvaluator& base() const { return *base_; }

 private:
  const NreEvaluator* base_;
  EngineCache* cache_;
};

}  // namespace gdx

#endif  // GDX_ENGINE_CACHE_H_
