#ifndef GDX_COMMON_PARALLEL_SEARCH_H_
#define GDX_COMMON_PARALLEL_SEARCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"

namespace gdx {

/// Cooperative cancellation flag shared between a solve and its workers
/// (ISSUE 2 tentpole). Requesting a stop is advisory: workers and the DPLL
/// inner loop poll it and abandon their current subrange / cube, turning
/// the whole solve into a sound "unknown". Distinct from the *internal*
/// rank ceiling ParallelSearch uses for deterministic early exit.
///
/// Deadlines (ISSUE 8 tentpole): a token may additionally carry a
/// monotonic-clock deadline. stop_requested() checks it and — on expiry —
/// trips the same flag an explicit RequestStop would, so every poller
/// (including components that only watch the raw flag(), like the DPLL
/// inner loop) observes the expiry the moment *any* stage polls the
/// token. The first stop cause wins and is preserved as reason(), which
/// is how a server tells CANCELED from DEADLINE_EXCEEDED.
class CancellationToken {
 public:
  enum class StopReason : uint8_t {
    kNone = 0,
    kCanceled = 1,  // explicit RequestStop
    kDeadline = 2,  // monotonic deadline expired
  };

  void RequestStop() { Stop(StopReason::kCanceled); }
  void RequestStop(StopReason reason) { Stop(reason); }

  /// Arms (or rearms) the deadline. The clock is steady_clock: wall-time
  /// jumps never expire a solve early or extend it.
  void SetDeadline(std::chrono::steady_clock::time_point when) {
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            when.time_since_epoch())
            .count());
    // 0 is the "no deadline" sentinel; an exactly-zero epoch deadline is
    // long in the past anyway.
    deadline_ns_.store(ns == 0 ? 1 : ns, std::memory_order_release);
  }
  void SetDeadlineAfter(std::chrono::nanoseconds budget) {
    SetDeadline(std::chrono::steady_clock::now() + budget);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  /// Polling this *is* the deadline enforcement: past-deadline tokens
  /// self-trip here (reason kDeadline) before reporting true.
  bool stop_requested() const {
    if (stop_.load(std::memory_order_acquire)) return true;
    const uint64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0 && NowNs() >= deadline) {
      Stop(StopReason::kDeadline);
      return true;
    }
    return false;
  }

  /// Why the token stopped (kNone while still running). Stable: the first
  /// cause to fire wins, later causes never overwrite it.
  StopReason reason() const {
    return static_cast<StopReason>(reason_.load(std::memory_order_acquire));
  }

  /// The raw flag, for components that poll without depending on this
  /// header's type (e.g. DpllConfig::cancel). Deadline expiry reaches this
  /// view too, as soon as any caller polls stop_requested().
  const std::atomic<bool>* flag() const { return &stop_; }

  /// Monotonic now, in the same ns-since-steady-epoch scale SetDeadline
  /// stores (exposed for watchdogs that compare against many tokens).
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  /// const because deadline expiry is detected inside const polls; the
  /// members it touches are atomics, so this is logically a cache fill.
  void Stop(StopReason reason) const {
    uint8_t expected = 0;
    reason_.compare_exchange_strong(expected,
                                    static_cast<uint8_t>(reason),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
    stop_.store(true, std::memory_order_release);
  }

  mutable std::atomic<bool> stop_{false};
  mutable std::atomic<uint8_t> reason_{0};
  std::atomic<uint64_t> deadline_ns_{0};
};

/// An ordered record of side effects that speculative parallel work
/// defers instead of applying. Shared state whose contents or counters
/// must not depend on scheduling (the engine cache's memo traffic) checks
/// Current() and, while a journal is installed on the calling thread,
/// records a closure that applies the effect later. ParallelSearch and
/// FanOutTasks give every rank / task its own journal and apply the
/// journals in rank / task order, so the shared state evolves exactly as
/// under a sequential run; journals of abandoned ranks are dropped.
class EffectJournal {
 public:
  using Effect = std::function<void()>;

  /// The journal installed on this thread (nullptr: effects apply at once).
  static EffectJournal* Current();

  void Record(Effect effect) { effects_.push_back(std::move(effect)); }
  bool empty() const { return effects_.empty(); }

  /// Hands the recorded effects on, in order, and leaves this journal
  /// empty: appended to `parent` when non-null (the enclosing work is
  /// itself speculative), run here otherwise.
  void ApplyTo(EffectJournal* parent);

 private:
  std::vector<Effect> effects_;
};

/// RAII installer of the calling thread's journal (restores the previous
/// one on destruction, so journals nest).
class ScopedEffectJournal {
 public:
  explicit ScopedEffectJournal(EffectJournal* journal);
  ~ScopedEffectJournal();
  ScopedEffectJournal(const ScopedEffectJournal&) = delete;
  ScopedEffectJournal& operator=(const ScopedEffectJournal&) = delete;

 private:
  EffectJournal* previous_;
};

/// Tuning of one ParallelSearch instance. All fields are borrowed; the
/// caller keeps pool/cancel alive for the duration of the search calls.
struct ParallelSearchOptions {
  /// Pool the extra workers are submitted to. nullptr (or max_workers <= 1)
  /// degrades to a caller-thread-only scan — same visiting order semantics,
  /// zero thread traffic.
  ThreadPool* pool = nullptr;
  /// Worker count *including* the calling thread (which always
  /// participates, so a saturated pool can never stall a search).
  /// 0 = pool size + 1.
  size_t max_workers = 1;
  /// Ranks per work unit. The effective chunk shrinks for small spaces so
  /// every worker gets several units (load balance on skewed costs).
  size_t chunk_size = 64;
  /// How far (in chunks) a worker may run ahead of the contiguous
  /// completed prefix. Bounds the backlog of visited-but-unmerged ranks
  /// (and their unapplied effect journals) when one slow chunk stalls the
  /// prefix — otherwise a solution-dense scan could buffer results for
  /// the whole space before the on_prefix cap kicks in. Workers past the
  /// window briefly sleep until the prefix catches up; the chunk owner
  /// advancing the prefix is never past it, so the window cannot
  /// deadlock. 0 = unbounded.
  size_t max_lead_chunks = 64;
  /// Spaces smaller than this are scanned on the caller thread only — the
  /// fan-out overhead would dominate.
  size_t min_parallel_ranks = 128;
  /// Adaptive worker scaling (ISSUE 5 satellite): when nonzero, the
  /// effective worker count is additionally capped at
  /// ceil(num_ranks / adaptive_ranks_per_worker) — small choice spaces run
  /// on fewer workers (down to the sequential caller thread) instead of
  /// paying the fan-out for a handful of ranks each. 0 = off (the static
  /// max_workers cap alone decides). Results are worker-count invariant
  /// either way; this only moves wall time.
  size_t adaptive_ranks_per_worker = 0;
  /// Optional external hard abort (see CancellationToken). When it fires,
  /// FindFirst/ScanAll return early and their result is *not* the
  /// deterministic full answer; callers report "cancelled"/unknown.
  const CancellationToken* cancel = nullptr;
  /// Wraps every worker's whole run (including the caller thread's), e.g.
  /// to install thread-local per-solve metric sinks. Must invoke `body`
  /// exactly once.
  std::function<void(size_t worker, const std::function<void()>& body)>
      wrap_worker;
};

/// Deterministic fan-out over a rank space [0, num_ranks) — the
/// witness-choice odometer of the bounded existence search, flattened to
/// mixed-radix ranks (ISSUE 2 tentpole). Work is handed out as contiguous
/// chunks from an atomic cursor; early exit is a monotonically decreasing
/// *rank ceiling*: ranks at or above it are provably irrelevant to the
/// result and are abandoned, ranks below it are always fully visited. That
/// invariant is what makes the outcome identical for any worker count,
/// including 1.
///
/// Side effects follow the same invariant. With more than one worker each
/// visit runs under its own EffectJournal; journals are applied in rank
/// order as the contiguous completed prefix grows, and only for ranks
/// below the decided ceiling — [0, winner] for FindFirst (every rank when
/// nothing is found), [0, ceiling) for ScanAll. Abandoned ranks leave no
/// side effects, so journaled shared state (cache contents, LRU order and
/// hit/miss counters) is that of a sequential visit of exactly those
/// ranks, at any worker count. The one-worker path visits exactly those
/// ranks and applies effects directly. A cancelled search drops the
/// journals it has not applied yet.
class ParallelSearch {
 public:
  static constexpr size_t kNotFound = ~static_cast<size_t>(0);

  explicit ParallelSearch(ParallelSearchOptions options = {})
      : options_(options) {}

  /// First-hit search: visits ranks until the *minimal* rank whose
  /// visit(rank, worker) returns true is known, then returns it (or
  /// kNotFound). Exactly the sequential first-hit: a worker that finds a
  /// hit lowers the ceiling to its rank; workers scanning lower ranks run
  /// on until they pass it. `visit` runs concurrently and must be
  /// thread-safe; `worker` ∈ [0, NumWorkers(num_ranks)). A sequential scan
  /// visits exactly [0, result].
  size_t FindFirst(
      size_t num_ranks,
      const std::function<bool(size_t rank, size_t worker)>& visit) const;

  /// Full scan with order-stable incremental merging: every rank below the
  /// current ceiling is visited exactly once. Each time the *contiguous*
  /// prefix of fully-visited ranks grows, on_prefix(prefix_ranks) is
  /// invoked (serialized, monotone prefix_ranks, final call sees
  /// num_ranks); it may return a new, lower ceiling — ranks >= it are
  /// abandoned — or kNotFound to keep the current one. A sequential scan
  /// reports every rank, so it stops exactly at the ceiling. This is the
  /// seam solution enumeration uses to dedup + cap in rank order while the
  /// scan is still running.
  void ScanAll(
      size_t num_ranks,
      const std::function<void(size_t rank, size_t worker)>& visit,
      const std::function<size_t(size_t prefix_ranks)>& on_prefix) const;

  /// Effective worker count for a space of `num_ranks` (1 when the space is
  /// under min_parallel_ranks or no pool is available).
  size_t NumWorkers(size_t num_ranks) const;

  const ParallelSearchOptions& options() const { return options_; }

 private:
  size_t EffectiveChunk(size_t num_ranks, size_t workers) const;
  /// Runs body(0) on the caller and body(1..workers-1) on the pool; blocks
  /// until all return. Applies wrap_worker around each.
  void RunWorkers(size_t workers,
                  const std::function<void(size_t worker)>& body) const;
  bool Cancelled() const {
    return options_.cancel != nullptr && options_.cancel->stop_requested();
  }

  ParallelSearchOptions options_;
};

}  // namespace gdx

#endif  // GDX_COMMON_PARALLEL_SEARCH_H_
