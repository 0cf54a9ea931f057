#include "common/parallel_search.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace gdx {
namespace {

/// Completion latch for the workers one search borrows from the shared
/// pool. ThreadPool::Wait() waits for *every* pending task — including
/// sibling solves' — so each search counts down its own tasks instead.
class Latch {
 public:
  explicit Latch(size_t count) : outstanding_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--outstanding_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t outstanding_;
};

/// Contiguous-prefix bookkeeping and rank-tagged effect journals of one
/// fanned-out search. Each visit runs under a fresh EffectJournal; the
/// journals of ranks known to lie below the search's final ceiling are
/// applied in rank order, on the thread that advances the prefix, into
/// the journal that was current where the search started. Journals of
/// dead ranks (at or above the ceiling) are dropped.
class StagedRanks {
 public:
  StagedRanks(size_t num_chunks, size_t chunk, size_t num_ranks)
      : parent_(EffectJournal::Current()),
        chunk_(chunk),
        num_ranks_(num_ranks),
        chunk_done_(num_chunks, 0) {}

  /// Runs visit() with its side effects journaled under `rank`.
  template <typename Fn>
  bool Visit(size_t rank, Fn&& visit) {
    EffectJournal journal;
    bool hit;
    {
      ScopedEffectJournal scope(&journal);
      hit = visit();
    }
    if (!journal.empty()) {
      std::lock_guard<std::mutex> lock(staged_mutex_);
      staged_.emplace(rank, std::move(journal));
    }
    return hit;
  }

  /// Lead window: chunk `c` may start only within `max_lead` chunks of
  /// the completed prefix. The owner of the first incomplete chunk is
  /// always inside it, so someone always progresses. Returns false when
  /// `give_up()` turns true while waiting (or before starting).
  template <typename GiveUp>
  bool AwaitLeadWindow(size_t c, size_t max_lead, GiveUp&& give_up) const {
    for (;;) {
      if (give_up()) return false;
      if (max_lead == 0 ||
          c < prefix_chunks_.load(std::memory_order_acquire) + max_lead) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Marks chunk `c` complete. When the contiguous prefix grows,
  /// `advance(prefix_ranks)` runs (serialized, monotone prefix_ranks) and
  /// returns {commit_end, dead_from} for Commit.
  template <typename Advance>
  void CompleteChunk(size_t c, Advance&& advance) {
    std::lock_guard<std::mutex> lock(done_mutex_);
    chunk_done_[c] = 1;
    size_t prefix = prefix_chunks_.load(std::memory_order_relaxed);
    const size_t before = prefix;
    while (prefix < chunk_done_.size() && chunk_done_[prefix]) ++prefix;
    prefix_chunks_.store(prefix, std::memory_order_release);
    if (prefix == before) return;
    auto [commit_end, dead_from] =
        advance(std::min(prefix * chunk_, num_ranks_));
    CommitLocked(commit_end, dead_from);
  }

  /// Applies the journals of ranks below `commit_end` in rank order and
  /// drops those at or above `dead_from`.
  void Commit(size_t commit_end, size_t dead_from) {
    std::lock_guard<std::mutex> lock(done_mutex_);
    CommitLocked(commit_end, dead_from);
  }

 private:
  void CommitLocked(size_t commit_end, size_t dead_from) {
    std::vector<EffectJournal> ready;
    {
      std::lock_guard<std::mutex> lock(staged_mutex_);
      staged_.erase(staged_.lower_bound(dead_from), staged_.end());
      auto stop = staged_.lower_bound(commit_end);
      for (auto it = staged_.begin(); it != stop; ++it) {
        ready.push_back(std::move(it->second));
      }
      staged_.erase(staged_.begin(), stop);
    }
    // Outside staged_mutex_ (workers keep journaling), inside
    // done_mutex_ (commits stay serialized and in rank order).
    for (EffectJournal& journal : ready) journal.ApplyTo(parent_);
  }

  EffectJournal* const parent_;
  const size_t chunk_;
  const size_t num_ranks_;
  std::mutex done_mutex_;
  std::vector<char> chunk_done_;
  std::atomic<size_t> prefix_chunks_{0};
  std::mutex staged_mutex_;
  std::map<size_t, EffectJournal> staged_;
};

thread_local EffectJournal* g_effect_journal = nullptr;

}  // namespace

EffectJournal* EffectJournal::Current() { return g_effect_journal; }

void EffectJournal::ApplyTo(EffectJournal* parent) {
  std::vector<Effect> effects = std::move(effects_);
  effects_.clear();
  for (Effect& effect : effects) {
    if (parent != nullptr) {
      parent->Record(std::move(effect));
    } else {
      effect();
    }
  }
}

ScopedEffectJournal::ScopedEffectJournal(EffectJournal* journal)
    : previous_(g_effect_journal) {
  g_effect_journal = journal;
}

ScopedEffectJournal::~ScopedEffectJournal() {
  g_effect_journal = previous_;
}

size_t ParallelSearch::NumWorkers(size_t num_ranks) const {
  if (options_.pool == nullptr || options_.max_workers == 1 ||
      num_ranks < options_.min_parallel_ranks) {
    return 1;
  }
  size_t cap = options_.max_workers == 0 ? options_.pool->num_threads() + 1
                                         : options_.max_workers;
  if (options_.adaptive_ranks_per_worker != 0) {
    // Adaptive scheduling: scale the worker count with the choice space so
    // small spaces stay (near-)sequential and only genuinely large ones
    // fan wide. Ceiling division: any remainder earns one more worker.
    size_t adaptive = (num_ranks + options_.adaptive_ranks_per_worker - 1) /
                      options_.adaptive_ranks_per_worker;
    cap = std::min(cap, std::max<size_t>(1, adaptive));
  }
  size_t chunk = std::max<size_t>(1, options_.chunk_size);
  size_t chunks = (num_ranks + chunk - 1) / chunk;
  return std::max<size_t>(1, std::min(cap, chunks));
}

size_t ParallelSearch::EffectiveChunk(size_t num_ranks,
                                      size_t workers) const {
  size_t chunk = std::max<size_t>(1, options_.chunk_size);
  // Aim for >= 4 chunks per worker so a skewed-cost chunk cannot strand
  // the others idle; never below 1.
  size_t balanced = std::max<size_t>(1, num_ranks / (workers * 4));
  return std::min(chunk, balanced);
}

void ParallelSearch::RunWorkers(
    size_t workers, const std::function<void(size_t)>& body) const {
  auto run = [this, &body](size_t worker) {
    if (options_.wrap_worker) {
      options_.wrap_worker(worker, [&body, worker] { body(worker); });
    } else {
      body(worker);
    }
  };
  if (workers <= 1 || options_.pool == nullptr) {
    run(0);
    return;
  }
  Latch latch(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    options_.pool->Submit([&run, &latch, w] {
      run(w);
      latch.CountDown();
    });
  }
  {
    // The caller always participates: progress without pool slots. While
    // it does, it counts as a pool peer — a nested fan-out inside visit()
    // (a nested search or FanOutTasks) must run inline rather than
    // Submit-and-wait, because the borrowed workers can be
    // ordering-coupled to this thread's chunk (ScanAll's lead window) and
    // would then never get back to the pool queues to serve it.
    ThreadPool::CooperativeScope scope(options_.pool);
    run(0);
  }
  latch.Wait();
}

size_t ParallelSearch::FindFirst(
    size_t num_ranks,
    const std::function<bool(size_t, size_t)>& visit) const {
  if (num_ranks == 0) return kNotFound;
  const size_t workers = NumWorkers(num_ranks);
  if (workers == 1) {
    size_t found = kNotFound;
    RunWorkers(1, [&](size_t) {
      for (size_t r = 0; r < num_ranks; ++r) {
        if (Cancelled()) return;
        if (visit(r, 0)) {
          found = r;
          return;
        }
      }
    });
    return found;
  }
  const size_t chunk = EffectiveChunk(num_ranks, workers);
  const size_t num_chunks = (num_ranks + chunk - 1) / chunk;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> best{kNotFound};
  // Ranks above the best hit are dead; every rank up to it is committed.
  auto bound = [&] {
    const size_t b = best.load(std::memory_order_acquire);
    return b == kNotFound ? num_ranks : b + 1;
  };
  StagedRanks staged(num_chunks, chunk, num_ranks);

  RunWorkers(workers, [&](size_t worker) {
    for (;;) {
      if (Cancelled()) return;
      size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      size_t begin = c * chunk;
      // Chunks are handed out in rank order: once one starts at or above
      // the best hit, so does every later one — this worker is done.
      if (!staged.AwaitLeadWindow(c, options_.max_lead_chunks, [&] {
            return Cancelled() ||
                   begin >= best.load(std::memory_order_acquire);
          })) {
        return;
      }
      size_t end = std::min(begin + chunk, num_ranks);
      for (size_t r = begin; r < end; ++r) {
        if (r >= best.load(std::memory_order_acquire)) break;
        if (Cancelled()) return;
        if (staged.Visit(r, [&] { return visit(r, worker); })) {
          size_t cur = best.load(std::memory_order_relaxed);
          while (r < cur && !best.compare_exchange_weak(
                                cur, r, std::memory_order_acq_rel)) {
          }
          break;  // Later ranks in this chunk are > r: irrelevant.
        }
      }
      // Every rank of a completed prefix below the best hit was visited
      // and missed, so the best hit can no longer fall below the prefix.
      staged.CompleteChunk(c, [&](size_t prefix_ranks) {
        const size_t dead = bound();
        return std::make_pair(std::min(prefix_ranks, dead), dead);
      });
    }
  });
  if (!Cancelled()) staged.Commit(bound(), bound());
  return best.load(std::memory_order_acquire);
}

void ParallelSearch::ScanAll(
    size_t num_ranks, const std::function<void(size_t, size_t)>& visit,
    const std::function<size_t(size_t)>& on_prefix) const {
  if (num_ranks == 0) {
    if (on_prefix) on_prefix(0);
    return;
  }
  const size_t workers = NumWorkers(num_ranks);
  if (workers == 1) {
    // Report every rank, so a lowered ceiling stops the scan exactly
    // there — the same ranks the fanned-out scan commits.
    RunWorkers(1, [&](size_t) {
      size_t ceiling = num_ranks;
      size_t reported = 0;
      for (size_t r = 0; r < ceiling; ++r) {
        if (Cancelled()) return;
        visit(r, 0);
        reported = r + 1;
        if (on_prefix) ceiling = std::min(ceiling, on_prefix(reported));
      }
      // Ranks at or above the ceiling are dead: the scan is complete.
      if (on_prefix && reported < num_ranks) on_prefix(num_ranks);
    });
    return;
  }
  const size_t chunk = EffectiveChunk(num_ranks, workers);
  const size_t num_chunks = (num_ranks + chunk - 1) / chunk;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> ceiling{num_ranks};
  StagedRanks staged(num_chunks, chunk, num_ranks);

  RunWorkers(workers, [&](size_t worker) {
    for (;;) {
      if (Cancelled()) return;
      size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      if (!staged.AwaitLeadWindow(c, options_.max_lead_chunks,
                                  [&] { return Cancelled(); })) {
        return;
      }
      size_t begin = c * chunk;
      size_t end = std::min(begin + chunk, num_ranks);
      for (size_t r = begin; r < end; ++r) {
        if (r >= ceiling.load(std::memory_order_acquire)) break;
        if (Cancelled()) return;
        staged.Visit(r, [&] {
          visit(r, worker);
          return false;
        });
      }
      // A chunk "completes" once every rank in it below the ceiling has
      // been visited; ranks above the ceiling are dead by the on_prefix
      // contract, so skipped chunks complete too. The merge runs first:
      // it may lower the ceiling below the prefix, and the ranks between
      // are then dropped rather than committed.
      staged.CompleteChunk(c, [&](size_t prefix_ranks) {
        size_t cap = on_prefix ? on_prefix(prefix_ranks) : kNotFound;
        size_t cur = ceiling.load(std::memory_order_relaxed);
        while (cap < cur && !ceiling.compare_exchange_weak(
                                cur, cap, std::memory_order_acq_rel)) {
        }
        const size_t dead = ceiling.load(std::memory_order_acquire);
        return std::make_pair(std::min(prefix_ranks, dead), dead);
      });
    }
  });
  if (!Cancelled()) {
    const size_t dead = ceiling.load(std::memory_order_acquire);
    staged.Commit(dead, dead);
  }
}

}  // namespace gdx
