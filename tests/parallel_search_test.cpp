// Tests for the ParallelSearch scheduler (ISSUE 2 tentpole): deterministic
// first-hit semantics, the rank-ceiling early exit, contiguous-prefix
// merging in ScanAll, worker wrapping, and external cancellation — with
// and without a backing pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "common/parallel_search.h"
#include "common/task_fanout.h"

namespace gdx {
namespace {

ParallelSearchOptions PooledOptions(ThreadPool* pool, size_t workers) {
  ParallelSearchOptions options;
  options.pool = pool;
  options.max_workers = workers;
  options.chunk_size = 8;
  options.min_parallel_ranks = 1;
  return options;
}

TEST(ParallelSearchTest, FindFirstSequentialReturnsMinimalHit) {
  ParallelSearch search;  // no pool: caller-thread scan
  std::vector<size_t> visited;
  size_t result = search.FindFirst(100, [&](size_t rank, size_t worker) {
    EXPECT_EQ(worker, 0u);
    visited.push_back(rank);
    return rank == 37 || rank == 73;
  });
  EXPECT_EQ(result, 37u);
  // Sequential scan must stop at the hit: 0..37 inclusive.
  ASSERT_EQ(visited.size(), 38u);
  EXPECT_EQ(visited.front(), 0u);
  EXPECT_EQ(visited.back(), 37u);
}

TEST(ParallelSearchTest, FindFirstNoHitReturnsNotFound) {
  ParallelSearch search;
  std::atomic<size_t> count{0};
  size_t result = search.FindFirst(64, [&](size_t, size_t) {
    count.fetch_add(1);
    return false;
  });
  EXPECT_EQ(result, ParallelSearch::kNotFound);
  EXPECT_EQ(count.load(), 64u);
  EXPECT_EQ(search.FindFirst(0, [](size_t, size_t) { return true; }),
            ParallelSearch::kNotFound);
}

TEST(ParallelSearchTest, FindFirstParallelIsMinimalAndThreadInvariant) {
  // Hits at 11, 200, 755: every worker count must report 11, even though a
  // worker on a later chunk may find 200/755 first.
  ThreadPool pool(4);
  for (size_t workers : {1u, 2u, 5u}) {
    ParallelSearch search(PooledOptions(&pool, workers));
    std::atomic<size_t> visits{0};
    size_t result = search.FindFirst(1000, [&](size_t rank, size_t) {
      visits.fetch_add(1);
      return rank == 11 || rank == 200 || rank == 755;
    });
    EXPECT_EQ(result, 11u) << workers << " workers";
    EXPECT_LE(visits.load(), 1000u);
  }
}

TEST(ParallelSearchTest, FindFirstVisitsEveryRankAtMostOnce) {
  ThreadPool pool(3);
  ParallelSearch search(PooledOptions(&pool, 4));
  std::mutex mutex;
  std::multiset<size_t> visited;
  size_t result = search.FindFirst(500, [&](size_t rank, size_t worker) {
    EXPECT_LT(worker, 4u);
    std::lock_guard<std::mutex> lock(mutex);
    visited.insert(rank);
    return false;
  });
  EXPECT_EQ(result, ParallelSearch::kNotFound);
  ASSERT_EQ(visited.size(), 500u);  // exhaustive ...
  std::set<size_t> unique(visited.begin(), visited.end());
  EXPECT_EQ(unique.size(), 500u);  // ... and exactly once each
}

TEST(ParallelSearchTest, ScanAllCoversEveryRankAndReportsMonotonePrefix) {
  ThreadPool pool(4);
  ParallelSearch search(PooledOptions(&pool, 4));
  std::mutex mutex;
  std::set<size_t> visited;
  std::vector<size_t> prefixes;
  search.ScanAll(
      333,
      [&](size_t rank, size_t) {
        std::lock_guard<std::mutex> lock(mutex);
        visited.insert(rank);
      },
      [&](size_t prefix) -> size_t {
        prefixes.push_back(prefix);  // serialized by contract
        return ParallelSearch::kNotFound;
      });
  EXPECT_EQ(visited.size(), 333u);
  ASSERT_FALSE(prefixes.empty());
  EXPECT_EQ(prefixes.back(), 333u);
  for (size_t i = 1; i < prefixes.size(); ++i) {
    EXPECT_LT(prefixes[i - 1], prefixes[i]);
  }
  // Prefix invariant: every rank below a reported prefix had been visited
  // when it was reported — implied by the final state being complete and
  // by serialization; spot-check the boundary.
  EXPECT_TRUE(visited.count(0));
  EXPECT_TRUE(visited.count(332));
}

TEST(ParallelSearchTest, ScanAllCeilingAbandonsHigherRanks) {
  // on_prefix caps the scan at 50 once the prefix reaches it; ranks >= 50
  // in not-yet-started chunks must never be visited.
  ParallelSearch search;  // sequential keeps the assertion exact
  std::vector<size_t> visited;
  search.ScanAll(
      1000,
      [&](size_t rank, size_t) { visited.push_back(rank); },
      [&](size_t prefix) -> size_t {
        return prefix >= 50 ? 50 : ParallelSearch::kNotFound;
      });
  ASSERT_FALSE(visited.empty());
  for (size_t rank : visited) EXPECT_LT(rank, 1000u);
  // Everything below the ceiling was visited...
  for (size_t r = 0; r < 50; ++r) {
    EXPECT_TRUE(std::find(visited.begin(), visited.end(), r) !=
                visited.end())
        << r;
  }
  // ...and the scan stopped far short of the full space.
  EXPECT_LT(visited.size(), 200u);
}

TEST(ParallelSearchTest, TightLeadWindowStillCoversEveryRank) {
  // max_lead_chunks = 1 throttles workers to the merge frontier; the scan
  // must neither deadlock nor drop ranks.
  ThreadPool pool(4);
  ParallelSearchOptions options = PooledOptions(&pool, 4);
  options.max_lead_chunks = 1;
  ParallelSearch search(options);
  std::mutex mutex;
  std::set<size_t> visited;
  std::vector<size_t> prefixes;
  search.ScanAll(
      257,
      [&](size_t rank, size_t) {
        std::lock_guard<std::mutex> lock(mutex);
        visited.insert(rank);
      },
      [&](size_t prefix) -> size_t {
        prefixes.push_back(prefix);
        return ParallelSearch::kNotFound;
      });
  EXPECT_EQ(visited.size(), 257u);
  ASSERT_FALSE(prefixes.empty());
  EXPECT_EQ(prefixes.back(), 257u);
}

TEST(ParallelSearchTest, NestedFanOutInsideScanAllCannotLivelock) {
  // Regression (ISSUE 10): a visit on the *caller* thread fanning out over
  // the same pool used to Submit-and-wait. With one pool worker parked on
  // the lead window until the caller's chunk completes, neither thread
  // could ever progress. Participants must run nested fan-outs inline
  // (pool workers via ThreadPool::Current(), the caller slot via
  // ThreadPool::CooperativeScope).
  ThreadPool pool(1);
  ParallelSearchOptions options = PooledOptions(&pool, 2);
  options.max_lead_chunks = 1;
  ParallelSearch search(options);
  std::atomic<size_t> nested{0};
  search.ScanAll(
      257,
      [&](size_t, size_t) {
        TaskFanoutOptions fan;
        fan.pool = &pool;
        fan.max_workers = 2;
        FanOutTasks(fan, 2, [&](size_t, size_t) {
          nested.fetch_add(1, std::memory_order_relaxed);
        });
      },
      [](size_t) -> size_t { return ParallelSearch::kNotFound; });
  EXPECT_EQ(nested.load(), 2u * 257u);
}

TEST(ParallelSearchTest, ZeroRanksStillReportsFinalPrefix) {
  ParallelSearch search;
  std::vector<size_t> prefixes;
  search.ScanAll(
      0, [](size_t, size_t) {},
      [&](size_t prefix) -> size_t {
        prefixes.push_back(prefix);
        return ParallelSearch::kNotFound;
      });
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_EQ(prefixes[0], 0u);
}

TEST(ParallelSearchTest, WrapWorkerWrapsEveryWorkerExactlyOnce) {
  ThreadPool pool(3);
  ParallelSearchOptions options = PooledOptions(&pool, 4);
  std::mutex mutex;
  std::set<size_t> wrapped;
  options.wrap_worker = [&](size_t worker,
                            const std::function<void()>& body) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      EXPECT_TRUE(wrapped.insert(worker).second) << "wrapped twice";
    }
    body();
  };
  ParallelSearch search(options);
  std::atomic<size_t> visits{0};
  search.FindFirst(400, [&](size_t, size_t) {
    visits.fetch_add(1);
    return false;
  });
  EXPECT_EQ(visits.load(), 400u);
  EXPECT_TRUE(wrapped.count(0)) << "caller thread participates as worker 0";
  EXPECT_LE(wrapped.size(), 4u);
}

TEST(ParallelSearchTest, CancellationAbortsEarly) {
  CancellationToken token;
  ParallelSearchOptions options;
  options.cancel = &token;
  ParallelSearch search(options);
  std::atomic<size_t> visits{0};
  size_t result = search.FindFirst(1u << 20, [&](size_t, size_t) {
    if (visits.fetch_add(1) == 100) token.RequestStop();
    return false;
  });
  EXPECT_EQ(result, ParallelSearch::kNotFound);
  EXPECT_LT(visits.load(), (1u << 20))
      << "cancellation must cut the scan short";
  EXPECT_TRUE(token.stop_requested());
}

TEST(ParallelSearchTest, SmallSpacesStayOnCallerThread) {
  ThreadPool pool(4);
  ParallelSearchOptions options = PooledOptions(&pool, 4);
  options.min_parallel_ranks = 128;
  ParallelSearch search(options);
  EXPECT_EQ(search.NumWorkers(64), 1u);
  EXPECT_GT(search.NumWorkers(4096), 1u);
  std::set<size_t> workers;
  search.FindFirst(64, [&](size_t, size_t worker) {
    workers.insert(worker);  // single worker: no races on this set
    return false;
  });
  EXPECT_EQ(workers.size(), 1u);
  EXPECT_TRUE(workers.count(0));
}

/// Journals `rank` when a journal is installed, applies it directly
/// otherwise — the shape of the engine cache's staged memo traffic.
void RecordEffect(std::vector<size_t>* applied, size_t rank) {
  auto effect = [applied, rank] { applied->push_back(rank); };
  if (EffectJournal* journal = EffectJournal::Current()) {
    journal->Record(effect);
  } else {
    effect();
  }
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(ParallelSearchTest, FindFirstAppliesEffectsOfExactlyRanksUpToWinner) {
  ThreadPool pool(4);
  for (size_t workers : {1u, 2u, 5u}) {
    ParallelSearch search(PooledOptions(&pool, workers));
    std::vector<size_t> applied;  // effects run serialized, in rank order
    size_t winner = search.FindFirst(5000, [&](size_t rank, size_t) {
      RecordEffect(&applied, rank);
      return rank == 3001 || rank == 4000;
    });
    EXPECT_EQ(winner, 3001u);
    EXPECT_EQ(applied, Iota(3002)) << workers << " workers";
  }
}

TEST(ParallelSearchTest, FindFirstWithoutHitAppliesEveryRank) {
  ThreadPool pool(3);
  ParallelSearch search(PooledOptions(&pool, 4));
  std::vector<size_t> applied;
  EXPECT_EQ(search.FindFirst(777,
                             [&](size_t rank, size_t) {
                               RecordEffect(&applied, rank);
                               return false;
                             }),
            ParallelSearch::kNotFound);
  EXPECT_EQ(applied, Iota(777));
}

TEST(ParallelSearchTest, ScanAllAppliesEffectsOfExactlyRanksBelowCeiling) {
  // The cap lands mid-chunk: ranks of the capping chunk above it were
  // visited by the fanned-out scan, but their effects must be dropped.
  ThreadPool pool(4);
  for (size_t workers : {1u, 2u, 5u}) {
    ParallelSearch search(PooledOptions(&pool, workers));
    std::vector<size_t> applied;
    std::vector<size_t> visited_sequential;
    search.ScanAll(
        4000,
        [&](size_t rank, size_t) {
          RecordEffect(&applied, rank);
          if (workers == 1) visited_sequential.push_back(rank);
        },
        [&](size_t prefix) -> size_t {
          return prefix > 1234 ? 1235 : ParallelSearch::kNotFound;
        });
    EXPECT_EQ(applied, Iota(1235)) << workers << " workers";
    if (workers == 1) {
      EXPECT_EQ(visited_sequential, Iota(1235));
    }
  }
}

TEST(ParallelSearchTest, NestedSearchCommitsIntoEnclosingJournal) {
  // A fanned-out search started under a journal hands its committed
  // effects to that journal instead of applying them.
  ThreadPool pool(3);
  ParallelSearch search(PooledOptions(&pool, 4));
  std::vector<size_t> applied;
  EffectJournal outer;
  {
    ScopedEffectJournal scope(&outer);
    search.FindFirst(300, [&](size_t rank, size_t) {
      RecordEffect(&applied, rank);
      return rank == 200;
    });
  }
  EXPECT_TRUE(applied.empty());
  outer.ApplyTo(nullptr);
  EXPECT_EQ(applied, Iota(201));
}

TEST(ParallelSearchTest, FanOutTasksAppliesEffectsInTaskOrder) {
  ThreadPool pool(3);
  TaskFanoutOptions fan;
  fan.pool = &pool;
  fan.max_workers = 4;
  std::vector<size_t> applied;
  FanOutTasks(fan, 64,
              [&](size_t task, size_t) { RecordEffect(&applied, task); });
  EXPECT_EQ(applied, Iota(64));
}

}  // namespace
}  // namespace gdx
