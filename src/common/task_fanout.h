#ifndef GDX_COMMON_TASK_FANOUT_H_
#define GDX_COMMON_TASK_FANOUT_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <vector>

#include "common/parallel_search.h"
#include "common/thread_pool.h"

namespace gdx {

/// Completion latch for the workers one fan-out borrows from a shared
/// pool. ThreadPool::Wait() waits for *every* pending task — including
/// sibling solves' — so each fan-out counts down its own tasks instead
/// (same shape as ParallelSearch's latch).
class TaskLatch {
 public:
  explicit TaskLatch(size_t count) : outstanding_(count) {}

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

/// Execution knobs of one FanOutTasks call. All pointers are borrowed for
/// the duration of the call; the shape mirrors DeltaChaseOptions, which
/// this helper was factored out of.
struct TaskFanoutOptions {
  /// Pool the extra workers run on. nullptr (or max_workers == 1) runs
  /// every task on the caller thread.
  ThreadPool* pool = nullptr;
  /// Worker cap *including* the calling thread; 0 = pool size + 1.
  size_t max_workers = 1;
  /// Polled between task pulls; a fired token drains the fan-out early.
  const CancellationToken* cancel = nullptr;
  /// Wraps every worker's pull loop (including the caller thread's), e.g.
  /// to install thread-local per-solve metric sinks. Must invoke `body`
  /// exactly once. Same contract as ParallelSearchOptions::wrap_worker.
  std::function<void(size_t worker, const std::function<void()>& body)>
      wrap_worker;
};

/// Fans `num_tasks` independent tasks over the pool: workers pull task
/// indices from an atomic cursor until drained; the caller always
/// participates (progress without pool slots, and deadlock-freedom when
/// called *from* a pool worker); blocks until every pulled task ran.
/// Tasks write disjoint state, so pull order is free — determinism comes
/// from the sequential folds that consume the task outputs. Side effects
/// journaled through EffectJournal (the engine cache's memo traffic) are
/// recorded per task when the fan-out spans threads and applied in task
/// order once every task ran, so they too are those of a sequential run.
inline void FanOutTasks(
    const TaskFanoutOptions& options, size_t num_tasks,
    const std::function<void(size_t task, size_t worker)>& task) {
  size_t workers = 1;
  if (options.pool != nullptr && options.max_workers != 1 && num_tasks > 1 &&
      // Re-entrant fan-out — a task of this very pool fanning out again —
      // must not Submit-and-wait: with every worker blocked on a sub-task
      // latch, the sub-tasks queued behind them would never be scheduled.
      // The caller loop below already runs every task inline; the outer
      // fan-out keeps the pool saturated.
      ThreadPool::Current() != options.pool &&
      // Same rule for the *caller slot* of an enclosing search/fan-out
      // over this pool (CooperativeScope): its borrowed siblings may be
      // parked on this thread's progress (ScanAll's lead window), so a
      // Submit here waits on a queue no live worker will ever drain.
      ThreadPool::CurrentCooperative() != options.pool) {
    const size_t cap = options.max_workers == 0
                           ? options.pool->num_threads() + 1
                           : options.max_workers;
    workers = std::min(cap, num_tasks);
  }
  std::atomic<size_t> cursor{0};
  std::vector<EffectJournal> journals;  // one per task when fanned out
  auto pull = [&](size_t worker) {
    for (;;) {
      if (options.cancel != nullptr && options.cancel->stop_requested()) {
        return;
      }
      const size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
      if (t >= num_tasks) return;
      if (journals.empty()) {
        task(t, worker);
      } else {
        ScopedEffectJournal scope(&journals[t]);
        task(t, worker);
      }
    }
  };
  auto run = [&](size_t worker) {
    if (options.wrap_worker) {
      options.wrap_worker(worker, [&pull, worker] { pull(worker); });
    } else {
      pull(worker);
    }
  };
  if (workers <= 1) {
    run(0);
    return;
  }
  EffectJournal* const parent = EffectJournal::Current();
  journals.resize(num_tasks);
  TaskLatch latch(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    options.pool->Submit([&run, &latch, w] {
      run(w);
      latch.CountDown();
    });
  }
  {
    // While the caller pulls tasks it is a pool peer: nested fan-outs on
    // the same pool from inside a task must run inline (see above).
    ThreadPool::CooperativeScope scope(options.pool);
    run(0);
  }
  latch.Wait();
  for (EffectJournal& journal : journals) journal.ApplyTo(parent);
}

}  // namespace gdx

#endif  // GDX_COMMON_TASK_FANOUT_H_
