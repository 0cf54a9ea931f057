#ifndef GDX_OBS_STATS_REGISTRY_H_
#define GDX_OBS_STATS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace gdx {
namespace obs {

/// Schema version of StatsRegistry::ToJson output. docs/TELEMETRY.md is
/// the normative description of that schema; scripts/check_docs.py fails
/// CI when the documented version and this constant drift apart (same
/// contract as kFormatVersion / docs/FORMAT.md).
inline constexpr uint32_t kTelemetrySchemaVersion = 2;

/// Number of independent recording shards per metric. Each recording
/// thread is pinned to one shard (round-robin at first touch), so under
/// typical worker counts every hot-path increment is an uncontended
/// relaxed atomic on a cache line no other thread writes. Reads merge all
/// shards. Power of two.
inline constexpr size_t kStatsShards = 16;

/// The shard the calling thread records into (stable for the thread's
/// lifetime).
size_t ThisThreadShard();

namespace internal {
struct alignas(64) PaddedCell {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

/// Monotonic counter: sharded relaxed adds, merged on read. Handles are
/// obtained from a StatsRegistry and stay valid for the registry's
/// lifetime; Add is safe from any thread.
class Counter {
 public:
  void Add(uint64_t delta) {
    cells_[ThisThreadShard()].value.fetch_add(delta,
                                              std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  internal::PaddedCell cells_[kStatsShards];
};

/// Point-in-time value (queue depth, live entry count): last writer wins.
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Sharded log-scale latency histogram (layout: obs/histogram.h). Record
/// touches only the calling thread's shard — a handful of relaxed atomics
/// on otherwise-private cache lines — so concurrent recorders never
/// contend. Snapshot() merges the shards into a HistogramSnapshot; because
/// bucketing is deterministic and merging is element-wise addition, the
/// merged result is independent of how recordings were distributed over
/// threads (single-threaded and 8-worker runs of the same values produce
/// identical snapshots — tested).
class Histogram {
 public:
  void Record(uint64_t value) {
    Shard& shard = shards_[ThisThreadShard()];
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    shard.buckets[HistogramLayout::BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    AtomicMin(shard.min, value);
    AtomicMax(shard.max, value);
  }

  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{~static_cast<uint64_t>(0)};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[HistogramLayout::kNumBuckets] = {};
  };

  static void AtomicMin(std::atomic<uint64_t>& slot, uint64_t value) {
    uint64_t current = slot.load(std::memory_order_relaxed);
    while (value < current &&
           !slot.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>& slot, uint64_t value) {
    uint64_t current = slot.load(std::memory_order_relaxed);
    while (value > current &&
           !slot.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
    }
  }

  Shard shards_[kStatsShards];
};

/// Engine-wide registry of named counters, gauges, and latency histograms
/// (ISSUE 6 tentpole part 1). Registration (Get*) takes a mutex and is
/// meant to happen once per metric — callers cache the returned handle;
/// recording through a handle is lock-free (see Counter/Histogram). Names
/// are dot-separated lowercase paths ("engine.solve.total_ns"); histogram
/// names end in the recorded unit. ToJson renders the whole registry
/// deterministically (names sorted, fixed field order) in the schema of
/// docs/TELEMETRY.md — the `--metrics-json` payload.
///
/// Handles stay valid for the registry's lifetime (metrics are never
/// removed). Get* with one name always returns the same handle, so
/// separate subsystems recording into the same name share one metric.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Deterministic machine-readable dump (docs/TELEMETRY.md schema):
  /// {"schema":N, "counters":{...}, "gauges":{...}, "histograms":{...}}.
  /// Histogram entries carry count/sum/min/max, p50/p90/p99 (ns, bucket
  /// upper bounds), and the non-empty [lower_bound, count] bucket pairs.
  std::string ToJson() const;

  /// Read-out snapshots for tests and in-process consumers.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> HistogramValues()
      const;

 private:
  mutable std::mutex mutex_;
  // std::map: iteration order == lexicographic name order, which makes
  // every dump deterministic without a sort at read time.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace gdx

#endif  // GDX_OBS_STATS_REGISTRY_H_
