#ifndef GDX_GRAPH_GRAPH_H_
#define GDX_GRAPH_GRAPH_H_

#include <atomic>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/universe.h"
#include "common/value.h"
#include "graph/alphabet.h"

namespace gdx {

/// One directed labeled edge (u, a, v) ∈ V × Σ × V.
struct Edge {
  Value src;
  SymbolId label;
  Value dst;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.label == b.label && a.dst == b.dst;
  }
};

/// A graph database over Σ (paper §2): a directed, edge-labeled graph
/// G = (V, E). Nodes are Values — constants, or labeled nulls when the
/// graph was produced by instantiating a pattern. Node and edge sets are
/// duplicate-free and iterate in insertion order (deterministic).
class Graph {
 public:
  /// Adds an isolated node (no-op if present).
  void AddNode(Value v);

  /// Adds an edge, implicitly adding endpoints. Returns true if new.
  bool AddEdge(Value src, SymbolId label, Value dst);

  bool HasNode(Value v) const { return node_set_.count(v.raw()) > 0; }
  bool HasEdge(Value src, SymbolId label, Value dst) const;

  const std::vector<Value>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Successors of `v` via label `a` (empty if none).
  const std::vector<Value>& Successors(Value v, SymbolId a) const;

  /// Predecessors of `v` via label `a` (empty if none).
  const std::vector<Value>& Predecessors(Value v, SymbolId a) const;

  /// All (u, v) pairs with an `a`-labeled edge, in insertion order. Served
  /// from a per-label index maintained by AddEdge — O(1), no copy.
  const std::vector<std::pair<Value, Value>>& EdgesWithLabel(
      SymbolId a) const;

  /// Order-independent 128-bit hash of the node and edge content (raw value
  /// encodings + label ids; names play no part). Graphs with equal content
  /// hash equal regardless of insertion order or owning universe's
  /// spellings. Cached; invalidated by mutation.
  std::pair<uint64_t, uint64_t> ContentHash() const;

  /// Exact, order-independent binary serialization of the node and edge
  /// content (raw encodings; no names): equal strings <=> identical
  /// node/edge sets. Prefixed with ContentHash so unequal keys compare
  /// unequal within the first bytes. Cached; invalidated by mutation.
  /// This is the engine NRE-memo key component — unlike ContentHash alone
  /// it cannot collide.
  const std::string& RawSignature() const;

  /// Pre-sizes the node/edge vectors and every rebuilt index for the given
  /// counts — one allocation each instead of growth doubling. Rebuilds
  /// (RewriteValues, bulk loads) know their sizes up front.
  void ReserveFor(size_t num_nodes, size_t num_edges);

  /// Rebuilds the graph replacing every value by `rewrite(value)` —
  /// used when egd merges identify nodes. Re-deduplicates. The rebuild
  /// reserves from the old sizes (an upper bound: merges only shrink the
  /// sets), so the repeated egd-merge rebuilds stop reallocating.
  template <typename Fn>
  void RewriteValues(Fn rewrite) {
    std::vector<Value> old_nodes = std::move(nodes_);
    std::vector<Edge> old_edges = std::move(edges_);
    Clear();
    ReserveFor(old_nodes.size(), old_edges.size());
    for (Value v : old_nodes) AddNode(rewrite(v));
    for (const Edge& e : old_edges) {
      AddEdge(rewrite(e.src), e.label, rewrite(e.dst));
    }
  }

  void Clear();

  /// Multi-line human-readable rendering, e.g. "c1 -f-> N1".
  std::string ToString(const Universe& universe,
                       const Alphabet& alphabet) const;

  /// Canonical one-line signature (sorted edge triples by name); equal
  /// signatures <=> identical node/edge sets. Used to dedup candidate
  /// solutions in the bounded search.
  std::string Signature(const Universe& universe,
                        const Alphabet& alphabet) const;

 private:
  struct NodeLabelKey {
    uint64_t node_raw;
    SymbolId label;
    friend bool operator==(const NodeLabelKey& a, const NodeLabelKey& b) {
      return a.node_raw == b.node_raw && a.label == b.label;
    }
  };
  struct NodeLabelKeyHash {
    size_t operator()(const NodeLabelKey& k) const {
      uint64_t x = k.node_raw * 0x9e3779b97f4a7c15ull + k.label;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      return static_cast<size_t>(x ^ (x >> 27));
    }
  };
  struct EdgeKey {
    uint64_t src_raw;
    SymbolId label;
    uint64_t dst_raw;
    friend bool operator==(const EdgeKey& a, const EdgeKey& b) {
      return a.src_raw == b.src_raw && a.label == b.label &&
             a.dst_raw == b.dst_raw;
    }
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      uint64_t x = k.src_raw;
      x = x * 0x9e3779b97f4a7c15ull + k.label;
      x = x * 0x9e3779b97f4a7c15ull + k.dst_raw;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      return static_cast<size_t>(x ^ (x >> 27));
    }
  };

  std::vector<Value> nodes_;
  std::unordered_set<uint64_t> node_set_;
  std::vector<Edge> edges_;
  std::unordered_set<EdgeKey, EdgeKeyHash> edge_set_;
  std::unordered_map<NodeLabelKey, std::vector<Value>, NodeLabelKeyHash>
      successors_;
  std::unordered_map<NodeLabelKey, std::vector<Value>, NodeLabelKeyHash>
      predecessors_;
  std::unordered_map<SymbolId, std::vector<std::pair<Value, Value>>>
      label_index_;

  /// A derived value filled on first use by const readers. Readers on
  /// several threads may share one graph (the delta chase fans out over a
  /// frozen graph), so the fill is published
  /// under a lock and read through an acquire flag. Mutators reset it;
  /// they already require exclusive access.
  template <typename T>
  class LazyMemo {
   public:
    LazyMemo() = default;
    LazyMemo(const LazyMemo& other) { *this = other; }
    LazyMemo(LazyMemo&& other) noexcept { *this = std::move(other); }
    LazyMemo& operator=(LazyMemo&& other) noexcept {
      if (this != &other) {
        const bool ready = other.ready_.load(std::memory_order_acquire);
        if (ready) value_ = std::move(other.value_);
        ready_.store(ready, std::memory_order_relaxed);
        other.ready_.store(false, std::memory_order_relaxed);
      }
      return *this;
    }
    LazyMemo& operator=(const LazyMemo& other) {
      if (this != &other) {
        const bool ready = other.ready_.load(std::memory_order_acquire);
        if (ready) value_ = other.value_;
        ready_.store(ready, std::memory_order_relaxed);
      }
      return *this;
    }
    template <typename Fill>
    const T& Get(Fill&& fill) const {
      if (ready_.load(std::memory_order_acquire)) return value_;
      T filled = fill();  // outside the lock: fills may nest
      std::lock_guard<std::mutex> lock(mutex_);
      if (!ready_.load(std::memory_order_relaxed)) {
        value_ = std::move(filled);
        ready_.store(true, std::memory_order_release);
      }
      return value_;
    }
    void Reset() { ready_.store(false, std::memory_order_relaxed); }

   private:
    mutable std::mutex mutex_;
    mutable std::atomic<bool> ready_{false};
    mutable T value_{};
  };

  std::pair<uint64_t, uint64_t> ComputeContentHash() const;
  std::string ComputeRawSignature() const;
  void ResetMemos() {
    content_hash_.Reset();
    raw_signature_.Reset();
  }

  LazyMemo<std::pair<uint64_t, uint64_t>> content_hash_;
  LazyMemo<std::string> raw_signature_;
};

}  // namespace gdx

#endif  // GDX_GRAPH_GRAPH_H_
