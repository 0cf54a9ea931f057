// Tracing for the per-layer run. Spans are recorded in the benchmark's own
// code around each call into a layer's public functions; nothing inside
// the library is instrumented. The traced pipeline calls the same public
// stage functions, with the same option values, that ExchangeEngine::Solve
// calls, so each span's time is that layer's share of a solve.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "graph/nre_eval.h"

namespace perfbench {

/// In-memory span log: name, operation id, parent span, start and end.
/// Single-threaded (the traced pipeline runs on the calling thread).
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint64_t op;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, uint64_t op);
  void End(int index);

  /// Total duration of all spans with this name, seconds.
  double TotalSeconds(const std::string& name) const;
  /// Chrome/Perfetto trace-event JSON of every span.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing (the untraced pass).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t op)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Timing and counting decorator at the public NreEvaluator seam. It sits
/// above the engine's memoising evaluator, so it sees every evaluation the
/// pipeline asks for. Before forwarding, it forces the graph's memo-key
/// signature (Graph::RawSignature is computed once per graph and then
/// reused), so key hashing is timed apart from evaluation.
class TracingNreEvaluator : public gdx::NreEvaluator {
 public:
  explicit TracingNreEvaluator(const gdx::NreEvaluator* inner)
      : inner_(inner) {}

  gdx::BinaryRelation Eval(const gdx::NrePtr& nre,
                           const gdx::Graph& g) const override;
  gdx::BinaryRelation EvalOnView(const gdx::NrePtr& nre,
                                 const gdx::GraphView& view) const override;
  gdx::BinaryRelation EvalDeferred(
      const gdx::NrePtr& nre, const gdx::Graph& g,
      const std::function<const gdx::GraphView&()>& view) const override;
  std::vector<gdx::Value> EvalFrom(const gdx::NrePtr& nre,
                                   const gdx::Graph& g,
                                   gdx::Value src) const override;
  std::vector<std::vector<gdx::Value>> EvalFromMany(
      const gdx::NrePtr& nre, const gdx::Graph& g,
      const std::vector<gdx::Value>& srcs) const override;
  bool Contains(const gdx::NrePtr& nre, const gdx::Graph& g, gdx::Value src,
                gdx::Value dst) const override;
  const char* name() const override { return "perfbench-tracing"; }

  uint64_t calls() const { return calls_; }
  double eval_seconds() const { return eval_ns_ * 1e-9; }
  double signature_seconds() const { return signature_ns_ * 1e-9; }
  /// CSR snapshots built for evaluation: deferred-view factories the
  /// memo let through, plus caller-built views seen for the first time.
  uint64_t view_builds() const { return view_builds_; }

 private:
  /// Times `body` as evaluation, after timing the signature of `g`.
  template <typename Fn>
  auto Timed(const gdx::Graph& g, Fn body) const;

  struct ViewFingerprint {
    const gdx::GraphView* view = nullptr;
    const gdx::Graph* graph = nullptr;
    size_t nodes = 0;
    size_t edges = 0;
    uint64_t last_src = 0;
    bool operator==(const ViewFingerprint& o) const {
      return view == o.view && graph == o.graph && nodes == o.nodes &&
             edges == o.edges && last_src == o.last_src;
    }
  };
  void NoteView(const gdx::GraphView& view) const;

  const gdx::NreEvaluator* inner_;
  mutable uint64_t calls_ = 0;
  mutable int64_t eval_ns_ = 0;
  mutable int64_t signature_ns_ = 0;
  mutable uint64_t view_builds_ = 0;
  mutable ViewFingerprint last_view_;
};

/// Per-layer totals of one pass of the traced pipeline.
struct PipelineTotals {
  uint64_t ops = 0;
  uint64_t parse_bytes = 0;
  double wall_seconds = 0;
  /// YES verdicts: each is decided by exactly one candidate.
  uint64_t deciding_candidates = 0;
  uint64_t candidates = 0;
  uint64_t sat_decided = 0;
  uint64_t solutions = 0;
  /// Solutions whose answers removed a tuple from the running intersection.
  uint64_t shrinking_solutions = 0;
  double signature_seconds = 0;
  uint64_t nre_calls = 0;
  double nre_eval_seconds = 0;
  uint64_t view_builds = 0;
};

/// Runs the engine's solve stages on each input in turn — parse, chase
/// compile (with the chased memo), existence, certain answers (with the
/// answer memo), final check — sharing one cache across the pass as the
/// engine does. With a recorder, every stage is a span and NRE calls go
/// through the tracing decorator; without one, the pass is the untraced
/// baseline of trace.overhead_frac.
PipelineTotals RunPipeline(const std::vector<const std::string*>& inputs,
                           const gdx::EngineOptions& options,
                           SpanRecorder* recorder);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
