#include "trace.h"

#include <cstdio>
#include <optional>
#include <unordered_set>

#include "chase/chase_compiler.h"
#include "chase/egd_chase.h"
#include "chase/pattern_chase.h"
#include "engine/cache.h"
#include "exchange/solution_check.h"
#include "graph/cnre.h"
#include "graph/graph_view.h"
#include "solver/certain.h"
#include "solver/existence.h"
#include "workload/scenario_parser.h"

namespace perfbench {

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::Begin(const char* name, uint64_t op) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, op, parent, NowNs(), 0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end_ns - span.start_ns;
  }
  return total * 1e-9;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

template <typename Fn>
auto TracingNreEvaluator::Timed(const gdx::Graph& g, Fn body) const {
  ++calls_;
  Clock::time_point start = Clock::now();
  (void)g.RawSignature();
  Clock::time_point signed_at = Clock::now();
  auto result = body();
  Clock::time_point done = Clock::now();
  signature_ns_ +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(signed_at - start)
          .count();
  eval_ns_ +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(done - signed_at)
          .count();
  return result;
}

gdx::BinaryRelation TracingNreEvaluator::Eval(const gdx::NrePtr& nre,
                                              const gdx::Graph& g) const {
  return Timed(g, [&] { return inner_->Eval(nre, g); });
}

void TracingNreEvaluator::NoteView(const gdx::GraphView& view) const {
  // A view rebuilt at the address of the previous one is told apart by
  // its graph's shape.
  const gdx::Graph& g = view.graph();
  ViewFingerprint seen{&view, &g, g.num_nodes(), g.num_edges(),
                       g.edges().empty() ? 0 : g.edges().back().src.raw()};
  if (!(seen == last_view_)) {
    ++view_builds_;
    last_view_ = seen;
  }
}

gdx::BinaryRelation TracingNreEvaluator::EvalOnView(
    const gdx::NrePtr& nre, const gdx::GraphView& view) const {
  NoteView(view);
  return Timed(view.graph(), [&] { return inner_->EvalOnView(nre, view); });
}

gdx::BinaryRelation TracingNreEvaluator::EvalDeferred(
    const gdx::NrePtr& nre, const gdx::Graph& g,
    const std::function<const gdx::GraphView&()>& view) const {
  std::function<const gdx::GraphView&()> counted =
      [this, &view]() -> const gdx::GraphView& {
    const gdx::GraphView& built = view();
    NoteView(built);
    return built;
  };
  return Timed(g, [&] { return inner_->EvalDeferred(nre, g, counted); });
}

std::vector<gdx::Value> TracingNreEvaluator::EvalFrom(const gdx::NrePtr& nre,
                                                      const gdx::Graph& g,
                                                      gdx::Value src) const {
  return Timed(g, [&] { return inner_->EvalFrom(nre, g, src); });
}

std::vector<std::vector<gdx::Value>> TracingNreEvaluator::EvalFromMany(
    const gdx::NrePtr& nre, const gdx::Graph& g,
    const std::vector<gdx::Value>& srcs) const {
  return Timed(g, [&] { return inner_->EvalFromMany(nre, g, srcs); });
}

bool TracingNreEvaluator::Contains(const gdx::NrePtr& nre, const gdx::Graph& g,
                                   gdx::Value src, gdx::Value dst) const {
  return Timed(g, [&] { return inner_->Contains(nre, g, src, dst); });
}

namespace {

bool SatDecided(const std::string& note) {
  return note.find("DPLL") != std::string::npos ||
         note.find("flat CNF") != std::string::npos;
}

/// The certain-answer stage as ExchangeEngine::ComputeCertainAnswers runs
/// it: enumerate, then intersect the answers of each solution, serving
/// repeated solutions from the answer memo.
void CertainStage(const gdx::Scenario& s, const gdx::ExistenceSolver& solver,
                  const gdx::ChasedScenario* chased,
                  const gdx::EngineOptions& options, gdx::EngineCache& cache,
                  const gdx::NreEvaluator& eval, SpanRecorder* recorder,
                  uint64_t op, PipelineTotals* totals) {
  std::vector<gdx::Graph> solutions;
  {
    ScopedSpan span(recorder, "solver.enumerate", op);
    solutions = solver.EnumerateSolutions(s.setting, *s.instance, *s.universe,
                                          options.max_solutions, chased);
  }
  std::unordered_set<std::vector<gdx::Value>, gdx::ValueVecHash> kept;
  bool first = true;
  for (const gdx::Graph& g : solutions) {
    ++totals->solutions;
    std::string key;
    {
      ScopedSpan span(recorder, "graph.signature", op);
      key = gdx::EngineCache::AnswerKey(*s.query, g);
    }
    std::vector<std::vector<gdx::Value>> tuples;
    if (!cache.LookupAnswers(key, g, &tuples)) {
      ScopedSpan span(recorder, "solver.evaluate", op);
      for (auto& t : gdx::EvaluateCnre(*s.query, g, eval)) {
        if (gdx::AllConstantTuple(t)) tuples.push_back(std::move(t));
      }
      cache.StoreAnswers(key, g, tuples);
    }
    if (first) {
      kept.insert(tuples.begin(), tuples.end());
      first = false;
      continue;
    }
    std::unordered_set<std::vector<gdx::Value>, gdx::ValueVecHash> answers(
        tuples.begin(), tuples.end());
    size_t before = kept.size();
    for (auto it = kept.begin(); it != kept.end();) {
      it = answers.count(*it) == 0 ? kept.erase(it) : std::next(it);
    }
    if (kept.size() < before) ++totals->shrinking_solutions;
    if (kept.empty()) break;
  }
}

}  // namespace

PipelineTotals RunPipeline(const std::vector<const std::string*>& inputs,
                           const gdx::EngineOptions& options,
                           SpanRecorder* recorder) {
  PipelineTotals totals;
  gdx::EngineCache cache(options.cache);
  gdx::AutomatonNreEvaluator base(&cache);
  base.set_multi_source_mode(options.nre_multi_source);
  gdx::CachingNreEvaluator caching(&base, &cache);
  TracingNreEvaluator tracing(&caching);
  const gdx::NreEvaluator& eval =
      recorder != nullptr ? static_cast<const gdx::NreEvaluator&>(tracing)
                          : caching;
  gdx::ExistenceOptions existence = options.ToExistenceOptions();

  // The egd probe is work the engine does not do; it stays out of the
  // pass's wall time, which trace.overhead_frac compares.
  double probe_seconds = 0;
  Clock::time_point start = Clock::now();
  for (const std::string* text : inputs) {
    uint64_t op = totals.ops++;
    ScopedSpan op_span(recorder, "op", op);
    totals.parse_bytes += text->size();
    gdx::Result<gdx::Scenario> parsed = [&] {
      ScopedSpan span(recorder, "workload.parse", op);
      return gdx::ParseScenario(*text);
    }();
    if (!parsed.ok()) continue;
    const gdx::Scenario& s = parsed.value();

    gdx::ChasedScenarioPtr chased;
    bool compiled_now = false;
    std::optional<gdx::Universe> before_chase;
    if (recorder != nullptr && !s.setting.egds.empty()) {
      before_chase = *s.universe;
    }
    {
      ScopedSpan span(recorder, "chase.compile", op);
      std::string key =
          gdx::ChaseCompiler::Key(s.setting, *s.instance, *s.universe);
      chased = cache.LookupChased(key);
      if (chased != nullptr) {
        gdx::ChaseCompiler::Adopt(*chased, *s.universe);
      } else {
        chased = gdx::ChaseCompiler::Compile(s.setting, *s.instance,
                                             *s.universe, eval);
        cache.StoreChased(key, chased);
        compiled_now = true;
      }
    }
    // The adapted egd chase, probed apart with the engine's repair policy
    // on a copy of the s-t chased pattern (the compile above folds it into
    // its delta rounds, where no public seam separates it).
    if (compiled_now && before_chase.has_value()) {
      gdx::GraphPattern pattern =
          gdx::ChaseToPattern(*s.instance, s.setting.st_tgds, *before_chase);
      gdx::EgdChaseOptions egd_options;
      egd_options.policy = options.egd_policy;
      Clock::time_point probe_start = Clock::now();
      {
        ScopedSpan span(recorder, "chase.egd_repair", op);
        gdx::ChasePatternEgds(pattern, s.setting.egds, base, egd_options);
      }
      probe_seconds += SecondsSince(probe_start);
    }
    if (chased->failed) continue;

    gdx::ExistenceSolver solver(&eval, existence);
    gdx::ExistenceReport report;
    {
      ScopedSpan span(recorder, "solver.existence", op);
      report = solver.Decide(s.setting, *s.instance, *s.universe,
                             chased.get());
    }
    totals.candidates += report.candidates_tried;
    if (report.verdict == gdx::ExistenceVerdict::kYes) {
      ++totals.deciding_candidates;
    }
    if (SatDecided(report.note)) ++totals.sat_decided;

    if (s.query != nullptr && options.compute_certain_answers) {
      ScopedSpan span(recorder, "solver.certain", op);
      CertainStage(s, solver, chased.get(), options, cache, eval, recorder, op,
                   &totals);
    }
    if (options.verify_witness && report.witness.has_value()) {
      ScopedSpan span(recorder, "exchange.verify", op);
      gdx::CheckSolution(s.setting, *s.instance, *report.witness, eval,
                         *s.universe);
    }
  }
  totals.wall_seconds = SecondsSince(start) - probe_seconds;
  totals.nre_calls = tracing.calls();
  totals.nre_eval_seconds = tracing.eval_seconds();
  totals.signature_seconds = tracing.signature_seconds();
  totals.view_builds = tracing.view_builds();
  return totals;
}

}  // namespace perfbench
