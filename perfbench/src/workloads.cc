#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "engine/batch_executor.h"
#include "generate.h"
#include "obs/stats_registry.h"
#include "oracle.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"
#include "workload/scenario_parser.h"

namespace perfbench {
namespace {

// Input streams: one per workload role, so no workload's inputs move when
// another's change.
constexpr uint64_t kCorpusStream = 1;
constexpr uint64_t kServedPickStream = 2;
constexpr uint64_t kServedScenarioStream = 3;
constexpr uint64_t kEgdStream = 4;
constexpr uint64_t kServedCycleStream = 5;

// Load shape. At most two solving threads plus the client, on a 4-core box.
constexpr size_t kBatchThreads = 2;
constexpr size_t kServeWorkers = 2;

// corpus-batch: distinct scenarios per cycle, and scenarios per SolveAll.
constexpr size_t kCorpusSize = 8000;
constexpr size_t kCorpusChunk = 64;

// served-certain.
constexpr size_t kQueueCapacity = 64;
constexpr size_t kSaturationWindow = 8;
// The first timed checkpoint falls this long after the open loop's last
// scheduled send, early in the saturation phase: late enough that the
// loop's last replies are in, early enough that the phase still runs at
// twice today's throughput. It stays out of the open loop because its
// fsync of a ~27 MB snapshot stalls the workers for 30 to 140 ms,
// varying with the host's disk and memory from run to run, which made
// the open-loop latencies measure the host rather than the code.
constexpr double kCheckpointAfterLoopS = 0.25;
// The open-loop rate is a design choice, not taken from a measured
// deployment: 0.2 to 0.3 of the saturation throughput the baseline
// machine reaches with 2 workers (210 to 280 replies/s, BASELINE.md), so
// the workers are busy about a quarter of the time. Requests still queue
// behind a heavy one now and then, which shows in the tail, but the
// latency stays mostly solve time and moves in proportion to it. Near
// half of saturation, queueing takes a growing share of the latency as
// the machine slows, so a slow spell of the host moves the median about
// twice as much as it moves CPU time per request.
constexpr double kOpenLoopRate = 60.0;  // requests per second
constexpr double kOpenLoopShare = 0.8;  // of a cycle; the rest saturates
// Sizes the saturation phase: requests per second of the cycle's
// saturation share. The count, not a duration, is fixed, so every cycle
// does the same amount of work however fast the machine is.
constexpr double kSaturationRate = 180.0;
// Cycles per run, each on a fresh server: 8 open loops of 240 requests at
// --seconds 40, 1920 latencies, enough for a p99 with 19 beyond it.
constexpr size_t kServedCycles = 8;
// Which requests repeat an earlier scenario, by request index mod 5: a
// fixed 60 % share, so every seed serves the same mix of cold and warm
// requests. The share is a design choice, between the corpus (no repeats)
// and the serve soak (which replays its corpus, so nearly all repeats): a
// majority of repeats loads the NRE and answer memos, and the 40 % of new
// scenarios keeps the full enumeration of certain answers in every cycle,
// so both halves of the certain-answer work show.
constexpr bool kRepeatPattern[5] = {false, true, false, true, true};
constexpr char kSocketPath[] = "perfbench.sock";
constexpr char kCheckpointPath[] = "perfbench.ckpt";
constexpr char kProbeSnapshotPath[] = "perfbench-probe.snap";

// egd-large: size classes of query-free Flight/Hotel scenarios, each class
// holding several random structures. One solve's cost grows about as
// cities^2.4 and varies with the random structure, so the counts put the
// p50 and p90 ranks of a 40-solve cycle inside a class rather than at a
// class boundary: each percentile is then an order statistic over several
// structures of one size, not the cost of one particular scenario.
struct SizeClass {
  size_t cities;
  size_t count;
};
constexpr SizeClass kEgdClasses[] = {{100, 12}, {150, 14}, {200, 12},
                                     {400, 2}};
constexpr double kFlightsPerCity = 2.5;

// Set-up samples: a burst of kSetupBurst before every cycle, so the
// samples spread over the whole run instead of one instant of the
// machine's drift; setup_s is their median. A sample averages a batch of
// set-ups where one is too short to time on its own (an engine without a
// pool takes well under a microsecond).
constexpr int kSetupBurst = 5;
constexpr int kCorpusSetupBatch = 10;
constexpr int kEngineSetupBatch = 100;

// --- Per-layer metrics -----------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed on every workload; a layer a workload
// does not load reads 0.
const LayerMetric kLayerMetrics[] = {
    {"workload.parse_ms_per_op", "ms"},
    {"workload.parse_bytes_per_op", "bytes"},
    {"chase.compile_ms_per_op", "ms"},
    {"chase.egd_repair_ms_per_op", "ms"},
    {"chase.triggers", "count"},
    {"chase.merges", "count"},
    {"chase.delta_rounds", "count"},
    {"chase.skipped_rules", "count"},
    {"solver.existence_ms_per_op", "ms"},
    {"solver.candidates", "count"},
    {"solver.candidate_yield", "ratio"},
    {"solver.sat_decided", "count"},
    {"solver.certain_ms_per_op", "ms"},
    {"solver.enumerate_ms_per_op", "ms"},
    {"solver.evaluate_ms_per_op", "ms"},
    {"solver.solutions", "count"},
    {"solver.solution_yield", "ratio"},
    {"graph.nre_eval_ms_per_op", "ms"},
    {"graph.nre_calls", "count"},
    {"graph.view_builds", "count"},
    {"graph.signature_ms_per_op", "ms"},
    {"exchange.verify_ms_per_op", "ms"},
    {"engine.cache.nre.hits", "count"},
    {"engine.cache.nre.misses", "count"},
    {"engine.cache.nre.hit_ratio", "ratio"},
    {"engine.cache.answer.hits", "count"},
    {"engine.cache.answer.misses", "count"},
    {"engine.cache.answer.hit_ratio", "ratio"},
    {"engine.cache.compile.hits", "count"},
    {"engine.cache.compile.misses", "count"},
    {"engine.cache.compile.hit_ratio", "ratio"},
    {"engine.cache.chase.hits", "count"},
    {"engine.cache.chase.misses", "count"},
    {"engine.cache.chase.hit_ratio", "ratio"},
    {"engine.batch.queue_wait_p99_ms", "ms"},
    {"engine.batch.execute_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.overhead_p50_ms", "ms"},
    {"serve.rejected", "count"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.snapshot_bytes", "bytes"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

using LayerValues = std::map<std::string, double>;

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

void EmitLayers(const LayerValues& values, RunResult* r) {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    r->Add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

void CacheLayers(const std::string& tier, double hits, double misses,
                 LayerValues* v) {
  (*v)["engine.cache." + tier + ".hits"] = hits;
  (*v)["engine.cache." + tier + ".misses"] = misses;
  (*v)["engine.cache." + tier + ".hit_ratio"] = Ratio(hits, hits + misses);
}

/// Work counters and cache traffic the engine's Metrics already export.
void LayersFromMetrics(const gdx::Metrics& m, LayerValues* v) {
  (*v)["chase.triggers"] = m.chase_triggers;
  (*v)["chase.merges"] = m.chase_merges;
  (*v)["chase.delta_rounds"] = m.chase_delta_rounds;
  (*v)["chase.skipped_rules"] = m.chase_skipped_rules;
  (*v)["solver.candidates"] = m.candidates_tried;
  (*v)["solver.solutions"] = m.solutions_enumerated;
  CacheLayers("nre", m.nre_cache_hits, m.nre_cache_misses, v);
  CacheLayers("answer", m.answer_cache_hits, m.answer_cache_misses, v);
  CacheLayers("compile", m.compile_cache_hits, m.compile_cache_misses, v);
  CacheLayers("chase", m.chase_cache_hits, m.chase_cache_misses, v);
}

/// Runs the stage pipeline untraced, then traced, over the same inputs;
/// the first traced pass's spans give each layer's time. The tracing
/// overhead is the median over kOverheadPairs such pairs, after an
/// untraced warm-up pass: one pair of passes of a few seconds each differs
/// by more than the overhead whenever the machine's speed drifts.
constexpr int kOverheadPairs = 3;

void LayersFromPipeline(const std::vector<const std::string*>& inputs,
                        const std::string& trace_path, LayerValues* v,
                        RunResult* r) {
  gdx::EngineOptions options = BenchEngineOptions();
  RunPipeline(inputs, options, nullptr);
  SpanRecorder recorder;
  PipelineTotals traced;
  std::vector<double> overhead;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    PipelineTotals untraced = RunPipeline(inputs, options, nullptr);
    SpanRecorder discarded;
    PipelineTotals totals =
        RunPipeline(inputs, options, pair == 0 ? &recorder : &discarded);
    if (pair == 0) traced = totals;
    overhead.push_back(Ratio(totals.wall_seconds - untraced.wall_seconds,
                             untraced.wall_seconds));
  }
  double ops = std::max<double>(1, traced.ops);
  auto per_op_ms = [&](const char* span) {
    return recorder.TotalSeconds(span) * 1e3 / ops;
  };
  (*v)["workload.parse_ms_per_op"] = per_op_ms("workload.parse");
  (*v)["workload.parse_bytes_per_op"] = traced.parse_bytes / ops;
  (*v)["chase.compile_ms_per_op"] = per_op_ms("chase.compile");
  (*v)["chase.egd_repair_ms_per_op"] = per_op_ms("chase.egd_repair");
  (*v)["solver.existence_ms_per_op"] = per_op_ms("solver.existence");
  (*v)["solver.candidate_yield"] =
      Ratio(traced.deciding_candidates, traced.candidates);
  (*v)["solver.sat_decided"] = traced.sat_decided;
  (*v)["solver.certain_ms_per_op"] = per_op_ms("solver.certain");
  (*v)["solver.enumerate_ms_per_op"] = per_op_ms("solver.enumerate");
  (*v)["solver.evaluate_ms_per_op"] = per_op_ms("solver.evaluate");
  (*v)["solver.solution_yield"] =
      Ratio(traced.shrinking_solutions, traced.solutions);
  (*v)["graph.nre_eval_ms_per_op"] = traced.nre_eval_seconds * 1e3 / ops;
  (*v)["graph.nre_calls"] = traced.nre_calls;
  (*v)["graph.view_builds"] = traced.view_builds;
  (*v)["graph.signature_ms_per_op"] =
      (traced.signature_seconds + recorder.TotalSeconds("graph.signature")) *
      1e3 / ops;
  (*v)["exchange.verify_ms_per_op"] = per_op_ms("exchange.verify");
  (*v)["trace.overhead_frac"] = Quantile(overhead, 0.5);
  if (recorder.WriteJson(trace_path)) {
    r->notes.push_back("spans written to " + trace_path);
  }
}

std::string TracePath(const Config& c) {
  return "trace-" + c.workload + "-" + std::to_string(c.seed) + ".json";
}

// --- End-to-end helpers ----------------------------------------------------

/// Appends kSetupBurst samples of `setup_once` (construct and destroy),
/// each the mean over `batch` back-to-back calls, in seconds.
template <typename Fn>
void SetupBurst(int batch, Fn setup_once, std::vector<double>* samples) {
  for (int i = 0; i < kSetupBurst; ++i) {
    Clock::time_point start = Clock::now();
    for (int j = 0; j < batch; ++j) setup_once();
    samples->push_back(SecondsSince(start) / batch);
  }
}

void AddSetup(const std::vector<double>& seconds, RunResult* r) {
  r->Add("setup_s", Quantile(seconds, 0.5), "s");
}

/// Timing of a run made of cycles that each do the same work. Every
/// figure is the median over the cycles of that cycle's figure, so that a
/// slow moment of the machine during one cycle does not move it, while a
/// regression that hits some operations of every cycle does. That holds
/// for latency percentiles too, even where one cycle has few samples beyond
/// the percentile (served-certain's p99: 2.4 of 240 a cycle, 19 or more in
/// a run): pooling the cycles instead lets a few slow cycles fill the tail.
class CycleStats {
 public:
  void Op(double ms) { cycle_ms_.push_back(ms); }
  void EndCycle(double ops_per_second, double cpu_ms_per_op,
                double busy_seconds) {
    latency_ms_.push_back(std::move(cycle_ms_));
    cycle_ms_.clear();
    rates_.push_back(ops_per_second);
    cpu_ms_.push_back(cpu_ms_per_op);
    busy_seconds_ += busy_seconds;
  }

  size_t cycles() const { return rates_.size(); }
  double busy_seconds() const { return busy_seconds_; }

  /// throughput_ops_s, latency_p50_ms / latency_p99_ms and cpu_ms_per_op.
  /// `basis` is the operation count the run is designed to reach at least.
  void Report(size_t basis, const std::string& what, RunResult* r) const {
    r->Add("throughput_ops_s", Quantile(rates_, 0.5), "1/s");
    double tail = SupportedTailQuantile(basis);
    r->Add("latency_p50_ms", Latency(0.5), "ms");
    r->Add("latency_p99_ms", Latency(tail), "ms");
    if (tail != 0.99) {
      r->notes.push_back("latency_p99_ms reports " + QuantileLabel(tail) +
                         ": " + what + " leave too few samples for p99");
    }
    r->Add("cpu_ms_per_op", Quantile(cpu_ms_, 0.5), "ms");
    r->notes.push_back(std::to_string(cycles()) + " cycles over " + what);
  }

 private:
  double Latency(double q) const {
    std::vector<double> per_cycle;
    for (const auto& cycle : latency_ms_) {
      per_cycle.push_back(Quantile(cycle, q));
    }
    return Quantile(per_cycle, 0.5);
  }

  std::vector<double> cycle_ms_;  // the current cycle's
  std::vector<std::vector<double>> latency_ms_;  // per finished cycle
  std::vector<double> rates_;
  std::vector<double> cpu_ms_;
  double busy_seconds_ = 0;
};

/// Cycles every run makes at least, so that a median over cycles has
/// three samples to choose from.
constexpr size_t kMinCycles = 3;

size_t MinCycles(const Config& c, size_t min_cycles = kMinCycles) {
  return c.tiny ? 1 : min_cycles;
}

bool MoreCycles(const Config& c, const CycleStats& stats,
                size_t min_cycles = kMinCycles) {
  return stats.cycles() < MinCycles(c, min_cycles) ||
         (!c.tiny && stats.busy_seconds() < c.seconds);
}

/// Settles the oracle and the run's counts; prints failed_frac, which is
/// 0 by design and so is not a bounded metric (it rides in `failed`).
void Settle(Oracle* oracle, uint64_t attempted, RunResult* r) {
  r->attempted = attempted;
  r->failed = oracle->Finish();
  r->correct = r->failed == 0;
  for (const std::string& why : oracle->failures()) {
    r->notes.push_back("oracle: " + why);
  }
  char line[96];
  std::snprintf(line, sizeof(line), "failed_frac = %.6f ratio (%llu of %llu)",
                Ratio(r->failed, attempted),
                static_cast<unsigned long long>(r->failed),
                static_cast<unsigned long long>(attempted));
  r->notes.push_back(line);
}

// --- corpus-batch ----------------------------------------------------------

struct Corpus {
  std::vector<std::string> texts;
  size_t example52 = 0;
};

Corpus MakeCorpus(const Config& c) {
  Corpus corpus;
  size_t n = c.tiny ? 24 : kCorpusSize;
  corpus.example52 = n / 2;
  corpus.texts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    corpus.texts.push_back(i == corpus.example52
                               ? Example52()
                               : CorpusScenario(StreamSeed(
                                     c.seed, kCorpusStream, i)));
  }
  return corpus;
}

gdx::BatchOptions CorpusBatchOptions() {
  gdx::BatchOptions options;
  options.num_threads = kBatchThreads;
  options.engine = BenchEngineOptions();
  return options;
}

/// Parses texts[begin, end) into scenarios, reporting unparsable ones.
std::vector<gdx::Scenario> ParseRange(const std::vector<std::string>& texts,
                                      size_t begin, size_t end,
                                      std::vector<size_t>* keys,
                                      Oracle* oracle) {
  std::vector<gdx::Scenario> scenarios;
  for (size_t i = begin; i < end; ++i) {
    gdx::Result<gdx::Scenario> parsed = gdx::ParseScenario(texts[i]);
    if (!parsed.ok()) {
      if (oracle != nullptr) {
        oracle->RecordFailure("parse: " + parsed.status().message());
      }
      continue;
    }
    scenarios.push_back(std::move(parsed).value());
    keys->push_back(i);
  }
  return scenarios;
}

void TraceCorpus(const Config& c, const Corpus& corpus, RunResult* r) {
  LayerValues v;
  gdx::BatchExecutor executor(CorpusBatchOptions());
  gdx::Metrics total;
  std::vector<double> wait_ms, execute_ms;
  size_t chunk = c.tiny ? 8 : kCorpusChunk;
  for (size_t begin = 0; begin < corpus.texts.size(); begin += chunk) {
    std::vector<size_t> keys;
    std::vector<gdx::Scenario> scenarios = ParseRange(
        corpus.texts, begin, std::min(corpus.texts.size(), begin + chunk),
        &keys, nullptr);
    gdx::BatchReport report = executor.SolveAll(scenarios);
    total.Accumulate(report.total);
    for (const gdx::ScenarioTiming& t : report.timings) {
      wait_ms.push_back(t.queue_wait_seconds * 1e3);
      execute_ms.push_back(t.execute_seconds * 1e3);
    }
  }
  LayersFromMetrics(total, &v);
  v["engine.batch.queue_wait_p99_ms"] = Quantile(wait_ms, 0.99);
  v["engine.batch.execute_p50_ms"] = Quantile(execute_ms, 0.5);
  std::vector<const std::string*> inputs;
  for (const std::string& text : corpus.texts) inputs.push_back(&text);
  LayersFromPipeline(inputs, TracePath(c), &v, r);
  EmitLayers(v, r);
  r->attempted = inputs.size();
}

}  // namespace

RunResult RunCorpusBatch(const Config& c) {
  RunResult r;
  Corpus corpus = MakeCorpus(c);
  if (c.trace) {
    TraceCorpus(c, corpus, &r);
    return r;
  }
  Oracle oracle;
  for (size_t i = 0; i < corpus.texts.size(); ++i) {
    oracle.AddInput(i, &corpus.texts[i],
                    i == corpus.example52 ? PaperCase::kExample52
                                          : PaperCase::kNone);
  }
  const gdx::BatchOptions options = CorpusBatchOptions();
  const size_t chunk = c.tiny ? 8 : kCorpusChunk;

  // Closed loop: each cycle is a fresh executor (cold caches) over the
  // whole corpus, one SolveAll per chunk; only parse + SolveAll is timed.
  std::vector<double> setup;
  CycleStats stats;
  bool corrupted = false;
  do {
    SetupBurst(kCorpusSetupBatch, [&] { gdx::BatchExecutor executor(options); },
               &setup);
    gdx::BatchExecutor executor(options);
    double busy = 0, cpu = 0;
    for (size_t begin = 0; begin < corpus.texts.size(); begin += chunk) {
      size_t end = std::min(corpus.texts.size(), begin + chunk);
      double cpu_start = CpuSeconds();
      Clock::time_point t0 = Clock::now();
      std::vector<size_t> keys;
      std::vector<gdx::Scenario> scenarios =
          ParseRange(corpus.texts, begin, end, &keys, &oracle);
      gdx::BatchReport report = executor.SolveAll(scenarios);
      busy += SecondsSince(t0);
      cpu += CpuSeconds() - cpu_start;
      for (size_t j = 0; j < scenarios.size(); ++j) {
        stats.Op(report.timings[j].execute_seconds * 1e3);
        gdx::Result<gdx::ExchangeOutcome>& outcome = report.outcomes[j];
        if (!outcome.ok()) {
          oracle.RecordFailure("solve: " + outcome.status().message());
          continue;
        }
        if (!corrupted) corrupted = CorruptOutcome(c.corrupt, &*outcome);
        oracle.Record(keys[j], outcome->ToString(*scenarios[j].universe,
                                                 *scenarios[j].alphabet));
      }
    }
    stats.EndCycle(Ratio(corpus.texts.size(), busy),
                   Ratio(cpu * 1e3, corpus.texts.size()), busy);
  } while (MoreCycles(c, stats));
  double peak_rss = PeakRssMb();

  AddSetup(setup, &r);
  stats.Report(MinCycles(c) * corpus.texts.size(),
               "per-scenario execute times", &r);
  r.Add("peak_rss_mb", peak_rss, "MiB");
  Settle(&oracle, stats.cycles() * corpus.texts.size(), &r);
  return r;
}

// --- served-certain --------------------------------------------------------

namespace {

/// The request stream: the three Example 2.2 modes first, then requests
/// that repeat an already-sent scenario (chosen by the seed) or bring a new
/// generated one, in the fixed pattern kRepeatPattern. Every cycle of a
/// run has a stream of its own (see ServedCycleSeed); `oracle_base` keeps
/// the streams' scenarios apart in the oracle.
class ServedInputs {
 public:
  ServedInputs(uint64_t seed, size_t oracle_base)
      : seed_(seed),
        oracle_base_(oracle_base),
        pick_(StreamSeed(seed, kServedPickStream, 0)) {}

  /// The scenario index of request `k`; the stream only depends on k.
  size_t Key(size_t k) {
    while (requests_.size() <= k) {
      size_t next = requests_.size();
      size_t index;
      if (next < 3) {
        index = next;
      } else if (kRepeatPattern[next % 5]) {
        index = pick_.Below(distinct_.size());
      } else {
        index = distinct_.size();
      }
      if (index == distinct_.size()) {
        distinct_.push_back(std::make_unique<std::string>(MakeText(index)));
      }
      requests_.push_back(index);
    }
    return requests_[k];
  }

  const std::string& Text(size_t index) const { return *distinct_[index]; }
  size_t OracleKey(size_t index) const { return oracle_base_ + index; }
  size_t distinct() const { return distinct_.size(); }
  size_t requests() const { return requests_.size(); }

  static PaperCase CaseOf(size_t index) {
    switch (index) {
      case 0: return PaperCase::kExample22Egd;
      case 1: return PaperCase::kExample22SameAs;
      case 2: return PaperCase::kExample22Plain;
      default: return PaperCase::kNone;
    }
  }

 private:
  std::string MakeText(size_t index) const {
    switch (index) {
      case 0: return Example22(FlightMode::kEgd);
      case 1: return Example22(FlightMode::kSameAs);
      case 2: return Example22(FlightMode::kNone);
      default: break;
    }
    // Sizes and modes walk a fixed grid, so every seed serves the same mix;
    // the seed draws each scenario's flights and hotel stops.
    const FlightMode modes[] = {FlightMode::kEgd, FlightMode::kSameAs,
                                FlightMode::kNone};
    size_t k = index - 3;
    FlightParams p;
    p.mode = modes[k % 3];
    p.cities = 3 + (k / 3) % 4;
    p.flights = 2 + (k / 12) % 5;
    p.hotels = 2 + (k / 60) % 3;
    p.hotels_per_flight = 1 + (k / 180) % 2;
    p.with_query = true;
    p.seed = StreamSeed(seed_, kServedScenarioStream, index);
    return FlightScenario(p);
  }

  uint64_t seed_;
  size_t oracle_base_;
  Rng pick_;
  std::vector<std::unique_ptr<std::string>> distinct_;
  std::vector<size_t> requests_;
};

/// One in-process server and its connected client.
struct ServedSystem {
  std::unique_ptr<gdx::obs::StatsRegistry> stats;
  std::unique_ptr<gdx::serve::ExchangeServer> server;
  std::unique_ptr<gdx::serve::ExchangeClient> client;
  bool running = false;

  gdx::Status Start(uint64_t checkpoint_interval_ms) {
    std::remove(kCheckpointPath);  // a leftover would warm-start the server
    stats = std::make_unique<gdx::obs::StatsRegistry>();
    gdx::serve::ServeOptions options;
    options.socket_path = kSocketPath;
    options.num_workers = kServeWorkers;
    options.queue_capacity = kQueueCapacity;
    options.checkpoint_path = kCheckpointPath;
    options.checkpoint_interval_ms = checkpoint_interval_ms;
    options.engine = BenchEngineOptions();
    options.stats = stats.get();
    server = std::make_unique<gdx::serve::ExchangeServer>(options);
    gdx::Status started = server->Start();
    if (!started.ok()) return started;
    running = true;
    client = std::make_unique<gdx::serve::ExchangeClient>();
    return client->ConnectUnix(kSocketPath);
  }

  /// Graceful drain; every admitted request has replied by the time the
  /// server's BYE arrives. RequestStop covers a client that never got
  /// connected.
  void Stop() {
    if (client != nullptr) (void)client->Shutdown();
    if (running) {
      server->RequestStop();
      server->Wait();
      running = false;
    }
    client.reset();
    server.reset();
    std::remove(kCheckpointPath);
  }
};

/// Checks a reply and records its output (or failure) with the oracle.
void Deliver(const gdx::serve::ClientReply& reply, size_t key,
             Corruption corruption, bool* corrupted, Oracle* oracle) {
  if (reply.is_error) {
    oracle->RecordFailure(std::string("served error ") +
                          gdx::serve::ServeErrorName(reply.code) + ": " +
                          reply.text);
    return;
  }
  std::string text = reply.text;
  if (!*corrupted) *corrupted = CorruptText(corruption, &text);
  oracle->Record(key, text);
}

/// Per-request times of one open loop, indexed by request; a request
/// without a reply has latency and service time -1.
struct OpenLoop {
  std::vector<double> latency_ms;  // reply time - scheduled send time
  std::vector<double> service_ms;  // reply time - actual send time
  std::vector<double> late_ms;     // actual send time - scheduled time
};

std::vector<double> Replied(const std::vector<double>& ms) {
  std::vector<double> out;
  for (double v : ms) {
    if (v >= 0) out.push_back(v);
  }
  return out;
}

/// Sends `keys` at a fixed rate from a sender thread, timing each request
/// from the moment it was due, while this thread reads the replies.
OpenLoop RunOpenLoop(ServedSystem* system, const ServedInputs& inputs,
                     const std::vector<size_t>& keys, double rate,
                     Corruption corruption, bool* corrupted, Oracle* oracle) {
  const size_t n = keys.size();
  std::vector<Clock::time_point> due(n), sent(n);
  std::vector<Clock::time_point> replied_at(n);
  Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  for (size_t k = 0; k < n; ++k) {
    due[k] = origin + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(k / rate));
  }
  std::thread sender([&] {
    for (size_t k = 0; k < n; ++k) {
      std::this_thread::sleep_until(due[k]);
      sent[k] = Clock::now();
      if (!system->client->SendRequest(k, inputs.Text(keys[k])).ok()) {
        // Unblocks the reader below: the drain closes the connection.
        system->server->RequestStop();
        return;
      }
    }
  });
  for (size_t received = 0; received < n; ++received) {
    gdx::serve::ClientReply reply;
    if (!system->client->ReadReply(&reply).ok() || reply.id >= n) break;
    replied_at[reply.id] = Clock::now();
    Deliver(reply, inputs.OracleKey(keys[reply.id]), corruption, corrupted,
            oracle);
  }
  sender.join();

  OpenLoop out;
  auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  for (size_t k = 0; k < n; ++k) {
    out.late_ms.push_back(ms(sent[k] - due[k]));
    bool replied = replied_at[k] != Clock::time_point();
    if (!replied) oracle->RecordFailure("open loop: request without reply");
    out.latency_ms.push_back(replied ? ms(replied_at[k] - due[k]) : -1);
    out.service_ms.push_back(replied ? ms(replied_at[k] - sent[k]) : -1);
  }
  return out;
}

/// Sends `count` requests of the stream from request `first_id` on, keeping
/// kSaturationWindow in flight; returns the completed replies per second.
double RunSaturation(ServedSystem* system, ServedInputs* inputs,
                     uint64_t first_id, uint64_t count, Corruption corruption,
                     bool* corrupted, Oracle* oracle, uint64_t* sent_count,
                     double* elapsed_seconds) {
  std::map<uint64_t, size_t> in_flight;
  uint64_t next_id = first_id;
  uint64_t completed = 0;
  Clock::time_point start = Clock::now();
  auto send = [&] {
    size_t key = inputs->Key(next_id);
    if (!system->client->SendRequest(next_id, inputs->Text(key)).ok()) {
      oracle->RecordFailure("saturation: send failed");
      return false;
    }
    in_flight[next_id++] = key;
    ++*sent_count;
    return true;
  };
  for (size_t i = 0; i < kSaturationWindow && i < count; ++i) {
    if (!send()) break;
  }
  Clock::time_point last = start;
  while (!in_flight.empty()) {
    gdx::serve::ClientReply reply;
    if (!system->client->ReadReply(&reply).ok()) break;
    auto it = in_flight.find(reply.id);
    if (it == in_flight.end()) continue;
    last = Clock::now();
    if (!reply.is_error) ++completed;
    Deliver(reply, inputs->OracleKey(it->second), corruption, corrupted,
            oracle);
    in_flight.erase(it);
    if (next_id < first_id + count && !send()) break;
  }
  for (size_t i = 0; i < in_flight.size(); ++i) {
    oracle->RecordFailure("saturation: request without reply");
  }
  *elapsed_seconds = std::chrono::duration<double>(last - start).count();
  return Ratio(completed, *elapsed_seconds);
}

/// Interpolated quantile of a registry histogram (bucket bounds clamped to
/// the recorded min and max), in the histogram's unit.
double HistogramQuantile(const gdx::obs::HistogramSnapshot& h, double q) {
  using Layout = gdx::obs::HistogramLayout;
  if (h.count == 0) return 0;
  double rank = q * static_cast<double>(h.count);
  double seen = 0;
  for (size_t i = 0; i < Layout::kNumBuckets; ++i) {
    double in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      double lo = static_cast<double>(std::max(Layout::BucketLowerBound(i),
                                               h.min));
      double hi = static_cast<double>(std::min(Layout::BucketUpperBound(i),
                                               h.max));
      return lo + (hi - lo) * ((rank - seen) / in_bucket);
    }
    seen += in_bucket;
  }
  return static_cast<double>(h.max);
}

/// Open-loop requests of one cycle: each of kServedCycles cycles spends
/// kOpenLoopShare of its share of --seconds in the open loop.
size_t OpenLoopRequests(const Config& c) {
  return c.tiny ? 12
                : static_cast<size_t>(kOpenLoopRate * kOpenLoopShare *
                                      c.seconds / kServedCycles);
}

/// The seed of cycle `cycle`'s request stream. Each cycle draws its own
/// scenarios on the same grid of sizes and the same repeat pattern, so a
/// run's medians over cycles average over several draws of structures and
/// depend less on the heaviest few scenarios of one draw.
uint64_t ServedCycleSeed(uint64_t seed, size_t cycle) {
  return StreamSeed(seed, kServedCycleStream, cycle);
}

/// The server's checkpoint interval: see kCheckpointAfterLoopS.
uint64_t CheckpointIntervalMs(const Config& c) {
  return static_cast<uint64_t>(
      1e3 * (OpenLoopRequests(c) / kOpenLoopRate + kCheckpointAfterLoopS));
}

/// Saturation requests of one cycle.
uint64_t SaturationRequests(const Config& c) {
  return c.tiny ? 40
                : static_cast<uint64_t>(kSaturationRate *
                                        (1 - kOpenLoopShare) * c.seconds /
                                        kServedCycles);
}

void TraceServed(const Config& c, RunResult* r) {
  ServedInputs inputs(ServedCycleSeed(c.seed, 0), 0);
  std::vector<size_t> keys;
  for (size_t k = 0, n = OpenLoopRequests(c); k < n; ++k) {
    keys.push_back(inputs.Key(k));
  }
  Oracle unchecked;  // the traced run is not the correctness gate
  LayerValues v;
  ServedSystem system;
  gdx::Status started = system.Start(CheckpointIntervalMs(c));
  if (!started.ok()) {
    r->notes.push_back("server start failed: " + started.message());
    r->correct = false;
    EmitLayers(v, r);
    return;
  }
  // One timed cycle's traffic: the open loop, then the saturation phase,
  // which carries the run past the first checkpoint interval.
  bool corrupted = false;
  OpenLoop loop = RunOpenLoop(&system, inputs, keys, kOpenLoopRate,
                              Corruption::kNone, &corrupted, &unchecked);
  // Queue wait and solve time of the open loop, the phase latency_p99_ms
  // is measured in.
  std::map<std::string, gdx::obs::HistogramSnapshot> histograms;
  for (auto& [name, snapshot] : system.stats->HistogramValues()) {
    histograms[name] = snapshot;
  }
  uint64_t requests = keys.size();
  double saturation_seconds = 0;
  RunSaturation(&system, &inputs, keys.size(), SaturationRequests(c),
                Corruption::kNone, &corrupted, &unchecked, &requests,
                &saturation_seconds);

  // The checkpoint operation itself, on the warm engine the run left.
  std::vector<double> save_ms;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point start = Clock::now();
    gdx::Status saved = system.server->engine().SaveWarmState(
        kProbeSnapshotPath);
    save_ms.push_back(SecondsSince(start) * 1e3);
    if (!saved.ok()) r->notes.push_back("snapshot probe: " + saved.message());
  }
  struct stat st{};
  if (::stat(kProbeSnapshotPath, &st) == 0) {
    v["persist.snapshot_bytes"] = static_cast<double>(st.st_size);
  }
  std::remove(kProbeSnapshotPath);
  v["persist.checkpoint_ms"] = Quantile(save_ms, 0.5);
  // The drain takes the final checkpoint; the counters are read after it,
  // so they cover every request and checkpoint of the run.
  system.Stop();

  std::map<std::string, double> counters;
  for (const auto& [name, value] : system.stats->CounterValues()) {
    counters[name] = static_cast<double>(value);
  }
  for (const char* tier : {"nre", "answer", "compile", "chase"}) {
    std::string prefix = std::string("engine.cache.") + tier;
    CacheLayers(tier, counters[prefix + ".hits"], counters[prefix + ".misses"],
                &v);
  }
  v["chase.triggers"] = counters["engine.work.chase_triggers"];
  v["chase.merges"] = counters["engine.work.chase_merges"];
  v["chase.delta_rounds"] = counters["engine.chase.delta_rounds"];
  v["chase.skipped_rules"] = counters["engine.chase.skipped_rules"];
  v["solver.candidates"] = counters["engine.work.candidates_tried"];
  v["solver.solutions"] = counters["engine.work.solutions_enumerated"];
  v["serve.rejected"] = counters["serve.requests.rejected_full"] +
                        counters["serve.requests.rejected_overloaded"] +
                        counters["serve.requests.rejected_draining"];
  v["persist.checkpoints"] = counters["serve.checkpoint.saves"];
  v["serve.queue_wait_p99_ms"] =
      HistogramQuantile(histograms["serve.queue_wait_ns"], 0.99) * 1e-6;
  v["serve.overhead_p50_ms"] =
      Quantile(Replied(loop.service_ms), 0.5) -
      HistogramQuantile(histograms["engine.solve.total_ns"], 0.5) * 1e-6;
  v["loadgen.late_p99_ms"] = Quantile(loop.late_ms, 0.99);

  std::vector<const std::string*> texts;
  for (size_t k = 0; k < inputs.requests(); ++k) {
    texts.push_back(&inputs.Text(inputs.Key(k)));
  }
  LayersFromPipeline(texts, TracePath(c), &v, r);
  EmitLayers(v, r);
  r->attempted = texts.size();
}

}  // namespace

RunResult RunServedCertain(const Config& c) {
  RunResult r;
  if (c.trace) {
    TraceServed(c, &r);
    return r;
  }
  // Each cycle is a fresh server (cold cache) that gets the same open-loop
  // schedule, then the same number of saturation requests, over the
  // cycle's own request stream.
  std::vector<std::unique_ptr<ServedInputs>> streams;
  Oracle oracle;
  std::vector<double> setup;
  CycleStats stats;
  bool corrupted = false;
  uint64_t attempted = 0;
  double peak_rss = 0;
  do {
    // Set-up samples: construct, Start, connect + handshake (the drain
    // that follows is not set-up).
    for (int i = 0; i < kSetupBurst; ++i) {
      ServedSystem probe;
      Clock::time_point start = Clock::now();
      gdx::Status started = probe.Start(CheckpointIntervalMs(c));
      setup.push_back(SecondsSince(start));
      probe.Stop();
      if (!started.ok()) {
        r.notes.push_back("server start failed: " + started.message());
        r.correct = false;
        return r;
      }
    }
    size_t cycle = streams.size();
    streams.push_back(std::make_unique<ServedInputs>(
        ServedCycleSeed(c.seed, cycle), cycle << 32));
    ServedInputs& inputs = *streams.back();
    std::vector<size_t> open_keys;
    for (size_t k = 0, n = OpenLoopRequests(c); k < n; ++k) {
      open_keys.push_back(inputs.Key(k));
    }
    // Generates the saturation phase's texts before the clock starts.
    inputs.Key(open_keys.size() + SaturationRequests(c) - 1);
    ServedSystem system;
    gdx::Status started = system.Start(CheckpointIntervalMs(c));
    if (!started.ok()) {
      system.Stop();
      oracle.RecordFailure("server start failed: " + started.message());
      break;
    }
    double cpu_start = CpuSeconds();
    OpenLoop loop = RunOpenLoop(&system, inputs, open_keys, kOpenLoopRate,
                                c.corrupt, &corrupted, &oracle);
    for (double ms : Replied(loop.latency_ms)) stats.Op(ms);
    uint64_t requests = open_keys.size();
    double saturation_seconds = 0;
    double throughput = RunSaturation(
        &system, &inputs, open_keys.size(), SaturationRequests(c), c.corrupt,
        &corrupted, &oracle, &requests, &saturation_seconds);
    double cpu = CpuSeconds() - cpu_start;
    system.Stop();
    // The first cycle's peak, drain and final checkpoint included. Later
    // cycles start with memory the allocator kept from earlier servers
    // (free but not returned, 70 to 230 MiB after a few cycles), so their
    // peaks measure its fragmentation more than the program.
    if (cycle == 0) peak_rss = PeakRssMb();
    attempted += requests;
    stats.EndCycle(throughput, Ratio(cpu * 1e3, requests),
                   open_keys.size() / kOpenLoopRate + saturation_seconds);
  } while (MoreCycles(c, stats, kServedCycles));

  size_t requests = 0;
  size_t distinct = 0;
  for (const auto& inputs : streams) {
    for (size_t i = 0; i < inputs->distinct(); ++i) {
      oracle.AddInput(inputs->OracleKey(i), &inputs->Text(i),
                      ServedInputs::CaseOf(i));
    }
    requests += inputs->requests();
    distinct += inputs->distinct();
  }
  AddSetup(setup, &r);
  stats.Report(MinCycles(c, kServedCycles) * OpenLoopRequests(c),
               "open-loop requests at " +
                   std::to_string(static_cast<int>(kOpenLoopRate)) + "/s",
               &r);
  r.Add("peak_rss_mb", peak_rss, "MiB");
  char mix[192];
  std::snprintf(mix, sizeof(mix),
                "request mix: %zu requests over %zu distinct scenarios "
                "(repeat share %.3f; Example 2.2 x 3 modes, then 3-6 cities, "
                "2-6 flights, 2-4 hotels)",
                requests, distinct, 1.0 - Ratio(distinct, requests));
  r.notes.push_back(mix);
  Settle(&oracle, attempted, &r);
  return r;
}

// --- egd-large -------------------------------------------------------------

namespace {

std::vector<SizeClass> LadderClasses(const Config& c) {
  if (c.tiny) return {{20, 1}, {30, 1}};
  return {std::begin(kEgdClasses), std::end(kEgdClasses)};
}

FlightParams LadderParams(size_t cities) {
  FlightParams p;
  p.cities = cities;
  p.flights = static_cast<size_t>(cities * kFlightsPerCity);
  p.hotels = cities / 2;
  p.hotels_per_flight = 2;
  p.mode = FlightMode::kEgd;
  p.with_query = false;
  return p;
}

/// The ladder's size range, e.g. "ladder: 40 scenarios, 100-400 cities,
/// 250-1000 flights".
std::string LadderNote(const Config& c) {
  std::vector<SizeClass> classes = LadderClasses(c);
  size_t count = 0;
  for (const SizeClass& size : classes) count += size.count;
  FlightParams lo = LadderParams(classes.front().cities);
  FlightParams hi = LadderParams(classes.back().cities);
  char note[128];
  std::snprintf(note, sizeof(note),
                "ladder: %zu scenarios, %zu-%zu cities, %zu-%zu flights", count,
                lo.cities, hi.cities, lo.flights, hi.flights);
  return note;
}

std::vector<std::string> MakeLadder(const Config& c) {
  std::vector<SizeClass> classes = LadderClasses(c);
  // Each class is spread evenly over the cycle (ordered by the fraction of
  // its class done), so a slow spell of the machine falls on every size
  // alike instead of on one class.
  std::vector<std::pair<double, std::string>> order;
  size_t drawn = 0;
  for (const SizeClass& size : classes) {
    for (size_t i = 0; i < size.count; ++i) {
      FlightParams p = LadderParams(size.cities);
      p.seed = StreamSeed(c.seed, kEgdStream, drawn++);
      order.emplace_back((i + 0.5) / size.count, FlightScenario(p));
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> ladder;
  for (auto& entry : order) ladder.push_back(std::move(entry.second));
  return ladder;
}

void TraceEgdLarge(const Config& c, const std::vector<std::string>& ladder,
                   RunResult* r) {
  LayerValues v;
  gdx::ExchangeEngine engine(BenchEngineOptions());
  gdx::Metrics total;
  for (const std::string& text : ladder) {
    gdx::Result<gdx::Scenario> parsed = gdx::ParseScenario(text);
    if (!parsed.ok()) continue;
    gdx::Result<gdx::ExchangeOutcome> outcome = engine.Solve(parsed.value());
    if (outcome.ok()) total.Accumulate(outcome->metrics);
  }
  LayersFromMetrics(total, &v);
  std::vector<const std::string*> inputs;
  for (const std::string& text : ladder) inputs.push_back(&text);
  LayersFromPipeline(inputs, TracePath(c), &v, r);
  EmitLayers(v, r);
  r->attempted = inputs.size();
}

}  // namespace

RunResult RunEgdLarge(const Config& c) {
  RunResult r;
  std::vector<std::string> ladder = MakeLadder(c);
  if (c.trace) {
    TraceEgdLarge(c, ladder, &r);
    return r;
  }
  Oracle oracle;
  for (size_t i = 0; i < ladder.size(); ++i) oracle.AddInput(i, &ladder[i]);
  const gdx::EngineOptions options = BenchEngineOptions();

  // Whole ladder cycles, each on a fresh engine; an op is parse + Solve.
  std::vector<double> setup;
  CycleStats stats;
  bool corrupted = false;
  do {
    SetupBurst(kEngineSetupBatch, [&] { gdx::ExchangeEngine engine(options); },
               &setup);
    gdx::ExchangeEngine engine(options);
    double busy = 0, cpu = 0;
    for (size_t i = 0; i < ladder.size(); ++i) {
      double cpu_start = CpuSeconds();
      Clock::time_point t0 = Clock::now();
      gdx::Result<gdx::Scenario> parsed = gdx::ParseScenario(ladder[i]);
      gdx::Result<gdx::ExchangeOutcome> outcome =
          parsed.ok() ? engine.Solve(parsed.value())
                      : gdx::Result<gdx::ExchangeOutcome>(parsed.status());
      double seconds = SecondsSince(t0);
      busy += seconds;
      cpu += CpuSeconds() - cpu_start;
      stats.Op(seconds * 1e3);
      if (!outcome.ok()) {
        oracle.RecordFailure("solve: " + outcome.status().message());
        continue;
      }
      if (!corrupted) corrupted = CorruptOutcome(c.corrupt, &*outcome);
      oracle.Record(i, outcome->ToString(*parsed->universe,
                                         *parsed->alphabet));
    }
    stats.EndCycle(Ratio(ladder.size(), busy), Ratio(cpu * 1e3, ladder.size()),
                   busy);
  } while (MoreCycles(c, stats));
  double peak_rss = PeakRssMb();

  AddSetup(setup, &r);
  stats.Report(MinCycles(c) * ladder.size(),
               "the ladder's " + std::to_string(ladder.size()) + " solves",
               &r);
  r.notes.push_back(LadderNote(c));
  r.Add("peak_rss_mb", peak_rss, "MiB");
  Settle(&oracle, stats.cycles() * ladder.size(), &r);
  return r;
}

}  // namespace perfbench
