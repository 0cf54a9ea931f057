// gdx_cli: drive the full library from .gdx scenario files — the tool a
// downstream user reaches for first. The solve-shaped subcommands run
// through the ExchangeEngine (src/engine/), the single orchestration seam
// of the library; `chase`, `dot` and `check` expose individual stages.
//
//   gdx_cli <scenario.gdx> chase          chase + adapted egd chase, print
//                                         the (pattern, constraints) pair
//   gdx_cli <scenario.gdx> exists         decide existence, print a witness
//   gdx_cli <scenario.gdx> certain        certain answers of the query
//   gdx_cli <scenario.gdx> solve          existence + core-minimized witness
//   gdx_cli <scenario.gdx> dot            chased pattern as GraphViz DOT
//   gdx_cli <scenario.gdx> check <file>   is the edge-list graph in <file>
//                                         a solution? (src label dst lines,
//                                         "_:n" for nulls)
//   gdx_cli batch <a.gdx> <b.gdx> ...     solve many scenarios concurrently
//           [--threads=N] [--repeat=K]    through the BatchExecutor and
//           [--intra-threads=N]           print the Metrics summary;
//           [--chase=delta|naive]         --intra-threads fans each solve's
//           [--nre-multi-source=batched   witness search over N workers;
//                 |per-source]            --chase picks the chase algorithm
//           [--cache-load=FILE]           (semi-naive delta vs the legacy
//           [--cache-save=FILE]           reference), --nre-multi-source
//           [--report-out=FILE]           the multi-source NRE strategy;
//           [--trace-out=FILE]            both pairs are byte-identical
//           [--metrics-json=FILE]         (see CI's chase-diff job);
//                                         --cache-load/--cache-save restore/
//                                         persist the engine cache snapshot
//                                         (docs/FORMAT.md) so a new process
//                                         warm-starts with every memo and
//                                         compiled automaton of the last
//                                         run; --report-out writes the
//                                         deterministic per-scenario report
//                                         (no timings — byte-identical for
//                                         identical runs, warm or cold,
//                                         traced or not); --trace-out
//                                         records the batch as Chrome/
//                                         Perfetto trace-event JSON;
//                                         --metrics-json dumps the stats
//                                         registry (docs/TELEMETRY.md)
//   gdx_cli serve --socket=PATH|--port=N  resident exchange service
//           [--workers=N] [--queue=N]     (docs/SERVING.md): worker
//           [--intra-threads=N]           sessions share one warm sharded
//           [--checkpoint=FILE]           cache; --checkpoint persists it
//           [--checkpoint-interval-ms=N]  periodically (and on drain) and
//           [--metrics-json=FILE]         warm-starts from it at startup;
//           [--fault=SPEC]                --fault injects deterministic
//                                         faults (point:rate:seed, same
//                                         spec as GDX_FAULT) for the
//                                         robustness harnesses; runs until
//                                         a client sends SHUTDOWN
//   gdx_cli client --socket=PATH|--port=N pipelined driver: sends each
//           <a.gdx ...> [--list=FILE]     scenario file's text, retries
//           [--repeat=K] [--window=N]     QUEUE_FULL rejections with
//           [--report-out=FILE]           jittered exponential backoff,
//           [--index-base=N]              reorders streamed results by id
//           [--stats-out=FILE]            and writes the batch-identical
//           [--deadline-ms=N]             report; --deadline-ms attaches a
//           [--shutdown] [--ping]         solve deadline to every request;
//                                         --shutdown drains the server
//                                         when done
//
// Try:  ./gdx_cli example22.gdx certain
//       ./gdx_cli batch example22.gdx example22.gdx --threads=4 --repeat=8
//       ./gdx_cli batch hard.gdx --threads=1 --intra-threads=4
//       ./gdx_cli batch a.gdx --repeat=8 --cache-save=warm.gdxsnap
//       ./gdx_cli batch a.gdx --repeat=8 --cache-load=warm.gdxsnap
//       # 2nd run: "warm: restored-entry hits" climbs, compile misses = 0
//       ./gdx_cli batch a.gdx --repeat=32 --trace-out=trace.json
//                             --metrics-json=metrics.json   (same command)
//       # open trace.json in Perfetto / chrome://tracing
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chase/egd_chase.h"
#include "chase/pattern_chase.h"
#include "common/fault.h"
#include "engine/batch_executor.h"
#include "engine/exchange_engine.h"
#include "exchange/solution_check.h"
#include "exchange/universal_pair.h"
#include "graph/dot_export.h"
#include "graph/graph_io.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workload/scenario_parser.h"

using namespace gdx;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

EngineOptions CliEngineOptions() {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 16;
  return options;
}

int RunChase(Scenario& s, const NreEvaluator& eval) {
  Result<UniversalPair> pair =
      BuildUniversalPair(s.setting, *s.instance, *s.universe, eval);
  if (!pair.ok()) {
    std::printf("chase failed — no solution exists.\n  %s\n",
                pair.status().message().c_str());
    return 0;
  }
  std::printf("%s", pair->ToString(*s.universe).c_str());
  return 0;
}

int RunSolve(Scenario& s, bool minimize, bool want_certain) {
  EngineOptions options = CliEngineOptions();
  options.minimize_core = minimize;
  options.compute_certain_answers = want_certain;
  if (want_certain && s.query == nullptr) {
    std::fprintf(stderr, "scenario has no 'query' directive\n");
    return 1;
  }
  ExchangeEngine engine(options);
  Result<ExchangeOutcome> outcome = engine.Solve(s);
  if (!outcome.ok()) return Fail(outcome.status());
  std::printf("%s", outcome->ToString(*s.universe, *s.alphabet).c_str());
  std::printf("%s", outcome->metrics.ToString().c_str());
  return 0;
}

int RunBatch(int argc, char** argv) {
  BatchOptions options;
  options.engine = CliEngineOptions();
  size_t repeat = 1;
  std::string cache_load, cache_save, report_out, trace_out, metrics_json;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--cache-load=", 13) == 0) {
      cache_load = arg + 13;
    } else if (std::strncmp(arg, "--cache-save=", 13) == 0) {
      cache_save = arg + 13;
    } else if (std::strncmp(arg, "--report-out=", 13) == 0) {
      report_out = arg + 13;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
    } else if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      metrics_json = arg + 15;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      int threads = std::atoi(arg + 10);
      if (threads < 0) {
        std::fprintf(stderr, "--threads must be >= 0 (0 = hardware)\n");
        return 2;
      }
      options.num_threads = static_cast<size_t>(threads);
    } else if (std::strncmp(arg, "--intra-threads=", 16) == 0) {
      int threads = std::atoi(arg + 16);
      if (threads < 0) {
        std::fprintf(stderr,
                     "--intra-threads must be >= 0 (0 = hardware)\n");
        return 2;
      }
      options.engine.intra_solve_threads = static_cast<size_t>(threads);
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      int parsed = std::atoi(arg + 9);
      if (parsed < 1) {
        std::fprintf(stderr, "--repeat must be >= 1\n");
        return 2;
      }
      repeat = static_cast<size_t>(parsed);
    } else if (std::strncmp(arg, "--chase=", 8) == 0) {
      // Both algorithms produce byte-identical artifacts (the CI
      // chase-diff job cmp's the two reports); the flag exists for that
      // differential and for benchmarking the legacy path.
      const char* mode = arg + 8;
      if (std::strcmp(mode, "delta") == 0) {
        options.engine.chase_policy = ChaseAlgorithm::kDelta;
      } else if (std::strcmp(mode, "naive") == 0) {
        options.engine.chase_policy = ChaseAlgorithm::kNaive;
      } else {
        std::fprintf(stderr, "--chase must be 'delta' or 'naive'\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--nre-multi-source=", 19) == 0) {
      // Byte-identical pair (ISSUE 10 tentpole part 2): the 64-way
      // bit-parallel BFS vs the per-source reference loop.
      const char* mode = arg + 19;
      if (std::strcmp(mode, "batched") == 0) {
        options.engine.nre_multi_source = MultiSourceMode::kBatched;
      } else if (std::strcmp(mode, "per-source") == 0) {
        options.engine.nre_multi_source = MultiSourceMode::kPerSource;
      } else {
        std::fprintf(stderr,
                     "--nre-multi-source must be 'batched' or "
                     "'per-source'\n");
        return 2;
      }
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: gdx_cli batch <a.gdx> [b.gdx ...] [--threads=N] "
                 "[--intra-threads=N] [--repeat=K] [--chase=delta|naive] "
                 "[--nre-multi-source=batched|per-source] "
                 "[--cache-load=FILE] [--cache-save=FILE] "
                 "[--report-out=FILE] [--trace-out=FILE] "
                 "[--metrics-json=FILE]\n");
    return 2;
  }
  // Observability (ISSUE 6): both sinks are pay-for-what-you-ask — no
  // tracer is installed and no registry is wired unless the flag is given,
  // and neither affects outcomes (--report-out stays byte-identical; CI's
  // trace-smoke step asserts it).
  obs::StatsRegistry registry;
  if (!metrics_json.empty()) options.engine.stats = &registry;
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    tracer.reset(new obs::Tracer());
    obs::Tracer::SetGlobal(tracer.get());
  }
  // --repeat=K loads each file K times: repeated scenarios exercise the
  // engine cache (expect the hit counters to climb).
  std::vector<Scenario> scenarios;
  for (size_t r = 0; r < repeat; ++r) {
    for (const std::string& path : paths) {
      Result<Scenario> s = LoadScenarioFile(path);
      if (!s.ok()) return Fail(s.status());
      scenarios.push_back(std::move(s).value());
    }
  }
  BatchExecutor executor(options);
  if (!cache_load.empty()) {
    // Corruption-safe by design: a truncated/bit-flipped/wrong-version
    // snapshot restores nothing — warn and run cold rather than fail.
    Result<SnapshotRestoreStats> restored = executor.WarmStart(cache_load);
    if (!restored.ok()) {
      std::fprintf(stderr,
                   "warning: cache snapshot not loaded, starting cold "
                   "(%s)\n",
                   restored.status().ToString().c_str());
    } else {
      std::printf("cache: restored %zu nre + %zu answer (%zu key) + %zu "
                  "automaton + %zu chased entries from %s%s\n",
                  restored->nre_entries, restored->answer_entries,
                  restored->answer_keys, restored->compiled_entries,
                  restored->chased_entries, cache_load.c_str(),
                  restored->evicted_on_load > 0 ? " (some evicted by caps)"
                                                : "");
    }
  }
  BatchReport report = executor.SolveAll(scenarios);
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    const Result<ExchangeOutcome>& r = report.outcomes[i];
    const char* verdict =
        !r.ok() ? "ERROR"
        : r->existence.verdict == ExistenceVerdict::kYes  ? "YES"
        : r->existence.verdict == ExistenceVerdict::kNo   ? "NO"
                                                          : "UNKNOWN";
    std::printf("  [%zu] %s  %s\n", i,
                paths[i % paths.size()].c_str(), verdict);
  }
  std::printf("%s", report.Summary().c_str());
  if (!report_out.empty()) {
    // The timing-free report: per-scenario semantic outcomes only.
    // Identical scenario lists produce byte-identical files whether the
    // cache started cold or from a snapshot — CI's round-trip step and
    // persist_test assert exactly that.
    std::ofstream out(report_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write report: %s\n",
                   report_out.c_str());
      return 1;
    }
    for (size_t i = 0; i < report.outcomes.size(); ++i) {
      const Result<ExchangeOutcome>& r = report.outcomes[i];
      out << "[" << i << "] " << paths[i % paths.size()] << "\n";
      if (r.ok()) {
        out << r->ToString(*scenarios[i].universe, *scenarios[i].alphabet);
      } else {
        out << r.status().ToString() << "\n";
      }
    }
  }
  if (!cache_save.empty()) {
    Status saved = executor.SaveWarmState(cache_save);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: cache snapshot not saved: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("cache: saved snapshot to %s\n", cache_save.c_str());
  }
  if (tracer != nullptr) {
    obs::Tracer::SetGlobal(nullptr);
    Status written = tracer->WriteJson(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "error: trace not written: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu event(s) (%llu dropped) written to %s\n",
                tracer->event_count(),
                static_cast<unsigned long long>(tracer->dropped_events()),
                trace_out.c_str());
  }
  if (!metrics_json.empty()) {
    std::ofstream out(metrics_json, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write metrics: %s\n",
                   metrics_json.c_str());
      return 1;
    }
    out << registry.ToJson();
    std::printf("metrics: registry dumped to %s (docs/TELEMETRY.md)\n",
                metrics_json.c_str());
  }
  return report.errors == 0 ? 0 : 1;
}

int RunServe(int argc, char** argv) {
  serve::ServeOptions options;
  options.engine = CliEngineOptions();
  std::string metrics_json;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      options.socket_path = arg + 9;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      options.port = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      options.num_workers = static_cast<size_t>(std::atoi(arg + 10));
    } else if (std::strncmp(arg, "--queue=", 8) == 0) {
      int queue = std::atoi(arg + 8);
      if (queue < 1) {
        std::fprintf(stderr, "--queue must be >= 1\n");
        return 2;
      }
      options.queue_capacity = static_cast<size_t>(queue);
    } else if (std::strncmp(arg, "--intra-threads=", 16) == 0) {
      options.engine.intra_solve_threads =
          static_cast<size_t>(std::atoi(arg + 16));
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      options.checkpoint_path = arg + 13;
    } else if (std::strncmp(arg, "--checkpoint-interval-ms=", 25) == 0) {
      options.checkpoint_interval_ms =
          static_cast<uint64_t>(std::atoll(arg + 25));
    } else if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      metrics_json = arg + 15;
    } else if (std::strncmp(arg, "--fault=", 8) == 0) {
      // Same spec as GDX_FAULT (point:rate:seed[,...]); the flag makes a
      // fault plan visible in the harness command line.
      if (!fault::Configure(arg + 8)) {
        std::fprintf(stderr, "serve: malformed --fault spec: %s\n",
                     arg + 8);
        return 2;
      }
    } else {
      std::fprintf(stderr, "serve: unknown flag: %s\n", arg);
      return 2;
    }
  }
  if (options.socket_path.empty() && options.port < 0) {
    std::fprintf(stderr,
                 "usage: gdx_cli serve --socket=PATH|--port=N "
                 "[--workers=N] [--queue=N] [--intra-threads=N] "
                 "[--checkpoint=FILE] [--checkpoint-interval-ms=N] "
                 "[--metrics-json=FILE] [--fault=SPEC]\n");
    return 2;
  }
  const std::string socket_path = options.socket_path;
  serve::ExchangeServer server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  if (server.bound_port() >= 0) {
    std::printf("serving on port %d\n", server.bound_port());
  } else {
    std::printf("serving on %s\n", socket_path.c_str());
  }
  std::fflush(stdout);  // readiness line: scripts wait for it
  server.Wait();
  if (!metrics_json.empty()) {
    std::ofstream out(metrics_json, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write metrics: %s\n",
                   metrics_json.c_str());
      return 1;
    }
    out << server.stats().ToJson();
  }
  std::printf("serve: drained, exiting\n");
  return 0;
}

int RunClient(int argc, char** argv) {
  std::string socket_path, list_file, report_out, stats_out;
  int port = -1;
  size_t repeat = 1, window = 16;
  uint64_t index_base = 0;
  uint32_t deadline_ms = 0;
  bool want_shutdown = false, want_ping = false;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      socket_path = arg + 9;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      port = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--list=", 7) == 0) {
      list_file = arg + 7;
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      int parsed = std::atoi(arg + 9);
      if (parsed < 1) {
        std::fprintf(stderr, "--repeat must be >= 1\n");
        return 2;
      }
      repeat = static_cast<size_t>(parsed);
    } else if (std::strncmp(arg, "--window=", 9) == 0) {
      int parsed = std::atoi(arg + 9);
      if (parsed < 1) {
        std::fprintf(stderr, "--window must be >= 1\n");
        return 2;
      }
      window = static_cast<size_t>(parsed);
    } else if (std::strncmp(arg, "--report-out=", 13) == 0) {
      report_out = arg + 13;
    } else if (std::strncmp(arg, "--index-base=", 13) == 0) {
      index_base = static_cast<uint64_t>(std::atoll(arg + 13));
    } else if (std::strncmp(arg, "--stats-out=", 12) == 0) {
      stats_out = arg + 12;
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      int parsed = std::atoi(arg + 14);
      if (parsed < 1) {
        std::fprintf(stderr, "--deadline-ms must be >= 1\n");
        return 2;
      }
      deadline_ms = static_cast<uint32_t>(parsed);
    } else if (std::strcmp(arg, "--shutdown") == 0) {
      want_shutdown = true;
    } else if (std::strcmp(arg, "--ping") == 0) {
      want_ping = true;
    } else {
      paths.push_back(arg);
    }
  }
  if (!list_file.empty()) {
    std::ifstream in(list_file);
    if (!in) {
      std::fprintf(stderr, "client: cannot open list: %s\n",
                   list_file.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) paths.push_back(line);
    }
  }
  if (socket_path.empty() && port < 0) {
    std::fprintf(stderr,
                 "usage: gdx_cli client --socket=PATH|--port=N "
                 "[a.gdx ...] [--list=FILE] [--repeat=K] [--window=N] "
                 "[--report-out=FILE] [--index-base=N] "
                 "[--stats-out=FILE] [--deadline-ms=N] [--shutdown] "
                 "[--ping]\n");
    return 2;
  }

  serve::ExchangeClient client;
  Status connected = socket_path.empty() ? client.ConnectTcp(port)
                                         : client.ConnectUnix(socket_path);
  if (!connected.ok()) return Fail(connected);

  if (want_ping) {
    Status pinged = client.Ping();
    if (!pinged.ok()) return Fail(pinged);
    std::printf("pong\n");
  }

  // Expand repeat-major, exactly like `batch --repeat`: scenario i is
  // paths[i % paths.size()], so the reassembled report is byte-identical
  // to the one-shot batch report over the same list.
  struct Item {
    uint64_t id;
    const std::string* path;
    std::string text;
  };
  std::vector<Item> items;
  items.reserve(paths.size() * repeat);
  for (size_t r = 0; r < repeat; ++r) {
    for (const std::string& path : paths) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "client: cannot open scenario: %s\n",
                     path.c_str());
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      items.push_back(
          Item{index_base + items.size(), &path, buffer.str()});
    }
  }

  // Pipelined sliding window with QUEUE_FULL retry: at most `window`
  // scenarios outstanding; an admission rejection re-sends that scenario
  // (the server stayed healthy — rejection is backpressure, not failure).
  // Retries back off exponentially with deterministic per-id jitter so a
  // rejected burst does not re-converge into a retry stampede; only
  // QUEUE_FULL is retried — it is the one rejection issued before
  // admission, so the re-send is idempotent.
  std::vector<std::string> results(items.size());
  std::vector<bool> done(items.size(), false);
  std::vector<uint64_t> attempts(items.size(), 0);
  serve::RetryBackoff backoff(/*seed=*/index_base);
  size_t next = 0, outstanding = 0, completed = 0, errors = 0;
  uint64_t queue_full_retries = 0;
  while (completed < items.size()) {
    while (next < items.size() && outstanding < window) {
      Status sent = client.SendRequest(items[next].id, items[next].text,
                                       deadline_ms);
      if (!sent.ok()) return Fail(sent);
      ++next;
      ++outstanding;
    }
    serve::ClientReply reply;
    Status read = client.ReadReply(&reply);
    if (!read.ok()) return Fail(read);
    if (reply.id < index_base ||
        reply.id - index_base >= items.size()) {
      std::fprintf(stderr, "client: reply for unknown id %llu\n",
                   static_cast<unsigned long long>(reply.id));
      return 1;
    }
    size_t local = static_cast<size_t>(reply.id - index_base);
    if (reply.is_error && reply.code == serve::ServeError::kQueueFull) {
      ++queue_full_retries;
      std::this_thread::sleep_for(std::chrono::microseconds(
          backoff.DelayUs(items[local].id, ++attempts[local])));
      Status sent = client.SendRequest(items[local].id, items[local].text,
                                       deadline_ms);
      if (!sent.ok()) return Fail(sent);
      continue;
    }
    if (done[local]) {
      std::fprintf(stderr, "client: duplicate reply for id %llu\n",
                   static_cast<unsigned long long>(reply.id));
      return 1;
    }
    done[local] = true;
    if (reply.is_error) {
      ++errors;
      results[local] = reply.text + "\n";
    } else {
      results[local] = std::move(reply.text);
    }
    ++completed;
    --outstanding;
  }

  if (!report_out.empty()) {
    std::ofstream out(report_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write report: %s\n",
                   report_out.c_str());
      return 1;
    }
    for (size_t i = 0; i < items.size(); ++i) {
      out << "[" << items[i].id << "] " << *items[i].path << "\n"
          << results[i];
    }
  }
  if (!stats_out.empty()) {
    std::string json;
    Status got = client.GetStats(&json);
    if (!got.ok()) return Fail(got);
    std::ofstream out(stats_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write stats: %s\n",
                   stats_out.c_str());
      return 1;
    }
    out << json;
  }
  if (want_shutdown) {
    Status drained = client.Shutdown();
    if (!drained.ok()) return Fail(drained);
  }
  std::printf("client: %zu result(s), %zu error(s), %llu QUEUE_FULL "
              "retr%s\n",
              completed, errors,
              static_cast<unsigned long long>(queue_full_retries),
              queue_full_retries == 1 ? "y" : "ies");
  return errors == 0 ? 0 : 1;
}

int RunCheck(Scenario& s, const NreEvaluator& eval, const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open graph file: %s\n", path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<Graph> g =
      ParseGraphText(buffer.str(), *s.universe, *s.alphabet);
  if (!g.ok()) return Fail(g.status());
  SolutionCheckReport report =
      CheckSolution(s.setting, *s.instance, *g, eval, *s.universe);
  std::printf("graph: %zu nodes, %zu edges\n", g->num_nodes(),
              g->num_edges());
  std::printf("solution: %s\n", report.IsSolution() ? "YES" : "NO");
  for (const std::string& violation : report.violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
  return report.IsSolution() ? 0 : 3;
}

int RunDot(Scenario& s, const NreEvaluator& eval) {
  GraphPattern pattern =
      ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
  if (!s.setting.egds.empty()) {
    EgdChaseResult chased =
        ChasePatternEgds(pattern, s.setting.egds, eval);
    if (chased.failed) {
      std::fprintf(stderr, "chase failed: %s\n",
                   chased.failure_reason.c_str());
      return 1;
    }
  }
  std::printf("%s", ToDot(pattern, *s.universe, *s.alphabet).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "batch") == 0) {
    return RunBatch(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return RunServe(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0) {
    return RunClient(argc, argv);
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <scenario.gdx> "
                 "chase|exists|certain|solve|dot|check [graph-file]\n"
                 "       %s batch <a.gdx> [b.gdx ...] [--threads=N] "
                 "[--intra-threads=N] [--repeat=K] [--cache-load=FILE] "
                 "[--cache-save=FILE] [--report-out=FILE] "
                 "[--trace-out=FILE] [--metrics-json=FILE]\n",
                 argv[0], argv[0]);
    return 2;
  }
  Result<Scenario> scenario = LoadScenarioFile(argv[1]);
  if (!scenario.ok()) return Fail(scenario.status());
  AutomatonNreEvaluator eval;
  const char* command = argv[2];
  if (std::strcmp(command, "check") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "usage: %s <scenario.gdx> check <graph-file>\n",
                   argv[0]);
      return 2;
    }
    return RunCheck(*scenario, eval, argv[3]);
  }
  if (std::strcmp(command, "chase") == 0) {
    return RunChase(*scenario, eval);
  }
  if (std::strcmp(command, "exists") == 0) {
    return RunSolve(*scenario, /*minimize=*/false, /*want_certain=*/false);
  }
  if (std::strcmp(command, "solve") == 0) {
    return RunSolve(*scenario, /*minimize=*/true, /*want_certain=*/false);
  }
  if (std::strcmp(command, "certain") == 0) {
    return RunSolve(*scenario, /*minimize=*/false, /*want_certain=*/true);
  }
  if (std::strcmp(command, "dot") == 0) {
    return RunDot(*scenario, eval);
  }
  std::fprintf(stderr, "unknown command: %s\n", command);
  return 2;
}
