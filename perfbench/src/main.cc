// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload corpus-batch|served-certain|egd-large --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt answer|witness]
//
// Prints one line per metric, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when the run
// completed (the oracle's verdict is in "correct"), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "corpus-batch|served-certain|egd-large --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt answer|witness]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    double number = 0;
    if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return Usage("--workload needs a value");
      config.workload = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr || !ParseNumber(v, &number) || number < 0) {
        return Usage("--seed needs a non-negative integer");
      }
      config.seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr || !ParseNumber(v, &number) || number <= 0) {
        return Usage("--seconds needs a positive number");
      }
      config.seconds = number;
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "0") != 0 && std::strcmp(v, "1"))) {
        return Usage("--trace needs 0 or 1");
      }
      config.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt") {
      const char* v = value();
      if (v == nullptr) return Usage("--corrupt needs a value");
      if (std::strcmp(v, "answer") == 0) {
        config.corrupt = perfbench::Corruption::kDropAnswer;
      } else if (std::strcmp(v, "witness") == 0) {
        config.corrupt = perfbench::Corruption::kDropWitnessEdge;
      } else {
        return Usage("--corrupt takes answer or witness");
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  perfbench::RunResult result;
  if (config.workload == "corpus-batch") {
    result = perfbench::RunCorpusBatch(config);
  } else if (config.workload == "served-certain") {
    result = perfbench::RunServedCertain(config);
  } else if (config.workload == "egd-large") {
    result = perfbench::RunEgdLarge(config);
  } else {
    return Usage("unknown workload");
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
