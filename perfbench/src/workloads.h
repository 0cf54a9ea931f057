// The benchmark's three workloads. Each returns every end-to-end metric
// (untraced run) or every per-layer metric (traced run) by name and unit.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Thousands of distinct small query-free scenarios, closed-loop through
/// BatchExecutor::SolveAll on two batch threads.
RunResult RunCorpusBatch(const Config& config);

/// Query-bearing Flight/Hotel scenarios, with repeats, sent as text to an
/// in-process ExchangeServer: an open loop at a fixed rate, then a
/// saturation phase with a full request window.
RunResult RunServedCertain(const Config& config);

/// Large query-free Flight/Hotel scenarios with the egd, solved one at a
/// time through ExchangeEngine::Solve.
RunResult RunEgdLarge(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
