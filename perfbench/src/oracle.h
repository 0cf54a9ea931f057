// The benchmark's correctness oracle. It never reads timings, cache
// counters, snapshot bytes or anything else that depends on thread
// interleaving: a timed output is correct iff its ExchangeOutcome::ToString
// equals, byte for byte, that of an untimed reference solve of the same
// input (fresh parse, caches off, one worker), the reference's witness
// passes an independent CheckSolution, and the paper's cases give the
// answers written down by hand below.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/exchange_engine.h"
#include "workload/scenario.h"

namespace perfbench {

/// Hand-checked expectation attached to an input.
enum class PaperCase {
  kNone,
  kExample22Egd,     // Ω: the four (c1|c3, c1|c3) pairs
  kExample22SameAs,  // Ω′: {(c1,c1), (c3,c3)}
  kExample22Plain,   // no target constraints: {(c1,c1), (c3,c3)}
  kExample52,        // NO, although the adapted chase succeeds
};

/// Records timed outputs per input key, then checks them all against
/// references once the timed phase is over.
class Oracle {
 public:
  Oracle();

  /// Registers input `key` (its text, and its hand-checked case if any).
  void AddInput(size_t key, const std::string* text,
                PaperCase paper = PaperCase::kNone);

  /// A timed output (ToString text) of input `key`; the input may be
  /// registered before or after.
  void Record(size_t key, const std::string& output);
  /// A timed operation that produced no output (error or refusal).
  void RecordFailure(const std::string& why);

  /// Solves every recorded input's reference and compares. Returns the
  /// number of failed operations (mismatches + recorded failures).
  uint64_t Finish();

  /// Up to a few descriptions of what failed.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  struct Input {
    const std::string* text = nullptr;
    PaperCase paper = PaperCase::kNone;
    /// Distinct output texts seen for this input, with their counts.
    std::map<std::string, uint64_t> outputs;
  };
  void Fail(const std::string& why);

  std::map<size_t, Input> inputs_;
  std::unique_ptr<gdx::ExchangeEngine> reference_engine_;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// True iff `witness` is a solution of the scenario under an evaluator
/// that shares nothing with the engine: the relation-algebra reference on
/// small graphs, a cache-less compiled evaluator on large ones.
bool WitnessHolds(const gdx::Scenario& scenario, const gdx::Graph& witness);

/// Self-test hooks: damage one outcome the way a wrong program would.
/// Return true if the outcome had something to damage.
bool CorruptOutcome(Corruption corruption, gdx::ExchangeOutcome* outcome);
bool CorruptText(Corruption corruption, std::string* text);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
