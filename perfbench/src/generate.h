// Seeded input generators of the benchmark. Every scenario the program
// receives is `.gdx` text made here, so parsing is part of the measured
// work and no generator under src/ or scripts/ can change the workloads.
#ifndef PERFBENCH_GENERATE_H_
#define PERFBENCH_GENERATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a fixed, self-contained stream, so inputs depend only on
/// the seed and on this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// One independent stream per (seed, stream, index): changing how many
/// inputs a workload draws never reshuffles the others.
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index);

enum class FlightMode { kNone, kEgd, kSameAs };

struct FlightParams {
  size_t cities = 5;
  size_t flights = 6;
  size_t hotels = 4;
  size_t hotels_per_flight = 2;
  FlightMode mode = FlightMode::kEgd;
  bool with_query = true;
  uint64_t seed = 1;
};

/// Cap on the pattern edges with a starred or union label that a corpus
/// scenario's s-t chase may create. Each such edge multiplies the bounded
/// existence search by its witness count (3 under the benchmark's
/// options), so the cap keeps every corpus solve small: uncapped, about
/// one scenario in 1500 needs a search of seconds (one exhausted the
/// 2^20-candidate budget), and a run no longer measures a batch of small
/// scenarios.
constexpr uint64_t kMaxCorpusChoiceEdges = 6;

/// A small query-free scenario over R/2, S/2 in the shapes of the repo's
/// chase-differential corpus: existential heads that mint nulls, composite
/// and starred NRE heads, egds whose constant clashes make some chases
/// fail, and labels no rule derives. Draws that exceed
/// kMaxCorpusChoiceEdges are redrawn from the same stream.
std::string CorpusScenario(uint64_t stream_seed);

/// The paper's running example at scale: random flights between cities,
/// each stopping at hotels from a shared pool, under the Example 2.2
/// mapping, the chosen constraint flavour and (optionally) query Q.
std::string FlightScenario(const FlightParams& params);

/// Example 2.2's exact instance (Ω for kEgd, Ω′ for kSameAs, no target
/// constraints for kNone), with query Q.
std::string Example22(FlightMode mode);

/// Example 5.2: the adapted chase succeeds, yet no solution exists.
std::string Example52();

}  // namespace perfbench

#endif  // PERFBENCH_GENERATE_H_
