#include "generate.h"

#include <cstdio>
#include <set>
#include <tuple>

namespace perfbench {
namespace {

const char* const kLabels[] = {"a", "b", "c", "d", "hub"};
const char* const kBodyVars[] = {"x", "y", "z"};
const char* const kEgdVars[] = {"u1", "u2", "v1", "v2"};

template <size_t N>
const char* Pick(Rng& rng, const char* const (&items)[N]) {
  return items[rng.Below(N)];
}

const char kFlightHeader[] =
    "relation Flight/3\n"
    "relation Hotel/2\n";

const char kFlightRules[] =
    "stgd Flight(x1,x2,x3), Hotel(x1,x4) ->\n"
    "     (x2, f . f*, y), (y, h, x4), (y, f . f*, x3)\n";

const char* ConstraintLine(FlightMode mode) {
  switch (mode) {
    case FlightMode::kNone:
      return "";
    case FlightMode::kEgd:
      return "egd (x1, h, x3), (x2, h, x3) -> x1 = x2\n";
    case FlightMode::kSameAs:
      return "sameas (x1, h, x3), (x2, h, x3) -> (x1, sameAs, x2)\n";
  }
  return "";
}

const char kQueryLine[] = "query (x1, f . f* [h] . f- . (f-)*, x2) -> x1, x2\n";

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng mix(seed * 0x100000001b3ull ^ (stream << 48) ^ index);
  mix.Next();
  return mix.Next();
}

namespace {

struct Fact {
  bool r;  // R or S
  uint64_t a, b;
  bool operator<(const Fact& o) const {
    return std::tie(r, a, b) < std::tie(o.r, o.a, o.b);
  }
};

/// Body matches of a corpus s-t tgd body over the distinct facts: one atom
/// `first(x, y)`, or the chain `first(x, y), second(y, z)`.
uint64_t Triggers(const std::set<Fact>& facts, bool first, bool chained,
                  bool second) {
  uint64_t n = 0;
  for (const Fact& f : facts) {
    if (f.r != first) continue;
    if (!chained) {
      ++n;
      continue;
    }
    for (const Fact& g : facts) n += g.r == second && g.a == f.b ? 1 : 0;
  }
  return n;
}

/// One draw of the corpus shape; `choice_edges` receives how many pattern
/// edges the s-t chase gives a starred or union label.
std::string DrawCorpusScenario(Rng& rng, uint64_t* choice_edges) {
  std::string out = "relation R/2\nrelation S/2\n";
  std::set<Fact> facts;
  char buf[160];
  uint64_t num_consts = rng.Range(3, 6);
  for (uint64_t i = 0, n = rng.Range(3, 8); i < n; ++i) {
    Fact f{rng.Below(2) == 0, rng.Below(num_consts), rng.Below(num_consts)};
    facts.insert(f);
    std::snprintf(buf, sizeof(buf), "fact %s(c%llu, c%llu)\n",
                  f.r ? "R" : "S", static_cast<unsigned long long>(f.a),
                  static_cast<unsigned long long>(f.b));
    out += buf;
  }
  *choice_edges = 0;
  for (uint64_t i = 0, n = rng.Range(1, 4); i < n; ++i) {
    bool first = rng.Below(2) == 0;
    std::string body = first ? "R(x, y)" : "S(x, y)";
    bool chained = rng.Unit() < 0.3;
    bool second = false;
    if (chained) {
      second = rng.Below(2) != 0;
      body += second ? ", R(y, z)" : ", S(y, z)";
    }
    std::string heads;
    uint64_t choice_heads = 0;
    int num_heads = rng.Unit() < 0.4 ? 2 : 1;
    for (int h = 0; h < num_heads; ++h) {
      std::string nre = Pick(rng, kLabels);
      double shape = rng.Unit();
      if (shape < 0.15) {
        nre += std::string(" . ") + Pick(rng, kLabels);
      } else if (shape < 0.25) {
        nre += std::string(" + ") + Pick(rng, kLabels);
        ++choice_heads;
      } else if (shape < 0.32) {
        nre += "*";
        ++choice_heads;
      }
      std::string v1 = Pick(rng, kBodyVars);
      std::string v2 = rng.Unit() < 0.45 ? "e" + std::to_string(rng.Range(1, 2))
                                         : std::string(Pick(rng, kBodyVars));
      if (!heads.empty()) heads += ", ";
      heads += "(" + v1 + ", " + nre + ", " + v2 + ")";
    }
    *choice_edges += choice_heads * Triggers(facts, first, chained, second);
    out += "stgd " + body + " -> " + heads + "\n";
  }
  for (uint64_t i = 0, n = rng.Range(0, 3); i < n; ++i) {
    std::vector<std::string> used;
    std::string atoms;
    int num_atoms = rng.Unit() < 0.5 ? 2 : 1;
    for (int a = 0; a < num_atoms; ++a) {
      std::string label = Pick(rng, kLabels);
      if (rng.Unit() < 0.2) label += "*";
      std::string v1 = Pick(rng, kEgdVars), v2 = Pick(rng, kEgdVars);
      used.push_back(v1);
      used.push_back(v2);
      if (!atoms.empty()) atoms += ", ";
      atoms += "(" + v1 + ", " + label + ", " + v2 + ")";
    }
    out += "egd " + atoms + " -> " + used[rng.Below(used.size())] + " = " +
           used[rng.Below(used.size())] + "\n";
  }
  return out;
}

}  // namespace

std::string CorpusScenario(uint64_t stream_seed) {
  Rng rng(stream_seed);
  for (;;) {
    uint64_t choice_edges = 0;
    std::string text = DrawCorpusScenario(rng, &choice_edges);
    if (choice_edges <= kMaxCorpusChoiceEdges) return text;
  }
}

std::string FlightScenario(const FlightParams& p) {
  Rng rng(p.seed);
  std::string out = kFlightHeader;
  std::string hotels;
  char buf[128];
  for (size_t i = 1; i <= p.flights; ++i) {
    uint64_t src = rng.Below(p.cities);
    uint64_t dst = rng.Below(p.cities);
    if (dst == src) dst = (dst + 1) % p.cities;
    std::snprintf(buf, sizeof(buf), "fact Flight(fl%zu, city%llu, city%llu)\n",
                  i, static_cast<unsigned long long>(src + 1),
                  static_cast<unsigned long long>(dst + 1));
    out += buf;
    for (size_t k = 0; k < p.hotels_per_flight; ++k) {
      std::snprintf(buf, sizeof(buf), "fact Hotel(fl%zu, hotel%llu)\n", i,
                    static_cast<unsigned long long>(rng.Below(p.hotels) + 1));
      hotels += buf;
    }
  }
  out += hotels;
  out += kFlightRules;
  out += ConstraintLine(p.mode);
  if (p.with_query) out += kQueryLine;
  return out;
}

std::string Example22(FlightMode mode) {
  std::string out = kFlightHeader;
  out +=
      "fact Flight(01, c1, c2)\n"
      "fact Flight(02, c3, c2)\n"
      "fact Hotel(01, hx)\n"
      "fact Hotel(01, hy)\n"
      "fact Hotel(02, hx)\n";
  out += kFlightRules;
  out += ConstraintLine(mode);
  out += kQueryLine;
  return out;
}

std::string Example52() {
  return "relation R/1\n"
         "relation P/1\n"
         "fact R(c1)\n"
         "fact P(c2)\n"
         "stgd R(x), P(y) -> (x, a . (b* + c*) . a, y)\n"
         "egd (x, a + b + c, y) -> x = y\n";
}

}  // namespace perfbench
