#include "oracle.h"

#include <set>

#include "exchange/solution_check.h"
#include "graph/nre_eval.h"
#include "workload/scenario_parser.h"

namespace perfbench {
namespace {

using Tuples = std::set<std::vector<std::string>>;

/// Above this many nodes the relation-algebra evaluator's O(n²) relations
/// cost more than the run can afford; the cache-less compiled evaluator
/// takes over.
constexpr size_t kNaiveCheckMaxNodes = 64;

constexpr size_t kMaxFailureNotes = 4;

const char* PaperCaseName(PaperCase paper) {
  switch (paper) {
    case PaperCase::kNone: return "generated";
    case PaperCase::kExample22Egd: return "Example 2.2 (Ω, egd)";
    case PaperCase::kExample22SameAs: return "Example 2.2 (Ω′, sameAs)";
    case PaperCase::kExample22Plain: return "Example 2.2 (no M_t)";
    case PaperCase::kExample52: return "Example 5.2";
  }
  return "?";
}

/// The answers the paper gives, written out by hand.
bool PaperCaseHolds(PaperCase paper, const gdx::Scenario& scenario,
                    const gdx::ExchangeOutcome& outcome, std::string* why) {
  auto certain = [&]() {
    Tuples names;
    for (const auto& tuple : outcome.certain->tuples) {
      std::vector<std::string> row;
      for (gdx::Value v : tuple) row.push_back(scenario.universe->NameOf(v));
      names.insert(row);
    }
    return names;
  };
  auto expect_answers = [&](const Tuples& expected) {
    if (!outcome.certain.has_value() || outcome.certain->no_solution ||
        certain() != expected) {
      *why = "certain answers differ from the paper's";
      return false;
    }
    return true;
  };
  switch (paper) {
    case PaperCase::kNone:
      return true;
    case PaperCase::kExample22Egd:
      return expect_answers(
          {{"c1", "c1"}, {"c1", "c3"}, {"c3", "c1"}, {"c3", "c3"}});
    case PaperCase::kExample22SameAs:
    case PaperCase::kExample22Plain:
      return expect_answers({{"c1", "c1"}, {"c3", "c3"}});
    case PaperCase::kExample52:
      if (outcome.existence.verdict != gdx::ExistenceVerdict::kNo ||
          outcome.existence.refuted_by_chase || !outcome.pattern.has_value()) {
        *why = "expected NO with a successful adapted chase";
        return false;
      }
      return true;
  }
  return true;
}

}  // namespace

Oracle::Oracle() {
  gdx::EngineOptions options = BenchEngineOptions();
  options.enable_cache = false;
  reference_engine_ = std::make_unique<gdx::ExchangeEngine>(options);
}

void Oracle::AddInput(size_t key, const std::string* text, PaperCase paper) {
  Input& input = inputs_[key];
  input.text = text;
  input.paper = paper;
}

void Oracle::Record(size_t key, const std::string& output) {
  ++inputs_[key].outputs[output];
}

void Oracle::RecordFailure(const std::string& why) {
  ++failed_;
  Fail(why);
}

void Oracle::Fail(const std::string& why) {
  if (failures_.size() < kMaxFailureNotes) failures_.push_back(why);
}

uint64_t Oracle::Finish() {
  for (auto& [key, input] : inputs_) {
    if (input.outputs.empty()) continue;
    uint64_t seen = 0;
    for (const auto& entry : input.outputs) seen += entry.second;
    std::string label = "input " + std::to_string(key) + " [" +
                        PaperCaseName(input.paper) + "]: ";
    if (input.text == nullptr) {
      failed_ += seen;
      Fail(label + "output for an input that was never registered");
      continue;
    }

    gdx::Result<gdx::Scenario> parsed = gdx::ParseScenario(*input.text);
    if (!parsed.ok()) {
      failed_ += seen;
      Fail(label + "reference parse failed: " + parsed.status().message());
      continue;
    }
    gdx::Scenario scenario = std::move(parsed).value();
    gdx::Result<gdx::ExchangeOutcome> solved =
        reference_engine_->Solve(scenario);
    if (!solved.ok()) {
      failed_ += seen;
      Fail(label + "reference solve failed: " + solved.status().message());
      continue;
    }
    const gdx::ExchangeOutcome& outcome = solved.value();
    std::string why;
    if (outcome.solution.has_value() &&
        !WitnessHolds(scenario, *outcome.solution)) {
      why = "witness fails CheckSolution";
    } else {
      PaperCaseHolds(input.paper, scenario, outcome, &why);
    }
    if (!why.empty()) {
      failed_ += seen;
      Fail(label + why);
      continue;
    }
    std::string reference =
        outcome.ToString(*scenario.universe, *scenario.alphabet);
    for (const auto& [output, count] : input.outputs) {
      if (output != reference) {
        failed_ += count;
        Fail(label + "timed output differs from the reference");
      }
    }
  }
  return failed_;
}

bool WitnessHolds(const gdx::Scenario& scenario, const gdx::Graph& witness) {
  gdx::SolutionCheckReport report;
  if (witness.num_nodes() <= kNaiveCheckMaxNodes) {
    gdx::NaiveNreEvaluator eval;
    report = gdx::CheckSolution(scenario.setting, *scenario.instance, witness,
                                eval, *scenario.universe);
  } else {
    gdx::AutomatonNreEvaluator eval;
    report = gdx::CheckSolution(scenario.setting, *scenario.instance, witness,
                                eval, *scenario.universe);
  }
  return report.IsSolution();
}

bool CorruptOutcome(Corruption corruption, gdx::ExchangeOutcome* outcome) {
  switch (corruption) {
    case Corruption::kNone:
      return false;
    case Corruption::kDropAnswer:
      if (!outcome->certain.has_value() || outcome->certain->tuples.empty()) {
        return false;
      }
      outcome->certain->tuples.pop_back();
      return true;
    case Corruption::kDropWitnessEdge: {
      if (!outcome->solution.has_value() ||
          outcome->solution->num_edges() == 0) {
        return false;
      }
      const gdx::Graph& full = *outcome->solution;
      gdx::Graph damaged;
      for (gdx::Value v : full.nodes()) damaged.AddNode(v);
      for (size_t i = 1; i < full.edges().size(); ++i) {
        const gdx::Edge& e = full.edges()[i];
        damaged.AddEdge(e.src, e.label, e.dst);
      }
      outcome->solution = std::move(damaged);
      return true;
    }
  }
  return false;
}

bool CorruptText(Corruption corruption, std::string* text) {
  if (corruption == Corruption::kNone) return false;
  // Certain tuples render as "  (a, b)" after the "certain answers" line;
  // witness edges as "  a -f-> b" after the "graph {" line.
  const char* section =
      corruption == Corruption::kDropAnswer ? "certain answers" : "graph {";
  size_t start = text->find(section);
  if (start == std::string::npos) return false;
  size_t line = text->find('\n', start);
  if (line == std::string::npos || line + 1 >= text->size()) return false;
  size_t end = text->find('\n', line + 1);
  if (end == std::string::npos) return false;
  if (text->compare(line + 1, 2, "  ") != 0) return false;
  text->erase(line + 1, end - line);
  return true;
}

}  // namespace perfbench
