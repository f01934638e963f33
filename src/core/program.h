#ifndef VERSO_CORE_PROGRAM_H_
#define VERSO_CORE_PROGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rule.h"
#include "util/result.h"

namespace verso {

struct RuleGraph;
struct Stratification;

/// An update-program: a set of update-rules evaluated bottom-up against an
/// object base (paper Section 2.1). Analyze() must succeed before the
/// program is handed to the stratifier/evaluator.
struct Program {
  std::vector<Rule> rules;

  /// Runs AnalyzeRule on every rule (safety + head checks + join order).
  Status Analyze(const SymbolTable& symbols);

  /// Convenience: add a rule and return its index.
  size_t Add(Rule rule) {
    rules.push_back(std::move(rule));
    ClearStratification();
    return rules.size() - 1;
  }

  /// Stratify(*this), computed once (by the prepare-time analysis) and
  /// reused by every Engine::Run until the rules change: Add() or a new
  /// rule count drops it; an edit in place must call
  /// ClearStratification(). A failure is not kept. A caller holding
  /// BuildRuleGraph(*this) passes it, so the graph is not built again.
  Result<const Stratification*> stratification(
      const RuleGraph* graph = nullptr) const;
  void ClearStratification() { stratification_.reset(); }

 private:
  mutable std::shared_ptr<const Stratification> stratification_;
  mutable size_t stratified_rules_ = 0;
};

}  // namespace verso

#endif  // VERSO_CORE_PROGRAM_H_
