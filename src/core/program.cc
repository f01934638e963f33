#include "core/program.h"

#include "core/stratify.h"

namespace verso {

Status Program::Analyze(const SymbolTable& symbols) {
  for (Rule& rule : rules) {
    VERSO_RETURN_IF_ERROR(AnalyzeRule(rule, symbols));
  }
  return Status::Ok();
}

Result<const Stratification*> Program::stratification(
    const RuleGraph* graph) const {
  if (stratification_ == nullptr || stratified_rules_ != rules.size()) {
    VERSO_ASSIGN_OR_RETURN(
        Stratification computed,
        graph != nullptr ? Stratify(*this, *graph) : Stratify(*this));
    stratification_ =
        std::make_shared<const Stratification>(std::move(computed));
    stratified_rules_ = rules.size();
  }
  return stratification_.get();
}

}  // namespace verso
