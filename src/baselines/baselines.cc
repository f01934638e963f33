#include "baselines/baselines.h"

#include <unordered_set>

#include "core/match.h"
#include "core/update.h"

namespace verso {

namespace {

/// One in-place round: derive all ground updates whose bodies hold, then
/// apply them two-phase (removals before additions) directly to the
/// version they address. Returns whether anything changed.
Result<bool> InPlaceRound(const Program& program, ObjectBase& base,
                          SymbolTable& symbols, VersionTable& versions,
                          size_t* updates_applied) {
  MatchContext ctx{symbols, versions, base};
  std::unordered_set<GroundUpdate, GroundUpdateHash> t1;
  for (const Rule& rule : program.rules) {
    Status status = ForEachBodyMatch(
        rule, ctx, [&](const Bindings& bindings) -> Status {
          Vid v = ResolveVid(rule.head.version, bindings, versions);
          if (!v.valid()) {
            return Status::Internal("unbound head version");
          }
          if (rule.head.delete_all) {
            const VersionState* state = base.StateOf(v);
            if (state == nullptr) return Status::Ok();
            for (const VersionState::Fact& fact : state->facts()) {
              if (fact.method == base.exists_method()) continue;
              GroundUpdate u;
              u.kind = UpdateKind::kDelete;
              u.version = v;
              u.method = fact.method;
              u.app = fact;
              t1.insert(std::move(u));
            }
            return Status::Ok();
          }
          GroundUpdate u;
          u.kind = rule.head.kind;
          u.version = v;
          u.method = rule.head.app.method;
          u.app = ResolveApp(rule.head.app, bindings);
          if (rule.head.kind == UpdateKind::kModify) {
            u.new_result = rule.head.new_result.is_var
                               ? bindings[rule.head.new_result.var.value]
                               : rule.head.new_result.oid;
          }
          // In-place head truth: the old application must currently hold.
          if (u.kind != UpdateKind::kInsert &&
              !base.ContainsApp(v, u.method, u.app)) {
            return Status::Ok();
          }
          t1.insert(std::move(u));
          return Status::Ok();
        });
    VERSO_RETURN_IF_ERROR(status);
  }

  bool changed = false;
  for (const GroundUpdate& u : t1) {
    if (u.kind == UpdateKind::kDelete || u.kind == UpdateKind::kModify) {
      if (base.Erase(u.version, u.method, u.app)) {
        changed = true;
        ++*updates_applied;
      }
    }
  }
  for (const GroundUpdate& u : t1) {
    if (u.kind == UpdateKind::kInsert) {
      if (base.Insert(u.version, u.method, u.app)) {
        changed = true;
        ++*updates_applied;
      }
    } else if (u.kind == UpdateKind::kModify) {
      GroundApp app = u.app;
      app.result = u.new_result;
      if (base.Insert(u.version, u.method, std::move(app))) {
        changed = true;
        ++*updates_applied;
      }
    }
  }
  return changed;
}

Result<InPlaceOutcome> RunToFixpoint(const Program& program,
                                     ObjectBase base, SymbolTable& symbols,
                                     VersionTable& versions,
                                     const InPlaceOptions& options) {
  InPlaceOutcome outcome{std::move(base), 0, false, 0};
  while (true) {
    if (outcome.rounds >= options.max_rounds) {
      outcome.diverged = true;
      return outcome;
    }
    ++outcome.rounds;
    VERSO_ASSIGN_OR_RETURN(
        bool changed, InPlaceRound(program, outcome.base, symbols, versions,
                                   &outcome.updates_applied));
    if (!changed) return outcome;
  }
}

}  // namespace

Status ValidateInPlaceProgram(Program& program, const SymbolTable& symbols) {
  VERSO_RETURN_IF_ERROR(program.Analyze(symbols));
  for (const Rule& rule : program.rules) {
    if (!rule.head.version.ops.empty()) {
      return Status::InvalidArgument(
          rule.DisplayName() +
          ": baseline semantics has no versions; heads must address plain "
          "objects");
    }
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kUpdate) {
        return Status::InvalidArgument(
            rule.DisplayName() +
            ": update-terms in bodies are not meaningful without versions");
      }
      if (lit.kind == Literal::Kind::kVersion &&
          !lit.version.version.ops.empty()) {
        return Status::InvalidArgument(
            rule.DisplayName() +
            ": version-id-terms are not meaningful in baseline semantics");
      }
    }
  }
  return Status::Ok();
}

Result<InPlaceOutcome> RunNaiveUpdate(Program& program,
                                      const ObjectBase& input,
                                      SymbolTable& symbols,
                                      VersionTable& versions,
                                      const InPlaceOptions& options) {
  VERSO_RETURN_IF_ERROR(ValidateInPlaceProgram(program, symbols));
  ObjectBase working = input;
  working.SealExistence();
  return RunToFixpoint(program, std::move(working), symbols, versions,
                       options);
}

Result<InPlaceOutcome> RunModularUpdate(std::vector<Program>& modules,
                                        const ObjectBase& input,
                                        SymbolTable& symbols,
                                        VersionTable& versions,
                                        const InPlaceOptions& options) {
  ObjectBase working = input;
  working.SealExistence();
  InPlaceOutcome total{std::move(working), 0, false, 0};
  for (Program& module : modules) {
    VERSO_RETURN_IF_ERROR(ValidateInPlaceProgram(module, symbols));
    VERSO_ASSIGN_OR_RETURN(
        InPlaceOutcome outcome,
        RunToFixpoint(module, std::move(total.base), symbols, versions,
                      options));
    total.base = std::move(outcome.base);
    total.rounds += outcome.rounds;
    total.updates_applied += outcome.updates_applied;
    total.diverged |= outcome.diverged;
    if (total.diverged) break;
  }
  return total;
}

}  // namespace verso
