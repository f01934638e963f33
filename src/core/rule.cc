#include "core/rule.h"

#include <algorithm>

namespace verso {

namespace {

/// Appends the variables occurring in an ObjTerm.
void CollectObjVars(const ObjTerm& term, std::vector<VarId>* out) {
  if (term.is_var) out->push_back(term.var);
}

void CollectAppVars(const AppPattern& app, std::vector<VarId>* out) {
  for (const ObjTerm& arg : app.args) CollectObjVars(arg, out);
  CollectObjVars(app.result, out);
}

bool AllBound(const std::vector<VarId>& vars, const std::vector<bool>& bound) {
  return std::all_of(vars.begin(), vars.end(),
                     [&](VarId v) { return bound[v.value]; });
}

int CountBound(const std::vector<VarId>& vars, const std::vector<bool>& bound) {
  int n = 0;
  for (VarId v : vars) {
    if (bound[v.value]) ++n;
  }
  return n;
}

}  // namespace

std::vector<VarId> LiteralVars(const Rule& rule, const Literal& lit) {
  std::vector<VarId> vars;
  switch (lit.kind) {
    case Literal::Kind::kVersion:
      CollectObjVars(lit.version.version.base, &vars);
      CollectAppVars(lit.version.app, &vars);
      break;
    case Literal::Kind::kUpdate:
      CollectObjVars(lit.update.version.base, &vars);
      if (!lit.update.delete_all) {
        CollectAppVars(lit.update.app, &vars);
        if (lit.update.kind == UpdateKind::kModify) {
          CollectObjVars(lit.update.new_result, &vars);
        }
      }
      break;
    case Literal::Kind::kBuiltin:
      rule.exprs.CollectVars(lit.builtin.lhs, &vars);
      rule.exprs.CollectVars(lit.builtin.rhs, &vars);
      break;
  }
  return vars;
}

std::string Rule::DisplayName() const {
  if (!label.empty()) return label;
  return "rule@" + std::to_string(source_line);
}

Status AnalyzeRule(Rule& rule, const SymbolTable& symbols) {
  const MethodId exists = symbols.exists_method();

  // Head shape checks.
  if (rule.head.delete_all) {
    if (rule.head.kind != UpdateKind::kDelete) {
      return Status::InvalidArgument(rule.DisplayName() +
                                     ": '.*' head requires del[...]");
    }
  } else {
    if (rule.head.app.method == exists) {
      return Status::InvalidArgument(
          rule.DisplayName() +
          ": the system method 'exists' must not occur in a rule head");
    }
  }

  const uint32_t nvars = rule.var_count();
  std::vector<bool> bound(nvars, false);
  std::vector<bool> done(rule.body.size(), false);
  rule.execution_order.clear();
  rule.execution_order.reserve(rule.body.size());

  auto bind_literal = [&](const Literal& lit) {
    for (VarId v : LiteralVars(rule, lit)) bound[v.value] = true;
  };

  // Greedy planning loop: repeatedly pick the "best" literal that can run
  // given the current bound set. Positive version-/update-terms can always
  // run (they enumerate), but we prefer more-bound ones; `X = expr` runs
  // once expr's variables are bound; everything else needs groundness.
  for (size_t step = 0; step < rule.body.size(); ++step) {
    int best = -1;
    int best_score = -1;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (done[i]) continue;
      const Literal& lit = rule.body[i];
      std::vector<VarId> vars = LiteralVars(rule, lit);
      int score = -1;
      if (lit.kind == Literal::Kind::kBuiltin) {
        if (AllBound(vars, bound)) {
          score = 1000;  // run filters as early as possible
        } else if (!lit.negated && lit.builtin.op == CmpOp::kEq) {
          // Binding form: one side is an unbound variable, the other side
          // is fully bound.
          VarId var;
          std::vector<VarId> rhs_vars;
          if (rule.exprs.IsVarRef(lit.builtin.lhs, &var) &&
              !bound[var.value]) {
            rule.exprs.CollectVars(lit.builtin.rhs, &rhs_vars);
            if (AllBound(rhs_vars, bound)) score = 900;
          }
          if (score < 0 && rule.exprs.IsVarRef(lit.builtin.rhs, &var) &&
              !bound[var.value]) {
            std::vector<VarId> lhs_vars;
            rule.exprs.CollectVars(lit.builtin.lhs, &lhs_vars);
            if (AllBound(lhs_vars, bound)) score = 900;
          }
        }
      } else if (lit.negated) {
        // Negated version-/update-terms must be ground when evaluated.
        if (AllBound(vars, bound)) score = 800;
      } else {
        // Positive version-/update-term: always runnable; prefer literals
        // with more bound variables (cheaper enumeration), and a bound
        // version base above all.
        score = CountBound(vars, bound);
        std::vector<VarId> base_vars;
        const VidTerm& vt = lit.kind == Literal::Kind::kVersion
                                ? lit.version.version
                                : lit.update.version;
        CollectObjVars(vt.base, &base_vars);
        if (base_vars.empty() || AllBound(base_vars, bound)) score += 100;
      }
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    if (best < 0 || best_score < 0) {
      // No literal can make progress: some negated literal or built-in can
      // never become ground.
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (done[i]) continue;
        const Literal& lit = rule.body[i];
        if (lit.kind != Literal::Kind::kBuiltin && !lit.negated) continue;
        for (VarId v : LiteralVars(rule, lit)) {
          if (!bound[v.value]) {
            return Status::UnsafeRule(
                rule.DisplayName() + ": variable '" +
                rule.var_names[v.value] +
                "' in a negated literal or built-in is never bound by a "
                "positive version- or update-term");
          }
        }
      }
      return Status::UnsafeRule(rule.DisplayName() +
                                ": body cannot be ordered safely");
    }
    done[static_cast<size_t>(best)] = true;
    rule.execution_order.push_back(static_cast<uint32_t>(best));
    bind_literal(rule.body[static_cast<size_t>(best)]);
  }

  // ---- Semi-naive plan: seed literals, seedability, relevant methods.
  rule.seed_literals.clear();
  rule.relevant_methods.clear();
  rule.rerun_on_any_delta = rule.head.delete_all;
  bool all_body_seedable = true;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    switch (lit.kind) {
      case Literal::Kind::kVersion:
        rule.relevant_methods.push_back(lit.version.app.method);
        if (!lit.negated) {
          rule.seed_literals.push_back(static_cast<uint32_t>(i));
        } else {
          all_body_seedable = false;
        }
        break;
      case Literal::Kind::kUpdate:
        rule.relevant_methods.push_back(lit.update.app.method);
        if (!lit.negated && lit.update.kind == UpdateKind::kInsert) {
          rule.seed_literals.push_back(static_cast<uint32_t>(i));
        } else {
          // del/mod body literals read v*, whose identity shifts when a
          // deeper stage materializes (an exists-fact addition); negated
          // literals react to removals. Either way: full re-match.
          all_body_seedable = false;
          if (lit.update.kind != UpdateKind::kInsert) {
            rule.relevant_methods.push_back(exists);
          }
        }
        break;
      case Literal::Kind::kBuiltin:
        break;  // depends on bindings only
    }
  }
  if (!rule.head.delete_all && rule.head.kind != UpdateKind::kInsert) {
    // Head truth of del/mod requires the old application in v*'s state.
    rule.relevant_methods.push_back(rule.head.app.method);
    rule.relevant_methods.push_back(exists);
  }
  rule.fully_seedable = all_body_seedable && !rule.head.delete_all &&
                        rule.head.kind == UpdateKind::kInsert;
  std::sort(rule.relevant_methods.begin(), rule.relevant_methods.end());
  rule.relevant_methods.erase(
      std::unique(rule.relevant_methods.begin(), rule.relevant_methods.end()),
      rule.relevant_methods.end());

  // All head variables must now be bound.
  std::vector<VarId> head_vars;
  CollectObjVars(rule.head.version.base, &head_vars);
  if (!rule.head.delete_all) {
    CollectAppVars(rule.head.app, &head_vars);
    if (rule.head.kind == UpdateKind::kModify) {
      CollectObjVars(rule.head.new_result, &head_vars);
    }
  }
  for (VarId v : head_vars) {
    if (!bound[v.value]) {
      return Status::UnsafeRule(rule.DisplayName() + ": head variable '" +
                                rule.var_names[v.value] +
                                "' does not occur in a positive body literal");
    }
  }
  return Status::Ok();
}

}  // namespace verso
