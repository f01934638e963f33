#include "core/pretty.h"

#include <algorithm>

namespace verso {

namespace {

std::string ExprToString(const ExprPool& pool, ExprId id, const Rule& rule,
                         const SymbolTable& symbols, int parent_prec) {
  const Expr& node = pool.at(id);
  switch (node.kind) {
    case Expr::Kind::kConst:
      return symbols.OidToString(node.constant);
    case Expr::Kind::kVar:
      return rule.var_names[node.var.value];
    case Expr::Kind::kNeg: {
      std::string out = "-" + ExprToString(pool, node.lhs, rule, symbols, 3);
      return parent_prec > 2 ? "(" + out + ")" : out;
    }
    default: {
      int prec =
          (node.kind == Expr::Kind::kAdd || node.kind == Expr::Kind::kSub)
              ? 1
              : 2;
      const char* op = node.kind == Expr::Kind::kAdd   ? " + "
                       : node.kind == Expr::Kind::kSub ? " - "
                       : node.kind == Expr::Kind::kMul ? " * "
                                                       : " / ";
      std::string out = ExprToString(pool, node.lhs, rule, symbols, prec) +
                        op +
                        ExprToString(pool, node.rhs, rule, symbols, prec + 1);
      return prec < parent_prec ? "(" + out + ")" : out;
    }
  }
}

std::string AppPatternToString(const AppPattern& app, const Rule& rule,
                               const SymbolTable& symbols) {
  std::string out(symbols.MethodName(app.method));
  if (!app.args.empty()) {
    out += '@';
    for (size_t i = 0; i < app.args.size(); ++i) {
      if (i > 0) out += ',';
      out += ObjTermToString(app.args[i], rule, symbols);
    }
  }
  out += " -> ";
  out += ObjTermToString(app.result, rule, symbols);
  return out;
}

}  // namespace

std::string ObjTermToString(const ObjTerm& term, const Rule& rule,
                            const SymbolTable& symbols) {
  if (term.is_var) return rule.var_names[term.var.value];
  return symbols.OidToString(term.oid);
}

std::string VidTermToString(const VidTerm& term, const Rule& rule,
                            const SymbolTable& symbols) {
  std::string out;
  for (UpdateKind op : term.ops) {
    out += UpdateKindName(op);
    out += '(';
  }
  out += ObjTermToString(term.base, rule, symbols);
  out.append(term.ops.size(), ')');
  return out;
}

std::string LiteralToString(const Literal& literal, const Rule& rule,
                            const SymbolTable& symbols) {
  std::string out;
  if (literal.negated) out += "not ";
  switch (literal.kind) {
    case Literal::Kind::kVersion:
      out += VidTermToString(literal.version.version, rule, symbols);
      out += '.';
      out += AppPatternToString(literal.version.app, rule, symbols);
      break;
    case Literal::Kind::kUpdate: {
      const UpdateAtom& u = literal.update;
      out += UpdateKindName(u.kind);
      out += '[';
      out += VidTermToString(u.version, rule, symbols);
      out += "].";
      if (u.delete_all) {
        out += '*';
        break;
      }
      if (u.kind == UpdateKind::kModify) {
        out += std::string(symbols.MethodName(u.app.method));
        if (!u.app.args.empty()) {
          out += '@';
          for (size_t i = 0; i < u.app.args.size(); ++i) {
            if (i > 0) out += ',';
            out += ObjTermToString(u.app.args[i], rule, symbols);
          }
        }
        out += " -> (";
        out += ObjTermToString(u.app.result, rule, symbols);
        out += ", ";
        out += ObjTermToString(u.new_result, rule, symbols);
        out += ')';
      } else {
        out += AppPatternToString(u.app, rule, symbols);
      }
      break;
    }
    case Literal::Kind::kBuiltin:
      out += ExprToString(rule.exprs, literal.builtin.lhs, rule, symbols, 0);
      out += ' ';
      out += CmpOpName(literal.builtin.op);
      out += ' ';
      out += ExprToString(rule.exprs, literal.builtin.rhs, rule, symbols, 0);
      break;
  }
  return out;
}

std::string RuleToString(const Rule& rule, const SymbolTable& symbols) {
  Literal head_literal = Literal::Update(rule.head);
  std::string out;
  if (!rule.label.empty()) {
    out += rule.label;
    out += ": ";
  }
  out += LiteralToString(head_literal, rule, symbols);
  if (!rule.body.empty()) {
    out += " <- ";
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += ", ";
      out += LiteralToString(rule.body[i], rule, symbols);
    }
  }
  out += '.';
  return out;
}

std::string ProgramToString(const Program& program,
                            const SymbolTable& symbols) {
  std::string out;
  for (const Rule& rule : program.rules) {
    out += RuleToString(rule, symbols);
    out += '\n';
  }
  return out;
}

std::string FactToString(Vid version, MethodId method, const GroundApp& app,
                         const SymbolTable& symbols,
                         const VersionTable& versions) {
  std::string out = versions.ToString(version, symbols);
  out += '.';
  out += symbols.MethodName(method);
  if (!app.args.empty()) {
    out += '@';
    for (size_t i = 0; i < app.args.size(); ++i) {
      if (i > 0) out += ',';
      out += symbols.OidToString(app.args[i]);
    }
  }
  out += " -> ";
  out += symbols.OidToString(app.result);
  out += '.';
  return out;
}

std::string GroundUpdateToString(const GroundUpdate& update,
                                 const SymbolTable& symbols,
                                 const VersionTable& versions) {
  std::string out(UpdateKindName(update.kind));
  out += '[';
  out += versions.ToString(update.version, symbols);
  out += "].";
  out += symbols.MethodName(update.method);
  if (!update.app.args.empty()) {
    out += '@';
    for (size_t i = 0; i < update.app.args.size(); ++i) {
      if (i > 0) out += ',';
      out += symbols.OidToString(update.app.args[i]);
    }
  }
  out += " -> ";
  if (update.kind == UpdateKind::kModify) {
    out += '(';
    out += symbols.OidToString(update.app.result);
    out += ", ";
    out += symbols.OidToString(update.new_result);
    out += ')';
  } else {
    out += symbols.OidToString(update.app.result);
  }
  return out;
}

std::string ObjectBaseToString(const ObjectBase& base,
                               const SymbolTable& symbols,
                               const VersionTable& versions) {
  std::vector<std::string> lines;
  lines.reserve(base.fact_count());
  for (const auto& [vid, state] : base.versions()) {
    for (const VersionState::Fact& fact : state->facts()) {
      lines.push_back(FactToString(vid, fact.method, fact, symbols, versions));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string StratificationToString(const Stratification& strat,
                                   const Program& program) {
  std::string out;
  for (size_t s = 0; s < strat.strata.size(); ++s) {
    out += "stratum " + std::to_string(s) + ":";
    for (uint32_t rule_index : strat.strata[s]) {
      out += ' ';
      out += program.rules[rule_index].DisplayName();
    }
    out += '\n';
  }
  return out;
}

}  // namespace verso
