#include "analysis/analyzer.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "analysis/rw_sets.h"
#include "core/object_base.h"
#include "core/pretty.h"
#include "core/stratify.h"
#include "core/unify.h"
#include "obs/metrics.h"

namespace verso {

namespace {

/// Analysis-layer handles into the global registry, bound once.
struct AnalysisMetrics {
  Counter& programs;
  Counter& rules;
  Counter& diagnostics;
  Counter& errors;
  Counter& warnings;
  Counter& notes;
  Counter& conflict_pairs;
  Histogram& analyze_us;

  static AnalysisMetrics& Get() {
    static AnalysisMetrics* metrics =
        new AnalysisMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit AnalysisMetrics(MetricsRegistry& registry)
      : programs(registry.GetCounter("analysis.programs")),
        rules(registry.GetCounter("analysis.rules")),
        diagnostics(registry.GetCounter("analysis.diagnostics")),
        errors(registry.GetCounter("analysis.errors")),
        warnings(registry.GetCounter("analysis.warnings")),
        notes(registry.GetCounter("analysis.notes")),
        conflict_pairs(registry.GetCounter("analysis.conflict_pairs")),
        analyze_us(registry.GetHistogram("analysis.us")) {}
};

/// Collects the report skeleton (labels/lines) and appends diagnostics
/// with their position triple filled in uniformly.
class ReportBuilder {
 public:
  ReportBuilder(AnalysisReport& report, const std::vector<Rule>& rules)
      : report_(report), rules_(rules) {
    report_.rule_count = rules.size();
    report_.rule_labels.reserve(rules.size());
    report_.rule_lines.reserve(rules.size());
    for (const Rule& rule : rules) {
      report_.rule_labels.push_back(rule.DisplayName());
      report_.rule_lines.push_back(rule.source_line);
    }
  }

  void Add(Severity severity, const char* check, int rule, int literal,
           std::string message) {
    Diagnostic diag;
    diag.severity = severity;
    diag.check = check;
    diag.rule = rule;
    if (rule >= 0) {
      diag.rule_label = report_.rule_labels[static_cast<size_t>(rule)];
      diag.line = report_.rule_lines[static_cast<size_t>(rule)];
    }
    diag.literal = literal;
    diag.message = std::move(message);
    report_.diagnostics.push_back(std::move(diag));
  }

  const std::vector<Rule>& rules() const { return rules_; }

 private:
  AnalysisReport& report_;
  const std::vector<Rule>& rules_;
};

/// AnalyzeRule prefixes its messages with the rule's display name; the
/// diagnostic carries that as a structured field, so strip the prefix
/// rather than render it twice.
std::string StripRulePrefix(const std::string& message,
                            const std::string& label) {
  const std::string prefix = label + ": ";
  if (message.rfind(prefix, 0) == 0) return message.substr(prefix.size());
  return message;
}

/// Safety / range-restriction: AnalyzeRule on a copy of each rule (the
/// analyzer must not mutate the program it inspects), every failure one
/// error diagnostic — all rules are checked, not just the first bad one.
void CheckSafety(ReportBuilder& builder, const SymbolTable& symbols) {
  for (size_t r = 0; r < builder.rules().size(); ++r) {
    Rule copy = builder.rules()[r];
    Status status = AnalyzeRule(copy, symbols);
    if (status.ok()) continue;
    builder.Add(Severity::kError, kCheckUnsafeRule, static_cast<int>(r), -1,
                StripRulePrefix(status.message(), copy.DisplayName()));
  }
}

bool IsConstExpr(const ExprPool& pool, ExprId id) {
  return pool.at(id).kind == Expr::Kind::kConst;
}

/// Dead-rule conditions local to one body: a literal occurring both
/// positively and negatively (identical variables), or a variable-free
/// built-in comparison that is already false.
void CheckDeadBodies(ReportBuilder& builder, const SymbolTable& symbols) {
  for (size_t r = 0; r < builder.rules().size(); ++r) {
    const Rule& rule = builder.rules()[r];
    bool dead = false;
    for (size_t i = 0; i < rule.body.size() && !dead; ++i) {
      const Literal& lit = rule.body[i];
      if (lit.kind == Literal::Kind::kBuiltin) {
        if (!IsConstExpr(rule.exprs, lit.builtin.lhs) ||
            !IsConstExpr(rule.exprs, lit.builtin.rhs)) {
          continue;
        }
        bool truth = EvalCmp(lit.builtin.op, rule.exprs.at(lit.builtin.lhs).constant,
                             rule.exprs.at(lit.builtin.rhs).constant, symbols);
        if (lit.negated) truth = !truth;
        if (!truth) {
          builder.Add(Severity::kWarning, kCheckDeadRule, static_cast<int>(r),
                      static_cast<int>(i),
                      "built-in '" + LiteralToString(lit, rule, symbols) +
                          "' compares constants and is always false — the "
                          "rule can never fire");
          dead = true;
        }
        continue;
      }
      if (lit.negated) continue;
      for (size_t j = 0; j < rule.body.size(); ++j) {
        const Literal& other = rule.body[j];
        if (!other.negated || other.kind == Literal::Kind::kBuiltin) continue;
        if (!IdenticalLiteral(lit, other)) continue;
        builder.Add(Severity::kWarning, kCheckDeadRule, static_cast<int>(r),
                    static_cast<int>(j),
                    "body requires both '" +
                        LiteralToString(lit, rule, symbols) + "' and its "
                        "negation — the rule can never fire");
        dead = true;
        break;
      }
    }
  }
}

/// Sorted-unique insert helper for the pair lists.
void AddPair(std::vector<std::pair<uint32_t, uint32_t>>& pairs, uint32_t a,
             uint32_t b) {
  pairs.emplace_back(std::min(a, b), std::max(a, b));
}

void FinishMetrics(const AnalysisReport& report) {
  AnalysisMetrics& metrics = AnalysisMetrics::Get();
  metrics.programs.Add();
  metrics.rules.Add(report.rule_count);
  metrics.diagnostics.Add(report.diagnostics.size());
  metrics.errors.Add(report.errors());
  metrics.warnings.Add(report.warnings());
  metrics.notes.Add(report.notes());
  size_t conflicts = 0;
  for (const AnalysisReport::StratumReport& s : report.strata) {
    conflicts += s.conflict_pairs.size();
  }
  metrics.conflict_pairs.Add(conflicts);
}

}  // namespace

AnalysisContext ContextFromBase(const ObjectBase& base) {
  AnalysisContext context;
  // The method index's keys, already ascending.
  context.base_methods.reserve(base.versions_by_method().size());
  for (const auto& [method, vids] : base.versions_by_method()) {
    (void)vids;
    context.base_methods.push_back(method);
  }
  context.has_base = true;
  return context;
}

AnalysisReport AnalyzeUpdateProgram(const Program& program,
                                    const SymbolTable& symbols,
                                    const AnalysisContext& context) {
  ScopedTimer timer(MetricsRegistry::Global(),
                    AnalysisMetrics::Get().analyze_us);
  AnalysisReport report;
  report.program_kind = AnalysisReport::ProgramKind::kUpdate;
  ReportBuilder builder(report, program.rules);

  CheckSafety(builder, symbols);
  CheckDeadBodies(builder, symbols);

  // Producibility: a positive body update-literal `op[V].m` can only be
  // made true by a head performing that very transition; base facts never
  // satisfy it. With the base schema known, positive version reads and
  // del/mod head methods are checked against what base facts or ins heads
  // can supply.
  const MethodId exists = symbols.exists_method();
  std::set<uint32_t> ins_methods;
  for (const Rule& rule : program.rules) {
    if (!rule.head.delete_all && rule.head.kind == UpdateKind::kInsert) {
      ins_methods.insert(rule.head.app.method.value);
    }
  }
  auto readable = [&](MethodId m) {
    if (m == exists || ins_methods.count(m.value) != 0) return true;
    return std::binary_search(context.base_methods.begin(),
                              context.base_methods.end(), m);
  };
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (lit.negated) continue;
      if (lit.kind == Literal::Kind::kUpdate) {
        bool producible = false;
        for (const Rule& producer : program.rules) {
          if (producer.head.kind != lit.update.kind) continue;
          if (!producer.head.delete_all &&
              producer.head.app.method != lit.update.app.method) {
            continue;
          }
          if (UnifyVidTerms(producer.head.TargetTerm(),
                            lit.update.TargetTerm())) {
            producible = true;
            break;
          }
        }
        if (!producible) {
          builder.Add(
              Severity::kWarning, kCheckDeadRule, static_cast<int>(r),
              static_cast<int>(i),
              "no rule head performs the update '" +
                  LiteralToString(lit, rule, symbols) +
                  "' this literal tests — the rule can never fire");
        }
      } else if (lit.kind == Literal::Kind::kVersion && context.has_base &&
                 !readable(lit.version.app.method)) {
        builder.Add(Severity::kWarning, kCheckDeadRule, static_cast<int>(r),
                    static_cast<int>(i),
                    "method '" +
                        std::string(symbols.MethodName(lit.version.app.method)) +
                        "' occurs in no base fact and no ins head — the "
                        "literal is unsatisfiable");
      }
    }
    if (context.has_base && !rule.head.delete_all &&
        rule.head.kind != UpdateKind::kInsert &&
        !readable(rule.head.app.method)) {
      builder.Add(Severity::kWarning, kCheckDeadRule, static_cast<int>(r), -1,
                  "head " +
                      std::string(UpdateKindName(rule.head.kind)) +
                      "-updates method '" +
                      std::string(symbols.MethodName(rule.head.app.method)) +
                      "', which occurs in no base fact and no ins head — "
                      "the update can never apply");
    }
  }

  // Dependency graph, stratifiability, and the per-stratum report.
  RuleGraph graph = BuildRuleGraph(program);
  for (const auto& [from, to] : graph.strict_edges) {
    report.edges.push_back({from, to, /*strict=*/true});
  }
  for (const auto& [from, to] : graph.weak_edges) {
    report.edges.push_back({from, to, /*strict=*/false});
  }
  std::sort(report.edges.begin(), report.edges.end(),
            [](const AnalysisReport::Edge& a, const AnalysisReport::Edge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.strict > b.strict;
            });

  // One negation-cycle diagnostic per offending SCC, naming the full
  // cycle path — not today's bare two-rule failure.
  std::set<int> reported_components;
  for (const auto& [from, to] : graph.strict_edges) {
    if (!graph.SameComponent(from, to)) continue;
    if (!reported_components.insert(graph.component[from]).second) continue;
    std::string path;
    for (uint32_t rule : FindRuleCycle(graph, from, to)) {
      if (!path.empty()) path += " -> ";
      path += report.rule_labels[rule];
    }
    builder.Add(Severity::kError, kCheckNegationCycle, static_cast<int>(from),
                -1,
                "no stratification satisfies conditions (a)-(d): strict "
                "dependency cycle " +
                    path);
  }
  report.stratifiable = reported_components.empty();

  if (report.stratifiable && !program.rules.empty()) {
    // Kept on the program: Engine::Run reuses it instead of stratifying
    // again on every commit of a prepared statement.
    Result<const Stratification*> strat = program.stratification(&graph);
    if (strat.ok()) {
      report.stratum_of_rule = (*strat)->stratum_of_rule;
      report.strata.resize((*strat)->strata.size());
      for (size_t s = 0; s < (*strat)->strata.size(); ++s) {
        AnalysisReport::StratumReport& stratum = report.strata[s];
        stratum.rules = (*strat)->strata[s];
        // Pairwise write-set classification inside the stratum: conflicts
        // are diagnosed (warning, or note when guarded by a complementary
        // literal), overlaps only break the independence verdict.
        for (size_t i = 0; i < stratum.rules.size(); ++i) {
          for (size_t j = i + 1; j < stratum.rules.size(); ++j) {
            uint32_t ra = stratum.rules[i];
            uint32_t rb = stratum.rules[j];
            const Rule& a = program.rules[ra];
            const Rule& b = program.rules[rb];
            switch (ClassifyWritePair(a, b)) {
              case WriteOverlap::kDisjoint:
                break;
              case WriteOverlap::kOverlap:
                stratum.independent = false;
                AddPair(stratum.overlap_pairs, ra, rb);
                break;
              case WriteOverlap::kConflict: {
                stratum.independent = false;
                AddPair(stratum.conflict_pairs, ra, rb);
                bool guarded = GuardedByComplement(a, b);
                std::string msg =
                    "rules '" + report.rule_labels[ra] + "' and '" +
                    report.rule_labels[rb] + "' share stratum " +
                    std::to_string(s) + " and both update version '" +
                    VidTermToString(a.head.version, a, symbols) + "' (" +
                    std::string(UpdateKindName(a.head.kind)) + " vs " +
                    std::string(UpdateKindName(b.head.kind)) +
                    " on overlapping methods) — the fixpoint may depend "
                    "on rule application order";
                if (guarded) {
                  msg += "; the bodies carry complementary guards, so the "
                         "overlap is likely intentional";
                }
                builder.Add(guarded ? Severity::kNote : Severity::kWarning,
                            kCheckUpdateConflict, static_cast<int>(ra), -1,
                            std::move(msg));
                break;
              }
            }
          }
        }
      }
    }
  }

  FinishMetrics(report);
  return report;
}

AnalysisReport AnalyzeDerivedProgram(const QueryProgram& program,
                                     const SymbolTable& symbols,
                                     const AnalysisContext& context) {
  ScopedTimer timer(MetricsRegistry::Global(),
                    AnalysisMetrics::Get().analyze_us);
  AnalysisReport report;
  report.program_kind = AnalysisReport::ProgramKind::kDerive;
  ReportBuilder builder(report, program.rules);

  CheckSafety(builder, symbols);
  CheckDeadBodies(builder, symbols);

  // Readability: a derived body method must be defined by some rule head,
  // exist in the base schema (when known), or be the system `exists`.
  const MethodId exists = symbols.exists_method();
  auto derived = [&](MethodId m) {
    return std::find(program.derived_methods.begin(),
                     program.derived_methods.end(),
                     m) != program.derived_methods.end();
  };
  if (context.has_base) {
    for (size_t r = 0; r < program.rules.size(); ++r) {
      const Rule& rule = program.rules[r];
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Literal& lit = rule.body[i];
        if (lit.negated || lit.kind != Literal::Kind::kVersion) continue;
        MethodId m = lit.version.app.method;
        if (m == exists || derived(m) ||
            std::binary_search(context.base_methods.begin(),
                               context.base_methods.end(), m)) {
          continue;
        }
        builder.Add(Severity::kWarning, kCheckDeadRule, static_cast<int>(r),
                    static_cast<int>(i),
                    "method '" + std::string(symbols.MethodName(m)) +
                        "' is neither derived by any rule nor present in "
                        "the base — the literal is unsatisfiable");
      }
    }
  }

  // Method-level dependency graph; strata are its SCCs (exactly the
  // grouping AnalyzeQueryProgram evaluates in).
  const MethodGraph graph = BuildMethodGraph(program);

  // Rule-level edges for the report: rule `to` depends on every rule
  // whose head defines a method `to` reads; negation makes it strict.
  std::set<std::tuple<uint32_t, uint32_t, bool>> rule_edges;
  for (size_t to = 0; to < program.rules.size(); ++to) {
    for (const Literal& lit : program.rules[to].body) {
      if (lit.kind != Literal::Kind::kVersion) continue;
      for (size_t from = 0; from < program.rules.size(); ++from) {
        if (program.rules[from].head.app.method != lit.version.app.method) {
          continue;
        }
        rule_edges.emplace(static_cast<uint32_t>(from),
                           static_cast<uint32_t>(to), lit.negated);
      }
    }
  }
  for (const auto& [from, to, strict] : rule_edges) {
    // A strict edge between the same rules supersedes the weak one.
    if (!strict && rule_edges.count({from, to, true}) != 0) continue;
    report.edges.push_back({from, to, strict});
  }

  // Negation inside a method SCC: recursion through negation, reported
  // with the actual method cycle.
  const std::vector<MethodGraph::Edge> cycles = graph.NegationCycles();
  for (const MethodGraph::Edge& edge : cycles) {
    // Attribute the cycle to the first rule whose head defines the
    // negating method, for a rule-level position.
    const MethodId negating = graph.method_of_node[edge.head];
    int at_rule = -1;
    for (size_t r = 0; r < program.rules.size(); ++r) {
      if (program.rules[r].head.app.method == negating) {
        at_rule = static_cast<int>(r);
        break;
      }
    }
    builder.Add(Severity::kError, kCheckNegationCycle, at_rule, -1,
                graph.CycleMessage(edge, symbols));
  }
  report.stratifiable = cycles.empty();

  if (report.stratifiable && !program.rules.empty()) {
    report.strata.resize(static_cast<size_t>(graph.scc.component_count));
    report.stratum_of_rule.resize(program.rules.size(), 0);
    for (size_t r = 0; r < program.rules.size(); ++r) {
      auto it =
          graph.node_of_method.find(program.rules[r].head.app.method.value);
      uint32_t stratum =
          it == graph.node_of_method.end()
              ? 0
              : static_cast<uint32_t>(graph.scc.component[it->second]);
      report.stratum_of_rule[r] = stratum;
      report.strata[stratum].rules.push_back(static_cast<uint32_t>(r));
    }
    // Derive heads only insert — pairs never conflict, but two rules
    // defining the same method may derive the same fact: overlap.
    for (AnalysisReport::StratumReport& stratum : report.strata) {
      for (size_t i = 0; i < stratum.rules.size(); ++i) {
        for (size_t j = i + 1; j < stratum.rules.size(); ++j) {
          uint32_t ra = stratum.rules[i];
          uint32_t rb = stratum.rules[j];
          if (program.rules[ra].head.app.method ==
              program.rules[rb].head.app.method) {
            stratum.independent = false;
            AddPair(stratum.overlap_pairs, ra, rb);
          }
        }
      }
    }
  }

  FinishMetrics(report);
  return report;
}

}  // namespace verso
