#ifndef VERSO_ANALYSIS_ANALYZER_H_
#define VERSO_ANALYSIS_ANALYZER_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/program.h"
#include "core/symbol_table.h"
#include "query/query.h"

/// Static rule-program analysis (the prepare-time diagnostics pass).
///
/// The paper's update semantics makes program meaning sensitive to rule
/// interaction: ins/del/mod heads on overlapping (version, method)
/// targets can leave the fixpoint order-dependent — exactly the
/// determinism concern the VLDB '92 stratification conditions exist for.
/// Today a bad program surfaces at runtime (or worse, silently). This
/// pass runs over the PARSED program, before any evaluation, and reports
/// structured diagnostics plus a rule dependency graph with a per-stratum
/// independence verdict: whether the stratum's rules have provably
/// disjoint write sets.
///
/// The analysis is diagnostic-only and behavior-preserving: it never
/// mutates the program it inspects and never changes evaluation results
/// (asserted differentially in tests/analysis). Severity policy is the
/// caller's: errors name programs the evaluator would reject anyway
/// (earlier, and with rule-level position), warnings and notes always
/// leave the program runnable.
namespace verso {

/// Severity policy for the analysis the API layer runs at Statement
/// prepare time and on CREATE VIEW.
struct AnalysisOptions {
  /// Run the pass at prepare/CREATE VIEW. Disabling skips diagnostics
  /// only — unsafe or non-stratifiable programs still fail at execution,
  /// just without positions (the pre-analyzer behavior).
  bool enabled = true;
  /// Treat warnings as blocking: prepare and CREATE VIEW fail on any
  /// warning (errors always block). Default off — warnings never change
  /// what runs.
  bool warnings_block = false;
};

/// Optional schema context: with the committed base's method set, the
/// dead-rule check can also flag body reads of methods that no base fact
/// and no rule head can ever produce. Pure static analysis (prepare
/// time) runs without it.
struct AnalysisContext {
  /// Sorted method ids present in the base schema; empty = unknown.
  std::vector<MethodId> base_methods;
  bool has_base = false;
};

class ObjectBase;

/// The schema context of an object base: every method some fact of
/// `base` carries, sorted.
AnalysisContext ContextFromBase(const ObjectBase& base);

/// The full result of one analysis run: diagnostics plus the dependency
/// graph / independence report, renderable as human text (ToText) and as
/// a stable JSON document (WriteJson, the machine-readable twin — same
/// contract as Connection::DumpMetrics).
struct AnalysisReport {
  enum class ProgramKind : uint8_t { kUpdate, kDerive };

  ProgramKind program_kind = ProgramKind::kUpdate;
  size_t rule_count = 0;
  /// Per-rule display label and 1-based source line (0 = programmatic),
  /// indexed by rule, so diagnostics stay renderable without the program.
  std::vector<std::string> rule_labels;
  std::vector<int> rule_lines;

  /// All findings, ordered by (rule, check) discovery order.
  std::vector<Diagnostic> diagnostics;

  /// Rule dependency graph: edge (from, to) means `to` depends on `from`
  /// (stratum(from) + w <= stratum(to)); strict edges carry w = 1. For
  /// derived programs the edges come from the method dependency graph.
  struct Edge {
    uint32_t from = 0;
    uint32_t to = 0;
    bool strict = false;
  };
  std::vector<Edge> edges;

  /// False when a negation-through-recursion cycle was found; `strata`
  /// is empty then (no evaluation order exists to report).
  bool stratifiable = false;
  /// rule index -> stratum, parallel to the program; empty when not
  /// stratifiable.
  std::vector<uint32_t> stratum_of_rule;

  /// Per-stratum independence verdict: `independent` holds iff every
  /// rule pair of the stratum has provably disjoint write sets. It is a
  /// diagnostic only: evaluation does not consult it.
  struct StratumReport {
    std::vector<uint32_t> rules;  // program order
    bool independent = true;
    /// Pairs (lower index first) that may write the same facts, but
    /// confluently — they break independence without being conflicts.
    std::vector<std::pair<uint32_t, uint32_t>> overlap_pairs;
    /// Pairs flagged by the update-conflict check (also diagnosed).
    std::vector<std::pair<uint32_t, uint32_t>> conflict_pairs;
  };
  std::vector<StratumReport> strata;

  size_t errors() const { return CountSeverity(Severity::kError); }
  size_t warnings() const { return CountSeverity(Severity::kWarning); }
  size_t notes() const { return CountSeverity(Severity::kNote); }
  bool ok() const { return errors() == 0; }

  /// The first blocking diagnostic under the given policy as a Status
  /// (errors always block; warnings when `warnings_block`), or Ok.
  Status FirstBlocking(const AnalysisOptions& options) const;

  /// Human-readable multi-line rendering: summary, diagnostics, and the
  /// per-stratum independence table.
  std::string ToText() const;

  /// The stable JSON document (see README "Static analysis &
  /// diagnostics" for the schema): fixed key order, sorted lists,
  /// byte-identical for equal reports.
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;

 private:
  size_t CountSeverity(Severity severity) const;
};

/// Analyzes an update-program. Checks: safety/range-restriction per rule,
/// stratifiability with the offending cycle path, same-stratum update
/// conflicts over (version, method, kind) write sets, dead rules, and
/// the dependency/independence report. Never fails: malformed programs
/// yield error diagnostics, not a Status.
AnalysisReport AnalyzeUpdateProgram(const Program& program,
                                    const SymbolTable& symbols,
                                    const AnalysisContext& context = {});

/// Analyzes a derived-method (view / ad-hoc query) program: safety per
/// rule, negation-through-recursion with the method cycle path, dead
/// rules, and the method-level dependency graph (strata = method SCCs).
AnalysisReport AnalyzeDerivedProgram(const QueryProgram& program,
                                     const SymbolTable& symbols,
                                     const AnalysisContext& context = {});

}  // namespace verso

#endif  // VERSO_ANALYSIS_ANALYZER_H_
