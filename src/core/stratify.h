#ifndef VERSO_CORE_STRATIFY_H_
#define VERSO_CORE_STRATIFY_H_

#include <cstdint>
#include <vector>

#include "core/program.h"
#include "util/result.h"

namespace verso {

/// A stratification of an update-program per Section 4 of the paper:
/// strata are evaluated in order; within one stratum T_P is iterated to a
/// fixpoint.
struct Stratification {
  /// rule index -> stratum number (0-based, dense).
  std::vector<uint32_t> stratum_of_rule;
  /// stratum number -> rule indices in program order.
  std::vector<std::vector<uint32_t>> strata;

  size_t stratum_count() const { return strata.size(); }
};

/// Strongly connected components of a directed graph given as adjacency
/// lists, by Tarjan's algorithm: iterative, so generated programs of any
/// size cannot exhaust the stack. Roots are tried in node order and edges
/// in list order; a component's id is the order in which it completes,
/// which is reverse topological (a component only after every component
/// it reaches). The one SCC routine of both stratifiers.
struct SccResult {
  std::vector<int> component;  // node -> component id
  int component_count = 0;
};
SccResult FindSccs(const std::vector<std::vector<uint32_t>>& adjacency);

/// A cycle witnessing that the edge (from, to) lies inside one SCC: nodes
/// `from, to, ..., from` (first == last), completed by the shortest path
/// back from `to`, found breadth-first in adjacency-list order (so the
/// list order picks among equally short paths). Empty when the edge does
/// not close a cycle. Renders the stratifiers' cycle diagnostics.
std::vector<uint32_t> FindCycle(
    const std::vector<std::vector<uint32_t>>& adjacency,
    const std::vector<int>& component, uint32_t from, uint32_t to);

/// The rule-dependency graph the stratifier layers, exposed so the static
/// analyzer (src/analysis) can report on the same edges the evaluator
/// orders by. An edge (from, to) constrains stratum(from) + w <=
/// stratum(to): strict edges (w = 1) come from conditions (a), (c), (d);
/// weak edges (w = 0) from condition (b). A strict edge between the same
/// rules supersedes the weak one.
struct RuleGraph {
  size_t rule_count = 0;
  /// Sorted, deduplicated (from, to) pairs; disjoint from weak_edges.
  std::vector<std::pair<uint32_t, uint32_t>> strict_edges;
  std::vector<std::pair<uint32_t, uint32_t>> weak_edges;
  /// FindSccs over the union of both edge lists (each rule's strict
  /// successors, then its weak ones): component id per rule.
  std::vector<int> component;
  int component_count = 0;

  bool SameComponent(uint32_t a, uint32_t b) const {
    return component[a] == component[b];
  }
};

/// Builds the dependency graph of conditions (a)-(d) and its SCC
/// condensation. Pure function of the program's head/body terms.
RuleGraph BuildRuleGraph(const Program& program);

/// FindCycle over the rule graph: renders "r1 -> r2 -> r1" diagnostics.
std::vector<uint32_t> FindRuleCycle(const RuleGraph& graph, uint32_t from,
                                    uint32_t to);

/// Computes a stratification satisfying the paper's conditions:
///   (a) rules whose head version-id-term unifies with a subterm of V are
///       strictly below any rule with head (V) — a copied state is never
///       written again after being copied;
///   (b) writers of a version are at most as high as its positive readers;
///   (c) writers of a version are strictly below its negated readers;
///   (d) rules performing del (resp. mod) on a version are strictly below
///       rules reading the corresponding del(.) (resp. mod(.)) version.
/// Conditions are evaluated with `[V]` replaced by `(V)` and unification
/// restricted to the OID sort (see unify.h).
///
/// Internally: strict/weak edges between rules, SCC condensation, and a
/// longest-path layering; a strict edge inside a cycle makes the program
/// non-stratifiable and yields a diagnostic naming the offending rules.
Result<Stratification> Stratify(const Program& program);
/// The same over `graph`, which must be BuildRuleGraph(program): a caller
/// that already built the graph (the analyzer) does not build it twice.
Result<Stratification> Stratify(const Program& program,
                                const RuleGraph& graph);

}  // namespace verso

#endif  // VERSO_CORE_STRATIFY_H_
