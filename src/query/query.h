#ifndef VERSO_QUERY_QUERY_H_
#define VERSO_QUERY_QUERY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/object_base.h"
#include "core/program.h"
#include "core/stratify.h"
#include "util/result.h"

namespace verso {

/// Derived methods — the "derived objects" extension of Section 6.
///
/// A derived-method program is a set of rules
///
///     derive V.m@A.. -> R <- body.
///
/// whose heads are version-terms (no update is performed; the method
/// result is *defined*). Derived methods behave like stratified Datalog
/// IDB predicates over the object base: bodies may read stored and
/// derived methods, negate lower-stratum methods, and use built-ins.
/// Derived methods can be queried but never updated — update-programs may
/// only write base methods, exactly as the paper prescribes.
///
/// Internally a rule is carried as a core Rule whose head is the
/// ins-update of the head version-term; evaluation inserts facts directly
/// into the queried version instead of creating an ins(...) version.
struct QueryProgram {
  std::vector<Rule> rules;

  /// Methods defined by rule heads (the IDB).
  std::vector<MethodId> derived_methods;
};

/// Parses derived-method rules. Syntax mirrors update-programs but each
/// clause head is `derive <version-term-literal>`:
///
///     derive X.reaches -> Y <- X.edge -> Y.
///     derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.
Result<QueryProgram> ParseQueryProgram(std::string_view source,
                                       SymbolTable& symbols);

/// One stratum of a derived-method program: a strongly connected component
/// of the method dependency graph (methods in the role of predicates),
/// emitted in bottom-up dependency order.
struct QueryStratum {
  /// Indices into QueryProgram::rules, in program order.
  std::vector<uint32_t> rules;
  /// Derived methods defined by this stratum's rule heads (sorted).
  std::vector<MethodId> methods;
  /// True iff some rule body reads a method of this same stratum — the
  /// stratum needs fixpoint iteration, and the views subsystem's
  /// overdeletion can cascade inside it.
  bool recursive = false;
};

/// SCC-condensation stratification of a derived-method program, the
/// dependency information incremental view maintenance is planned from.
struct QueryStratification {
  std::vector<QueryStratum> strata;
  /// Derived method -> index into `strata` of its defining stratum.
  std::unordered_map<uint32_t, uint32_t> stratum_of_method;
};

/// The method dependency graph of a derived-method program, the one
/// AnalyzeQueryProgram and the static analyzer both stratify: a node per
/// derived method (in derived_methods order) and an edge head -> body
/// method for every body literal reading a derived method, in rule and
/// literal order. Its SCCs are the program's strata.
struct MethodGraph {
  struct Edge {
    uint32_t head;
    uint32_t body;
    bool negated;
  };
  std::vector<MethodId> method_of_node;
  std::unordered_map<uint32_t, uint32_t> node_of_method;
  std::vector<std::vector<uint32_t>> adjacency;
  std::vector<Edge> edges;
  SccResult scc;
  /// The first rule whose head method is missing from derived_methods (a
  /// caller-assembled program can desynchronize the two), or -1. Such
  /// rules add no edges.
  int unlisted_head_rule = -1;

  /// Recursion through negation: per component holding a negated edge,
  /// the first such edge, in edge order.
  std::vector<Edge> NegationCycles() const;
  /// "derived methods are recursive through negation: a -> b -> a", the
  /// shortest cycle through `edge` (FindCycle).
  std::string CycleMessage(const Edge& edge, const SymbolTable& symbols) const;
};

MethodGraph BuildMethodGraph(const QueryProgram& program);

/// Runs AnalyzeRule over every rule and computes the SCC-based
/// stratification. Fails (kNotStratifiable) when a negation occurs inside
/// a strongly connected component — recursion through negation.
Result<QueryStratification> AnalyzeQueryProgram(QueryProgram& program,
                                                const SymbolTable& symbols);

/// Query evaluation counters; the IndexStats base counts bound-result
/// literals answered through ForEachAppWithResult instead of a full
/// per-method scan.
struct QueryStats : IndexStats {
  uint32_t strata = 0;
  uint32_t rounds = 0;          // total fixpoint rounds across strata
  size_t derived_facts = 0;     // facts added by rules
  size_t delta_joins = 0;       // semi-naive delta-seeded join probes
  size_t seed_pairs_skipped = 0;  // pairs pruned by the frontier index
};

struct QueryOptions {
  /// Use semi-naive (delta-driven) evaluation for recursive strata.
  /// Naive re-derivation is kept for the ablation benchmark.
  bool semi_naive = true;
  uint32_t max_rounds_per_stratum = 1u << 20;
};

/// Resolves a rule's head under a complete body binding to the ground
/// view fact it derives (`added` always true). The single head-resolution
/// path shared by evaluation and the views maintainer's probes.
Result<DeltaFact> ResolveHeadFact(const Rule& rule, const Bindings& bindings,
                                  VersionTable& versions);

/// Evaluates `stratification`'s strata bottom-up into `working`, which
/// holds the base and receives every derived fact. A non-recursive
/// stratum is one full pass per rule. A recursive one iterates to its
/// fixpoint: semi-naively (round 0 full-matches every rule, later rounds
/// probe only the frontier facts, found through their (method, shape)
/// index), or naively when options.semi_naive is off. Rounds are frozen:
/// derivation reads the state the round began with, and head facts
/// install at the round boundary. Counters accumulate into `stats`. The
/// rules must be analyzed (AnalyzeQueryProgram produced
/// `stratification`). The one evaluation loop of EvaluateQueries and of
/// a materialized view's first result.
Status EvaluateStrata(const QueryProgram& program,
                      const QueryStratification& stratification,
                      SymbolTable& symbols, VersionTable& versions,
                      ObjectBase& working, QueryStats& stats,
                      const QueryOptions& options = QueryOptions());

/// Evaluates the derived methods over `base`, returning a new object base
/// containing `base` plus all derived facts. Fails if a derived method
/// already occurs in `base` (derived and stored definitions must not mix)
/// or if the rules are not stratifiable w.r.t. negation.
Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base,
                                   SymbolTable& symbols,
                                   VersionTable& versions,
                                   QueryStats* stats = nullptr,
                                   const QueryOptions& options = QueryOptions());

/// Engine-bound convenience.
Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base, Engine& engine,
                                   QueryStats* stats = nullptr,
                                   const QueryOptions& options = QueryOptions());

}  // namespace verso

#endif  // VERSO_QUERY_QUERY_H_
