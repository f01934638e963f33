#ifndef VERSO_QUERY_QUERY_H_
#define VERSO_QUERY_QUERY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/object_base.h"
#include "core/program.h"
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
  /// stratum needs fixpoint iteration (and, in the views subsystem,
  /// delete-and-rederive instead of counting maintenance).
  bool recursive = false;
};

/// SCC-condensation stratification of a derived-method program, the
/// dependency information incremental view maintenance is planned from.
struct QueryStratification {
  std::vector<QueryStratum> strata;
  /// Derived method -> index into `strata` of its defining stratum.
  std::unordered_map<uint32_t, uint32_t> stratum_of_method;
};

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
/// path shared by EvaluateQueries, SolveRecursiveStratum, and the views
/// maintainer's sinks.
Result<DeltaFact> ResolveHeadFact(const Rule& rule, const Bindings& bindings,
                                  VersionTable& versions);

/// Semi-naive fixpoint of one recursive stratum over `working`: round 0
/// full-matches every stratum rule, later rounds probe only the frontier
/// facts, found through their (method, shape) index. Rounds are frozen:
/// derivation reads only the state the round began with, and every head
/// fact installs into `working` at the round boundary. Counters
/// accumulate into `stats` when given (rounds, derived_facts,
/// delta_joins, seed_pairs_skipped). Rules must already be analyzed
/// (AnalyzeQueryProgram). Shared by EvaluateQueries and the views
/// subsystem's initial materialization.
Status SolveRecursiveStratum(const QueryProgram& program,
                             const QueryStratum& stratum,
                             SymbolTable& symbols, VersionTable& versions,
                             ObjectBase& working, uint32_t max_rounds,
                             QueryStats* stats);

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
