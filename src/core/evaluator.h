#ifndef VERSO_CORE_EVALUATOR_H_
#define VERSO_CORE_EVALUATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/object_base.h"
#include "core/program.h"
#include "core/stratify.h"
#include "core/tp_operator.h"
#include "core/trace.h"
#include "util/result.h"

namespace verso {

struct EvalOptions {
  /// Hard bound on T_P applications per stratum; safe rules always
  /// converge, so hitting this indicates a bug or an adversarial program.
  uint32_t max_rounds_per_stratum = 1u << 20;

  /// Run the incremental version-linearity check of Section 5 while
  /// evaluating (the paper recommends a run-time check; turning it off is
  /// exercised by the linearity ablation benchmark).
  bool check_version_linearity = true;

  /// Drive rounds >= 1 of each stratum's fixpoint from the previous
  /// round's fact delta (semi-naive evaluation) instead of re-matching
  /// every rule body in full. Both modes compute identical results and
  /// identical cumulative T¹ sets; naive mode is kept for differential
  /// testing and the ablation benchmarks.
  bool semi_naive = true;
};

/// Per-stratum counters; the IndexStats base counts the stratum's
/// bound-result lookups (full matching, seeded probes, and residual
/// re-matching alike).
struct StratumStats : IndexStats {
  uint32_t rounds = 0;
  /// Distinct ground updates derived over the stratum's fixpoint (the
  /// cumulative |T¹|; identical between naive and semi-naive modes).
  size_t t1_updates = 0;
  size_t states_replaced = 0;
  size_t copied_facts = 0;

  // Delta-evaluation counters (in naive mode every delta round re-matches
  // each rule of the stratum in full, counted as residual runs, and the
  // seed counters stay 0).
  size_t body_matches = 0;    // satisfying body bindings enumerated
  size_t delta_facts = 0;     // fact-level changes installed
  size_t seed_probes = 0;     // delta-seeded partial matches launched
  size_t seed_pairs_skipped = 0;  // pairs pruned by the frontier index
  size_t residual_rule_runs = 0;  // full re-matches in delta rounds
};

struct EvalStats {
  std::vector<StratumStats> strata;
  /// Versions given a T_P step-2 state (one
  /// TraceSink::OnVersionMaterialized each): inactive update targets,
  /// including one whose facts the input base held without its
  /// exists-fact. The registry's eval.versions_materialized adds this.
  size_t versions_materialized = 0;

  uint32_t total_rounds() const {
    uint32_t n = 0;
    for (const StratumStats& s : strata) n += s.rounds;
    return n;
  }
  size_t total_t1_updates() const {
    size_t n = 0;
    for (const StratumStats& s : strata) n += s.t1_updates;
    return n;
  }
  size_t total_body_matches() const {
    size_t n = 0;
    for (const StratumStats& s : strata) n += s.body_matches;
    return n;
  }
  size_t total_index_probes() const {
    size_t n = 0;
    for (const StratumStats& s : strata) n += s.index_probes;
    return n;
  }
  size_t total_index_hits() const {
    size_t n = 0;
    for (const StratumStats& s : strata) n += s.index_hits;
    return n;
  }
  size_t total_indexed_scan_avoided_facts() const {
    size_t n = 0;
    for (const StratumStats& s : strata) n += s.indexed_scan_avoided_facts;
    return n;
  }
};

/// Bottom-up evaluation of an update-program (Section 4): iterate T_P
/// stratum by stratum until each stratum reaches its fixpoint, evolving
/// `base` into result(P). Round 0 of a stratum matches every rule in
/// full; installing a round's fresh updates produces a fact-level delta,
/// and subsequent rounds (in semi-naive mode) derive only from that
/// delta — seeding fully seedable rules through ForEachBodyMatchFrom and
/// re-matching residual rules only when the delta touches a method they
/// depend on.
class Evaluator {
 public:
  Evaluator(SymbolTable& symbols, VersionTable& versions,
            EvalOptions options = EvalOptions(), TraceSink* trace = nullptr)
      : symbols_(symbols),
        versions_(versions),
        options_(options),
        trace_(trace) {}

  /// Evolves `base` (the object base ob, exists-sealed) into result(P),
  /// and adds the finished run's totals to the eval.* and index.*
  /// counters of MetricsRegistry::Global().
  Result<EvalStats> Run(const Program& program,
                        const Stratification& stratification,
                        ObjectBase& base);

  /// Registers the counters Run adds to, so a registry lists them (at 0)
  /// before the first evaluation.
  static void RegisterMetrics();

 private:
  SymbolTable& symbols_;
  VersionTable& versions_;
  EvalOptions options_;
  TraceSink* trace_;

  /// Incremental linearity check: deepest materialized VID per object.
  Status NoteMaterialized(Vid vid,
                          std::unordered_map<Oid, Vid>& deepest) const;
};

}  // namespace verso

#endif  // VERSO_CORE_EVALUATOR_H_
