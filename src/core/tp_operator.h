#ifndef VERSO_CORE_TP_OPERATOR_H_
#define VERSO_CORE_TP_OPERATOR_H_

#include <map>
#include <unordered_set>
#include <vector>

#include "core/delta.h"
#include "core/match.h"
#include "core/object_base.h"
#include "core/program.h"
#include "core/trace.h"
#include "core/update.h"
#include "util/result.h"

namespace verso {

/// The outcome of one stand-alone application of T_P: the new states of
/// exactly the relevant VIDs (every fact of T_P(I) concerns a relevant
/// version), plus step-level statistics for the benchmarks.
struct TpResult {
  /// target version (α(v)) -> its freshly computed state. std::map keeps
  /// application deterministic.
  std::map<Vid, VersionState> new_states;

  // Statistics per step of the operator.
  size_t t1_updates = 0;     // |T¹_P(I)|
  size_t t2_copied_facts = 0;  // facts copied preparing version states
  size_t t2_copies_from_self = 0;   // active VIDs (copied from themselves)
  size_t t2_copies_from_prior = 0;  // relevant-not-active (copied from v*)
  size_t fresh_objects = 0;  // targets with no existing stage at all
};

/// Derivation/application counters for one fixpoint round; the evaluator
/// folds them into its per-stratum statistics.
struct TpRoundStats {
  size_t body_matches = 0;    // satisfying body bindings enumerated
  size_t fresh_updates = 0;   // updates first derived this round
  size_t seed_probes = 0;     // delta-seeded partial matches launched
  size_t seed_pairs_skipped = 0;  // (literal, fact) pairs pruned by the
                                  // frontier's (method, shape) index
  size_t residual_rules = 0;  // rules re-matched in full in a delta round
  size_t states_changed = 0;  // targets whose state effectively changed
  size_t copied_facts = 0;    // facts copied into new targets (step 2)
  size_t versions_prepared = 0;  // inactive targets given a step-2 state
                                 // (one OnVersionMaterialized each)
  IndexStats index;           // bound-result probes answered by the
                              // result index (full matching, seeded
                              // probes, and residual re-matching alike)
};

/// Persistent per-stratum evaluation state for the delta-driven fixpoint
/// (Section 4): the cumulative T¹ set, its grouping by target version
/// α(v), and the boundary between updates already applied to the base and
/// updates freshly derived this round. Update storage lives in the
/// node-based set, so the grouped pointers stay valid as T¹ grows.
struct TpStratumState {
  std::unordered_set<GroundUpdate, GroundUpdateHash> t1;

  struct TargetUpdates {
    std::vector<const GroundUpdate*> updates;  // derivation order
    size_t applied = 0;  // prefix already applied in earlier rounds
  };
  std::map<Vid, TargetUpdates> by_target;

  /// Targets holding updates beyond their applied prefix, in first-dirtied
  /// order (ApplyRound processes them in Vid order for determinism).
  std::vector<Vid> dirty;
};

/// What ApplyRound materialized, for the evaluator's linearity check.
struct TpApplyResult {
  std::vector<Vid> materialized;
};

/// Implements the immediate consequence operator of Section 3:
///   step 1 — derive T¹: ground updates from rules whose body *and head*
///            are true w.r.t. I (inserts are always head-true; deletes and
///            modifies require `v*.m->r` in I);
///   step 2 — prepare a state for every relevant VID α(v): copy α(v)'s own
///            state if active, else copy v*'s state;
///   step 3 — apply T¹ to the copies (two-phase: all removals from deletes
///            and modify-old-values first, then all insert/modify-new
///            additions — simultaneous updates must not shadow each other).
///
/// The fixpoint entry points split the operator so iterated application is
/// incremental: Derive* merge step 1 into a persistent TpStratumState and
/// ApplyRound installs only the round's fresh updates as fact-level diffs
/// (an active target's own state doubles as the step-2 self-copy, so it is
/// edited in place instead of being copied and swapped every round).
class TpOperator {
 public:
  TpOperator(SymbolTable& symbols, VersionTable& versions)
      : symbols_(symbols), versions_(versions) {}

  /// Round 0 (and every naive-mode round): derive T¹ contributions of all
  /// `rule_indices` by full body matching, merging fresh updates into
  /// `state`.
  Status DeriveFull(const Program& program,
                    const std::vector<uint32_t>& rule_indices,
                    const ObjectBase& base, TpStratumState& state,
                    TpRoundStats& stats, TraceSink* trace);

  /// Semi-naive rounds: derive only contributions reachable from `delta`,
  /// the previous round's fact-level changes. Fully seedable rules are
  /// driven through Matcher::RunFrom from added delta facts; residual
  /// rules are re-matched in full, but only when the delta touches one of
  /// their relevant methods.
  Status DeriveSeeded(const Program& program,
                      const std::vector<uint32_t>& rule_indices,
                      const ObjectBase& base, const DeltaLog& delta,
                      TpStratumState& state, TpRoundStats& stats,
                      TraceSink* trace);

  /// Steps 2 and 3 for the round's fresh updates, installed as diffs into
  /// `base`: active targets are edited in place (fact-level changes
  /// appended to `delta_out`), first-touch targets copy v* (or start from
  /// a fresh exists-fact) exactly once. Older updates whose additions a
  /// fresh removal just erased are re-applied, which reproduces exactly
  /// the states the naive per-round rebuild computes.
  Result<TpApplyResult> ApplyRound(TpStratumState& state, ObjectBase& base,
                                   DeltaLog& delta_out, TpRoundStats& stats,
                                   TraceSink* trace);

  /// Stand-alone application restricted to `rule_indices` on `base`:
  /// derives T¹ from scratch and returns whole new states without
  /// mutating `base` (unit tests and single-step benchmarks).
  Result<TpResult> Apply(const Program& program,
                         const std::vector<uint32_t>& rule_indices,
                         const ObjectBase& base, TraceSink* trace);

 private:
  /// Step-1 sink shared by both derivation modes: resolves the head,
  /// checks head truth, and merges the ground update(s) into `state`.
  Status DeriveFromBindings(const Rule& rule, const Bindings& bindings,
                            const ObjectBase& base, TpStratumState& state,
                            TpRoundStats& stats, TraceSink* trace);

  SymbolTable& symbols_;
  VersionTable& versions_;
};

}  // namespace verso

#endif  // VERSO_CORE_TP_OPERATOR_H_
