#ifndef VERSO_VIEWS_VIEW_H_
#define VERSO_VIEWS_VIEW_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/analyzer.h"
#include "core/delta.h"
#include "core/object_base.h"
#include "core/trace.h"
#include "query/query.h"
#include "util/hash.h"
#include "util/result.h"

namespace verso {

/// A ground view fact (the key of maintenance's fact sets).
struct ViewFactKey {
  Vid vid;
  MethodId method;
  GroundApp app;

  friend bool operator==(const ViewFactKey& a, const ViewFactKey& b) {
    return a.vid == b.vid && a.method == b.method && a.app == b.app;
  }
};

struct ViewFactKeyHash {
  size_t operator()(const ViewFactKey& k) const {
    size_t seed = k.vid.value;
    HashCombine(seed, k.method.value);
    for (Oid arg : k.app.args) HashCombine(seed, arg.value);
    HashCombine(seed, k.app.result.value);
    return seed;
  }
};

/// Observability counters of one materialized view (cumulative). The
/// IndexStats base counts per-version bound-result lookups: one per
/// candidate version a probe visits, so a free-object probe of a method
/// the view indexes by result visits only the versions holding it.
struct ViewStats : IndexStats {
  uint64_t full_evaluations = 0;   // initial materializations
  uint64_t maintenance_runs = 0;   // commits absorbed incrementally
  uint64_t delta_facts_seen = 0;   // base fact changes consumed
  uint64_t facts_added = 0;        // view facts installed by maintenance
  uint64_t facts_removed = 0;      // view facts retracted by maintenance
  uint64_t overdeleted = 0;        // facts provisionally deleted
  uint64_t rederived = 0;          // overdeleted facts with other proofs
  uint64_t seed_probes = 0;        // delta-seeded partial matches launched
  uint64_t rederive_probes = 0;    // goal-directed head probes launched
};

/// A named materialized view: a derived-method program evaluated once in
/// full over a committed base and thereafter maintained incrementally from
/// each commit's fact-level DeltaLog.
///
/// Every stratum of the program's SCC stratification (AnalyzeQueryProgram)
/// is maintained by delete-and-rederive (DRed; Gupta, Mumick &
/// Subrahmanian, SIGMOD 1993): overdelete every fact with a derivation
/// through a deleted fact (or through an added fact a negated literal
/// read as absent), rederive the ones with surviving alternative proofs
/// via goal-directed head probes, then propagate insertions semi-naively.
/// In a non-recursive stratum the overdeletion cannot cascade, so each
/// overdeleted fact is re-checked once. Each stratum emits its own
/// fact-level delta, which feeds the strata above it, so a commit
/// ripples through the view bottom-up.
class MaterializedView {
 public:
  /// Fully evaluates `program` over `base` (which must not store facts of
  /// any derived method) and returns the maintained view. When `analysis`
  /// is enabled (the default), the static analyzer runs over the program
  /// against `base`'s schema first: blocking diagnostics fail the
  /// creation with rule-level positions (errors always block; warnings
  /// when analysis.warnings_block), and the report stays readable on the
  /// registered view via analysis().
  static Result<std::unique_ptr<MaterializedView>> Create(
      std::string name, QueryProgram program, const ObjectBase& base,
      SymbolTable& symbols, VersionTable& versions,
      const AnalysisOptions& analysis = AnalysisOptions());

  /// Registers the view.* counters every maintenance run adds to, so a
  /// registry lists them (at 0) before the first commit.
  static void RegisterMetrics();

  const std::string& name() const { return name_; }
  /// The maintained result: base plus all derived facts. Identical to a
  /// from-scratch EvaluateQueries over the current committed base.
  const ObjectBase& result() const { return working_; }
  const ViewStats& stats() const { return stats_; }
  const QueryStratification& stratification() const { return stratification_; }

  /// True iff `method` is defined by this view's rules.
  bool DefinesMethod(MethodId method) const {
    return derived_methods_.count(method.value) != 0;
  }

  /// The methods defined by this view's rule heads, sorted.
  std::vector<MethodId> DerivedMethods() const;

  /// Absorbs one committed transaction's fact-level delta. The delta must
  /// describe the transition from the base state the view currently
  /// reflects; facts of derived methods are rejected (a base transaction
  /// must not write view methods). A failure poisons the view: the error
  /// is remembered, every further delta is refused with it, and result()
  /// is stale from that commit on — drop and re-register to recover.
  ///
  /// When `view_delta` is given, the *result-level* fact changes of this
  /// maintenance run — the base transition plus every derived fact the
  /// strata added or removed, in installation order — are written to it.
  /// Replaying these deltas commit by commit on top of a copy of result()
  /// taken before the commits reconstructs result() exactly; this is the
  /// stream view subscriptions deliver.
  ///
  /// A successful run adds its share of stats() to the view.* counters
  /// of MetricsRegistry::Global() and reports it to `trace` (not owned;
  /// nullptr for none) as one OnViewMaintenance event.
  Status ApplyBaseDelta(const DeltaLog& delta, DeltaLog* view_delta = nullptr,
                        TraceSink* trace = nullptr);

  /// Ok while the view is live; the first maintenance error otherwise.
  const Status& health() const { return health_; }

  /// The creation-time static analysis report, or nullptr when analysis
  /// was disabled at Create time.
  const AnalysisReport* analysis() const { return analysis_.get(); }

 private:
  /// A maintenance trigger: a changed fact probed through either the
  /// positive or the negated body occurrences of its method.
  struct Trigger {
    DeltaFact fact;
    bool through_negation;
  };

  MaterializedView(std::string name, QueryProgram program,
                   const ObjectBase& base, SymbolTable& symbols,
                   VersionTable& versions)
      : name_(std::move(name)),
        program_(std::move(program)),
        symbols_(symbols),
        versions_(versions),
        working_(base) {}

  Status MaintainAll(const DeltaLog& delta, DeltaLog* view_delta,
                     TraceSink* trace);

  /// Stratum maintenance. `input` is the commit delta plus every lower
  /// stratum's emitted delta; the stratum's own fact changes are
  /// appended to `out`.
  Status MaintainDRed(const QueryStratum& stratum, const DeltaLog& input,
                      DeltaLog& out);

  /// Methods read by the stratum's rule bodies (positive or negated).
  std::unordered_set<uint32_t> ReadMethods(const QueryStratum& stratum) const;

  /// The matchers of one stratum's rules, shared by every probe of one
  /// maintenance run (view.cc).
  struct StratumProbes;

  /// Derivations gained/lost when `fact` changes, through the
  /// occurrences selected by `trigger.through_negation`: each match's head
  /// fact is appended to `heads`, once per occurrence the match uses the
  /// fact at (callers deduplicate heads by set). Enumerates against the
  /// current working base; callers stage presence/absence of the fact
  /// around the call.
  Status ProbeTrigger(StratumProbes& probes, const Trigger& trigger,
                      std::vector<ViewFactKey>& heads);

  /// True iff `fact` (a view fact of this stratum) has a derivation in the
  /// current working base: goal-directed probe unifying the fact with each
  /// defining rule's head.
  Result<bool> HasDerivation(StratumProbes& probes, const ViewFactKey& fact);

  /// Builds, on the working base, the cross-version result index of
  /// every method `stratum`'s maintenance probes with a free object and
  /// a ground result. Called once the stratum has input facts, so a
  /// stratum no commit reaches never pays for an index.
  void IndexFreeObjectProbes(const QueryStratum& stratum);

  bool InWorking(const ViewFactKey& fact) const {
    return working_.ContainsApp(fact.vid, fact.method, fact.app);
  }

  /// Folds the scratch index-probe counters into stats_ (called once a
  /// maintenance run finishes).
  void FoldIndexStats();

  std::string name_;
  QueryProgram program_;
  QueryStratification stratification_;
  std::shared_ptr<const AnalysisReport> analysis_;
  SymbolTable& symbols_;
  VersionTable& versions_;

  /// Base plus derived facts (the served result).
  ObjectBase working_;
  std::unordered_set<uint32_t> derived_methods_;
  /// Per rule of program_: the methods its maintenance probes with a
  /// free object and a ground result (derived at Create).
  std::vector<std::vector<MethodId>> free_object_probes_;
  ViewStats stats_;
  /// Scratch bound-result probe counters for the current run's
  /// MatchContexts; FoldIndexStats moves them into stats_.
  IndexStats istats_;
  Status health_ = Status::Ok();
};

}  // namespace verso

#endif  // VERSO_VIEWS_VIEW_H_
