#ifndef VERSO_CORE_OBJECT_BASE_H_
#define VERSO_CORE_OBJECT_BASE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/delta.h"
#include "core/id_trie.h"
#include "core/ids.h"
#include "core/term.h"
#include "core/version_table.h"
#include "util/result.h"

namespace verso {

/// Counters for bound-result lookups (ForEachAppWithResult). Filled by
/// the matcher's MatchContext and added into StratumStats, QueryStats,
/// and ViewStats (each of which is an IndexStats), so every layer that
/// probes with a ground result reports how much scanning the probe saved
/// it.
struct IndexStats {
  /// Bound-result lookups launched.
  size_t index_probes = 0;
  /// Probes that enumerated at least one matching fact.
  size_t index_hits = 0;
  /// Facts of the probed method that the probe never visited: the
  /// argument-free facts its binary search skipped (a probe scans the
  /// argument-bearing facts).
  size_t indexed_scan_avoided_facts = 0;

  IndexStats& operator+=(const IndexStats& other) {
    index_probes += other.index_probes;
    index_hits += other.index_hits;
    indexed_scan_avoided_facts += other.indexed_scan_avoided_facts;
    return *this;
  }
};

/// The state of one version: every ground method-application that holds
/// for it, as one sorted run of facts in one heap block. The facts are
/// ordered by (method, args, result), so one method's facts are a
/// contiguous run, membership is a binary search, and states compare
/// with ==. Within a method's run the argument-free facts come first,
/// ordered by result: a bound-result probe binary-searches them and
/// scans only the argument-bearing rest.
///
/// A state is copied as a whole. T_P step 2's "copy v*'s state" copies
/// the block, and so does ObjectBase when it writes a state another base
/// still shares (its StatePtr is the copy-on-write unit).
///
/// Access API (shared by the matcher, T_P seeding/residual re-matching,
/// DRed maintenance, and the query fixpoint):
///   * ForEachApp(method, fn)            — enumerate one method's facts;
///   * ForEachAppWithResult(m, r, s, fn) — only facts with result r;
///   * ContainsApp(method, app)          — membership, binary search.
class VersionState {
 public:
  /// One fact `method@args -> result` of the state. The application is
  /// the base class, so readers (the matcher, ResultSet rows) hold a
  /// plain `const GroundApp&` into the block, and the method fills the
  /// application's tail padding.
  struct Fact : GroundApp {
    MethodId method;

    friend bool operator==(const Fact& a, const Fact& b) {
      return a.method == b.method && static_cast<const GroundApp&>(a) ==
                                         static_cast<const GroundApp&>(b);
    }
    friend bool operator<(const Fact& a, const Fact& b) {
      if (a.method != b.method) return a.method < b.method;
      return static_cast<const GroundApp&>(a) <
             static_cast<const GroundApp&>(b);
    }
  };

  /// A contiguous run of the block: the whole state or one method's
  /// facts, in sorted order.
  class Run {
   public:
    Run() = default;
    Run(const Fact* begin, const Fact* end) : begin_(begin), end_(end) {}
    const Fact* begin() const { return begin_; }
    const Fact* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    const Fact& operator[](size_t i) const { return begin_[i]; }

   private:
    const Fact* begin_ = nullptr;
    const Fact* end_ = nullptr;
  };

  VersionState() = default;
  /// A copy of `other` with room for `room` more facts, so a write that
  /// detaches a shared state allocates its block once.
  VersionState(const VersionState& other, size_t room);

  /// The state holding exactly `facts` (duplicates collapse): the bulk
  /// form of Insert, one sort instead of a sorted insert per fact. The
  /// vector becomes the state's block.
  static VersionState FromFacts(std::vector<Fact> facts);

  /// Returns true if the application was new.
  bool Insert(MethodId method, GroundApp app);
  /// Returns true if the application was present.
  bool Erase(MethodId method, const GroundApp& app);
  bool Contains(MethodId method, const GroundApp& app) const;
  /// Canonical membership name of the access API (same as Contains).
  bool ContainsApp(MethodId method, const GroundApp& app) const {
    return Contains(method, app);
  }
  /// True iff some application of `method` has result `result`.
  bool HoldsResult(MethodId method, Oid result) const;
  /// True iff the state holds some application of `method`.
  bool HasMethod(MethodId method) const { return !Find(method).empty(); }

  /// Enumerates every application of `method` in sorted order, invoking
  /// `fn(const GroundApp&)`; `fn` may return an error to abort.
  template <typename Fn>
  Status ForEachApp(MethodId method, Fn&& fn) const {
    for (const GroundApp& app : Find(method)) {
      VERSO_RETURN_IF_ERROR(fn(app));
    }
    return Status::Ok();
  }

  /// Enumerates only the applications of `method` whose result is
  /// `result` (the bound-result hot path), in sorted order: a binary
  /// search of the method's argument-free facts, then a scan of its
  /// argument-bearing ones. Probe counters accumulate into `stats` when
  /// given, once the enumeration completes.
  template <typename Fn>
  Status ForEachAppWithResult(MethodId method, Oid result, IndexStats* stats,
                              Fn&& fn) const {
    if (stats != nullptr) ++stats->index_probes;
    const Run run = Find(method);
    const Fact* bare_end = nullptr;
    const Fact* hit = FindBare(run, result, &bare_end);
    size_t bare_hits = 0;
    if (hit != nullptr) {
      bare_hits = 1;
      VERSO_RETURN_IF_ERROR(fn(static_cast<const GroundApp&>(*hit)));
    }
    size_t visited = bare_hits;
    for (const Fact* fact = bare_end; fact != run.end(); ++fact) {
      if (!(fact->result == result)) continue;
      ++visited;
      VERSO_RETURN_IF_ERROR(fn(static_cast<const GroundApp&>(*fact)));
    }
    if (stats != nullptr) {
      if (visited != 0) ++stats->index_hits;
      stats->indexed_scan_avoided_facts +=
          static_cast<size_t>(bare_end - run.begin()) - bare_hits;
    }
    return Status::Ok();
  }

  /// The facts of one method (an empty run when it has none).
  Run Find(MethodId method) const;
  /// Every fact, sorted by (method, args, result).
  Run facts() const {
    return Run(facts_.data(), facts_.data() + facts_.size());
  }

  size_t fact_count() const { return facts_.size(); }
  bool empty() const { return facts_.empty(); }

  /// True iff the state carries no information beyond `exists` — such a
  /// version contributes no object to the new object base (Section 5).
  bool OnlyExists(MethodId exists_method) const;

  friend bool operator==(const VersionState& a, const VersionState& b) {
    return a.facts_ == b.facts_;
  }

 private:
  /// The argument-free fact of a method's `run` whose result is
  /// `result`, or nullptr; `bare_end` receives the end of the run's
  /// argument-free prefix. Two binary searches.
  static const Fact* FindBare(Run run, Oid result, const Fact** bare_end);

  std::vector<Fact> facts_;
};

static_assert(sizeof(VersionState::Fact) == sizeof(GroundApp),
              "a fact's method fills its application's tail padding");

/// Calls fn(method, app, added) for every fact held by exactly one of
/// two states (nullptr = the empty state), in sorted (method, app) order,
/// removals and additions interleaved. Two handles on one state cost
/// nothing.
template <typename Fn>
void ForEachFactChange(const VersionState* before, const VersionState* after,
                       Fn&& fn) {
  if (before == after) return;
  const VersionState::Run old_facts =
      before == nullptr ? VersionState::Run() : before->facts();
  const VersionState::Run new_facts =
      after == nullptr ? VersionState::Run() : after->facts();
  const VersionState::Fact* o = old_facts.begin();
  const VersionState::Fact* n = new_facts.begin();
  while (o != old_facts.end() || n != new_facts.end()) {
    if (n == new_facts.end() || (o != old_facts.end() && *o < *n)) {
      fn(o->method, static_cast<const GroundApp&>(*o), /*added=*/false);
      ++o;
    } else if (o == old_facts.end() || *n < *o) {
      fn(n->method, static_cast<const GroundApp&>(*n), /*added=*/true);
      ++n;
    } else {
      ++o;
      ++n;
    }
  }
}

/// An object base: a set of ground version-terms `v.m@args -> r`
/// (paper Section 2.1), held in persistent tries (IdTrie) keyed by the
/// dense Vid / MethodId / Oid values:
///   * version -> its VersionState (the copy unit of T_P step 2);
///   * method -> the set of versions carrying it (drives matching of
///     patterns whose version variable is unbound, filtered by VID
///     shape). Whether a version carries a method is read off its state;
///     the set changes only when a state gains or loses a method;
///   * the set of non-plain versions (depth > 0): the versions a commit
///     folds back onto their objects, and the only ones that can break
///     version linearity;
///   * method -> (result -> the versions holding a fact of the method
///     with that result), only for the methods a caller asked to index
///     (IndexResults). It answers `X.m -> r` with X free and r ground
///     in what the hits cost, not the method's extent. It is derived
///     state: ==, ComputeDelta and the codec ignore it.
/// Per-version (method, result) lookups binary-search the state's block.
///
/// Copying an ObjectBase bumps one root count per trie: no node, state or
/// fact is copied (a snapshot pin of a 4096-object base takes about 1 µs
/// on a 4-vCPU VM, BM_SnapPinUnderCommits). A write path-copies only the
/// trie nodes from the root to the written version's leaf that another
/// base still shares (three 32-way levels cover 32768 versions) and
/// detaches that version's state if shared; a base that owns a node alone
/// writes it in place. Snapshot readers (Connection::Pin), the
/// evaluator's working copy, the query's working copy and each view's
/// result thus share every version and every trie node that neither side
/// wrote. Iteration is in ascending Vid order, and ComputeDelta /
/// operator== skip the subtrees two bases share.
///
/// Two counts over the plain (depth-0) versions let whole-base passes
/// return at once when they have nothing to do: the versions lacking
/// their `exists` fact (SealExistence) and the versions whose only facts
/// are `exists` ones (BuildNewObjectBase drops those objects).
///
/// The ObjectBase does not own the symbol/version tables; it references
/// the VersionTable to answer shape/depth/`v*` queries.
class ObjectBase {
 public:
  using StatePtr = std::shared_ptr<VersionState>;
  /// version -> state, iterated as (Vid, const StatePtr&) pairs.
  using VersionMap = IdTrie<Vid, StatePtr>;
  using VidSet = IdTrie<Vid>;
  /// method -> the versions carrying it.
  using VersionsByMethod = IdTrie<MethodId, VidSet>;
  /// result -> the versions holding a fact of one method with that
  /// result (a version with several such facts is listed once).
  using VidsByResult = IdTrie<Oid, VidSet>;

  ObjectBase(MethodId exists_method, const VersionTable* versions)
      : exists_method_(exists_method), versions_(versions) {}

  /// Copyable by design — and O(1): the copy shares every trie node and
  /// version state with the source until one side writes.
  ObjectBase(const ObjectBase&) = default;
  ObjectBase& operator=(const ObjectBase&) = default;
  ObjectBase(ObjectBase&&) = default;
  ObjectBase& operator=(ObjectBase&&) = default;

  bool Insert(Vid version, MethodId method, GroundApp app);
  bool Erase(Vid version, MethodId method, const GroundApp& app);
  bool Contains(Vid version, MethodId method, const GroundApp& app) const;
  /// Canonical membership name of the access API (same as Contains).
  bool ContainsApp(Vid version, MethodId method, const GroundApp& app) const {
    return Contains(version, method, app);
  }

  /// Enumerates every `version.method@args -> r` fact, in sorted order.
  template <typename Fn>
  Status ForEachApp(Vid version, MethodId method, Fn&& fn) const {
    const VersionState* state = StateOf(version);
    if (state == nullptr) return Status::Ok();
    return state->ForEachApp(method, std::forward<Fn>(fn));
  }

  /// Enumerates only the facts of (version, method) whose result is
  /// `result` (VersionState::ForEachAppWithResult).
  template <typename Fn>
  Status ForEachAppWithResult(Vid version, MethodId method, Oid result,
                              IndexStats* stats, Fn&& fn) const {
    const VersionState* state = StateOf(version);
    if (state == nullptr) return Status::Ok();
    return state->ForEachAppWithResult(method, result, stats,
                                       std::forward<Fn>(fn));
  }

  /// The state of a version, or nullptr if it has no facts.
  const VersionState* StateOf(Vid version) const {
    const StatePtr* state = states_.Find(version);
    return state == nullptr ? nullptr : state->get();
  }

  /// The refcounted handle of a version's state (nullptr if the version
  /// has no facts). Lets callers share the state into another base
  /// (AdoptVersion) or skip diff work when two bases share storage.
  std::shared_ptr<const VersionState> SharedStateOf(Vid version) const;

  /// Swaps in a whole new state for `version` (the evaluator's application
  /// of T_P replaces the states of all relevant VIDs). An empty state
  /// removes the version. Returns true iff anything changed; when `diff`
  /// is given, the fact-level changes (ForEachFactChange of the old and
  /// new states) are appended to it.
  bool ReplaceVersion(Vid version, VersionState state,
                      DeltaLog* diff = nullptr);

  /// ReplaceVersion without the copy: installs `state` as a shared
  /// handle, so this base and the handle's other owners keep sharing the
  /// storage (each side detaches on its first write). A null handle
  /// removes the version. Used by BuildNewObjectBase to move an object's
  /// final-version state onto its plain OID with zero fact copies.
  bool AdoptVersion(Vid version, std::shared_ptr<const VersionState> state,
                    DeltaLog* diff = nullptr);

  /// True iff `version.exists -> root(version)` is in the base — the
  /// paper's notion of the version being materialized/"active".
  bool VersionExists(Vid version) const;

  /// `v*`: the largest subterm of `v` whose exists-fact is in the base
  /// (Section 3). Returns an invalid Vid when no stage of the object is
  /// materialized (a fresh object).
  Vid LatestExistingStage(Vid v) const;

  /// Ensures every depth-0 version in the base carries its exists-fact
  /// (the paper assumes `o.exists -> o` for every object of ob) and
  /// returns the versions it gave one, ascending. Returns at once when no
  /// plain version lacks it — the case for every base a commit built.
  std::vector<Vid> SealExistence();

  /// Versions carrying at least one fact for `method`, ascending, or
  /// nullptr when none does.
  const VidSet* VidsWithMethod(MethodId method) const {
    return by_method_.Find(method);
  }

  /// Indexes `method`'s facts by result across versions: built once from
  /// VidsWithMethod (a no-op when the method is indexed already), then
  /// kept current by every write. Copies taken afterwards share it.
  void IndexResults(MethodId method);

  /// The cross-version result index of `method`, or nullptr when nobody
  /// asked for one on this base (or on the base it was copied from).
  const VidsByResult* ResultIndexOf(MethodId method) const {
    return by_result_.Find(method);
  }

  const VersionMap& versions() const { return states_; }
  /// Every method some version carries, ascending, with its versions.
  const VersionsByMethod& versions_by_method() const { return by_method_; }
  /// The versions of depth > 0, ascending.
  const VidSet& non_plain_versions() const { return non_plain_; }
  /// Plain versions whose only facts are `exists` facts.
  size_t exists_only_plain_count() const { return exists_only_plain_; }

  size_t fact_count() const { return fact_count_; }
  size_t version_count() const { return states_.size(); }

  MethodId exists_method() const { return exists_method_; }
  const VersionTable* version_table() const { return versions_; }

  /// Equal fact sets. One walk over both version tries that skips shared
  /// subtrees and shared states, so comparing a base with a lightly
  /// edited copy costs what the edits touched.
  friend bool operator==(const ObjectBase& a, const ObjectBase& b) {
    if (a.fact_count_ != b.fact_count_) return false;
    return VersionMap::Diff(
        a.states_, b.states_,
        [](Vid, const StatePtr* x, const StatePtr* y) {
          return x != nullptr && y != nullptr && **x == **y;
        });
  }

 private:
  MethodId exists_method_;
  const VersionTable* versions_;

  VersionMap states_;
  VersionsByMethod by_method_;
  VidSet non_plain_;
  /// method -> its VidsByResult, for the indexed methods only.
  IdTrie<MethodId, VidsByResult> by_result_;
  size_t fact_count_ = 0;
  size_t unsealed_plain_ = 0;
  size_t exists_only_plain_ = 0;

  /// Shared tail of ReplaceVersion/AdoptVersion: diffs the existing state
  /// against `incoming` (null = empty) and installs the handle on change.
  bool InstallVersion(Vid version, StatePtr incoming, DeltaLog* diff);

  /// Moves the plain-version counts for `state` of `version` leaving
  /// (entering = false) or entering the base; no-op for non-plain ones.
  void CountPlain(Vid version, const VersionState& state, bool entering);

  void IndexAdd(Vid version, MethodId method);
  void IndexRemove(Vid version, MethodId method);

  /// Lists `version` under `result` in `method`'s result index iff
  /// `holds` (its state keeps a fact of `method` with that result); a
  /// no-op for methods nobody indexed.
  void ListUnderResult(Vid version, MethodId method, Oid result, bool holds);
};

}  // namespace verso

#endif  // VERSO_CORE_OBJECT_BASE_H_
