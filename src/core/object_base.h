#ifndef VERSO_CORE_OBJECT_BASE_H_
#define VERSO_CORE_OBJECT_BASE_H_

#include <algorithm>
#include <atomic>
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

/// Counters for bound-result lookups answered through the result-keyed
/// index (ForEachAppWithResult). Filled by the matcher's MatchContext and
/// added into StratumStats, QueryStats, and ViewStats (each of which is
/// an IndexStats), so every layer that probes with a ground result
/// reports how much scanning the index saved it.
struct IndexStats {
  /// Bound-result lookups launched (indexed or ablation-scan mode).
  size_t index_probes = 0;
  /// Probes that enumerated at least one matching fact.
  size_t index_hits = 0;
  /// Facts a full per-method scan would have visited but the index
  /// skipped (sum over probes of method-fact-count minus facts
  /// enumerated); stays 0 when the index is disabled for ablation.
  size_t indexed_scan_avoided_facts = 0;

  IndexStats& operator+=(const IndexStats& other) {
    index_probes += other.index_probes;
    index_hits += other.index_hits;
    indexed_scan_avoided_facts += other.indexed_scan_avoided_facts;
    return *this;
  }
};

/// The shared storage node of one method's applications: the sorted
/// application vector plus a lazily built result-keyed index
/// (result constant -> ascending offsets into the vector). The paper's
/// hottest literal form is `X.m -> c` with the result already bound;
/// the index answers it without scanning the full vector.
///
/// The index is NOT part of the node's value: it is derived state,
/// rebuilt on demand after any mutation, built through a const handle
/// (a lazy build must never count as a write, or it would detach COW
/// sharing), and ignored by equality. Between commits a node is
/// immutable.
class IndexedApps {
 public:
  /// Flat (result, offset) pairs sorted lexicographically: a lookup is
  /// one binary search over contiguous memory (no per-result bucket
  /// allocations, no hash chasing), and offsets per result come out
  /// ascending — indexed enumeration visits facts in scan order. The
  /// application vector is sorted by (args, result), so equal results
  /// are scattered through it and the index genuinely reorders.
  using ResultIndex = std::vector<std::pair<Oid, uint32_t>>;

  IndexedApps() = default;
  /// Detach copy: clones the applications only. The copy rebuilds its
  /// own index on first demand — the source's (possibly built) index is
  /// derived state, not value.
  IndexedApps(const IndexedApps& other) : apps_(other.apps_) {}
  IndexedApps& operator=(const IndexedApps&) = delete;

  const std::vector<GroundApp>& apps() const { return apps_; }

  /// Write access to the vector; invalidates the index (the caller is
  /// the sole owner by the SharedApps detach discipline).
  std::vector<GroundApp>& MutableApps() {
    InvalidateIndex();
    return apps_;
  }

  /// The result index, built on first use. The build runs under a
  /// process-wide mutex and publishes through an acquire/release flag,
  /// so concurrent first probes of one node would see either "not built"
  /// (and take the lock) or the fully built index. That synchronisation
  /// is kept although no code path shares nodes across threads today.
  /// Mutation paths (InvalidateIndex) have a sole owner by the COW
  /// detach discipline.
  const ResultIndex& result_index() const {
    if (!index_built_.load(std::memory_order_acquire)) BuildIndex();
    return by_result_;
  }

  /// True iff the lazy index has been materialized (tests/benches).
  bool index_built() const {
    return index_built_.load(std::memory_order_acquire);
  }

 private:
  void BuildIndex() const;
  void InvalidateIndex() {
    index_built_.store(false, std::memory_order_relaxed);
    by_result_.clear();
  }

  std::vector<GroundApp> apps_;
  mutable ResultIndex by_result_;
  mutable std::atomic<bool> index_built_{false};
};

/// Refcounted copy-on-write handle to one method's IndexedApps node.
/// Copying a SharedApps shares the node (a pointer bump); Mutable()
/// detaches — clones the application vector — the first time a shared
/// handle is written through. All reads go through the const view, so
/// two VersionStates produced by a T_P step-2 copy keep sharing every
/// method the updates never touch; a lazily built result index rides
/// along with the shared node for free.
///
/// The refcount discipline is single-threaded (like everything below the
/// Connection facade): use_count() == 1 means "sole owner, mutate in
/// place".
class SharedApps {
 public:
  SharedApps() : node_(std::make_shared<IndexedApps>()) {}

  const std::vector<GroundApp>& get() const { return node_->apps(); }
  std::vector<GroundApp>::const_iterator begin() const {
    return get().begin();
  }
  std::vector<GroundApp>::const_iterator end() const { return get().end(); }
  size_t size() const { return get().size(); }
  bool empty() const { return get().empty(); }

  /// Detach-before-write: clones the node iff it is shared, and
  /// invalidates its lazily built index either way.
  std::vector<GroundApp>& Mutable() {
    if (node_.use_count() > 1) {
      node_ = std::make_shared<IndexedApps>(*node_);
    }
    return node_->MutableApps();
  }

  /// Vectors below this size answer bound-result probes by a direct
  /// scan instead of building an index node: a one-compare scan beats
  /// any index, and the hottest invalidation churn (DRed maintenance
  /// mutating singleton edge vectors between probes) never pays a
  /// rebuild.
  static constexpr size_t kResultIndexMinFacts = 2;

  /// Enumerates the applications whose result is exactly `result`, in
  /// scan order, invoking `fn(const GroundApp&)` per fact; `fn` may
  /// return an error to abort. Uses the node's result index (building
  /// it on first probe — not a write); tiny vectors, and all vectors
  /// with the index disabled for ablation, fall back to the full scan
  /// the pre-index code did. `stats`, when given, records the probe.
  template <typename Fn>
  Status ForEachWithResult(Oid result, IndexStats* stats, Fn&& fn) const {
    if (stats != nullptr) ++stats->index_probes;
    size_t visited = 0;
    if (result_index_enabled_ &&
        node_->apps().size() >= kResultIndexMinFacts) {
      const IndexedApps::ResultIndex& index = node_->result_index();
      auto it = std::lower_bound(
          index.begin(), index.end(), result,
          [](const std::pair<Oid, uint32_t>& entry, Oid r) {
            return entry.first < r;
          });
      for (; it != index.end() && it->first == result; ++it) {
        ++visited;
        VERSO_RETURN_IF_ERROR(fn(node_->apps()[it->second]));
      }
      if (stats != nullptr) {
        if (visited != 0) ++stats->index_hits;
        stats->indexed_scan_avoided_facts += node_->apps().size() - visited;
      }
      return Status::Ok();
    }
    for (const GroundApp& app : node_->apps()) {
      if (!(app.result == result)) continue;
      ++visited;
      VERSO_RETURN_IF_ERROR(fn(app));
    }
    if (stats != nullptr && visited != 0) ++stats->index_hits;
    return Status::Ok();
  }

  /// The shared node (tests/benches inspect index_built()).
  const IndexedApps& node() const { return *node_; }

  /// Ablation switch: with the result index disabled,
  /// ForEachAppWithResult degrades to the pre-index full scan (counters
  /// still count probes, but nothing is avoided). Benchmarks and the
  /// index-consistency property test flip this; production code never
  /// should.
  static void EnableResultIndex(bool enabled) {
    result_index_enabled_ = enabled;
  }
  static bool result_index_enabled() { return result_index_enabled_; }

  /// True iff both handles point at the same node — equal for free.
  friend bool SharesStorage(const SharedApps& a, const SharedApps& b) {
    return a.node_ == b.node_;
  }

  /// Equality is application-vector equality only: a state whose lazy
  /// index was materialized still compares equal to (and keeps sharing
  /// storage with) its pre-index copy.
  friend bool operator==(const SharedApps& a, const SharedApps& b) {
    return a.node_ == b.node_ || a.node_->apps() == b.node_->apps();
  }

 private:
  std::shared_ptr<IndexedApps> node_;

  static bool result_index_enabled_;
};

/// The state of one version: all ground method-applications that hold for
/// it. Methods are kept in a flat vector sorted by MethodId (versions
/// carry a handful of methods, so binary search over contiguous storage
/// beats ordered-map node hops); per method the applications are kept
/// sorted, so membership is a binary search and states compare with ==.
///
/// Application vectors are copy-on-write (SharedApps over IndexedApps):
/// copying a VersionState — the paper's T_P step-2 "copy v*'s state" —
/// is O(#methods) pointer bumps, and applying updates to the copy clones
/// only the vectors of the methods actually written.
///
/// Access API (shared by the matcher, T_P seeding/residual re-matching,
/// DRed maintenance, and the query fixpoint):
///   * ForEachApp(method, fn)            — enumerate one method's facts;
///   * ForEachAppWithResult(m, r, s, fn) — only facts with result r,
///                                         answered by the result index;
///   * ContainsApp(method, app)          — membership, binary search.
class VersionState {
 public:
  using MethodEntry = std::pair<MethodId, SharedApps>;
  using MethodList = std::vector<MethodEntry>;

  /// The state holding exactly `facts` (duplicates collapse): the bulk
  /// form of Insert, one sort instead of a sorted insert per fact.
  static VersionState FromFacts(
      std::vector<std::pair<MethodId, GroundApp>> facts);

  /// Returns true if the application was new.
  bool Insert(MethodId method, GroundApp app);
  /// Returns true if the application was present.
  bool Erase(MethodId method, const GroundApp& app);
  bool Contains(MethodId method, const GroundApp& app) const;
  /// Canonical membership name of the access API (same as Contains).
  bool ContainsApp(MethodId method, const GroundApp& app) const {
    return Contains(method, app);
  }
  /// True iff some application of `method` has result `result`: a binary
  /// search among the argument-free applications, a scan of the others
  /// (no index is built).
  bool HoldsResult(MethodId method, Oid result) const;

  /// Enumerates every application of `method` in sorted order, invoking
  /// `fn(const GroundApp&)`; `fn` may return an error to abort.
  template <typename Fn>
  Status ForEachApp(MethodId method, Fn&& fn) const {
    const SharedApps* apps = FindShared(method);
    if (apps == nullptr) return Status::Ok();
    for (const GroundApp& app : apps->get()) {
      VERSO_RETURN_IF_ERROR(fn(app));
    }
    return Status::Ok();
  }

  /// Enumerates only the applications of `method` whose result is
  /// `result` (the bound-result hot path), through the lazily built
  /// result index. Probe counters accumulate into `stats` when given.
  template <typename Fn>
  Status ForEachAppWithResult(MethodId method, Oid result, IndexStats* stats,
                              Fn&& fn) const {
    const SharedApps* apps = FindShared(method);
    if (apps == nullptr) return Status::Ok();
    return apps->ForEachWithResult(result, stats, std::forward<Fn>(fn));
  }

  /// All applications of one method, or nullptr.
  const std::vector<GroundApp>* Find(MethodId method) const;
  /// The COW handle of one method's applications, or nullptr — lets
  /// diff-style consumers skip methods whose storage two states share.
  const SharedApps* FindShared(MethodId method) const;

  size_t fact_count() const { return fact_count_; }
  bool empty() const { return fact_count_ == 0; }

  /// Entries sorted by MethodId (iteration order matches the previous
  /// std::map-based layout).
  const MethodList& methods() const { return methods_; }

  /// True iff the state carries no information beyond `exists` — such a
  /// version contributes no object to the new object base (Section 5).
  bool OnlyExists(MethodId exists_method) const;

  friend bool operator==(const VersionState& a, const VersionState& b) {
    // SharedApps::operator== short-circuits on shared storage and
    // ignores lazily built index state.
    return a.methods_ == b.methods_;
  }

 private:
  MethodList::iterator LowerBound(MethodId method);
  MethodList::const_iterator LowerBound(MethodId method) const;

  MethodList methods_;
  size_t fact_count_ = 0;
};

/// Calls fn(method, app, added) for every fact held by exactly one of
/// two states (nullptr = the empty state): method by method in ascending
/// order, and within a method in sorted application order, removals and
/// additions interleaved. Methods whose application storage both states
/// share are skipped without comparing their contents.
template <typename Fn>
void ForEachFactChange(const VersionState* before, const VersionState* after,
                       Fn&& fn) {
  using Entry = VersionState::MethodEntry;
  const Entry* o = nullptr;
  const Entry* o_end = nullptr;
  const Entry* n = nullptr;
  const Entry* n_end = nullptr;
  if (before != nullptr) {
    o = before->methods().data();
    o_end = o + before->methods().size();
  }
  if (after != nullptr) {
    n = after->methods().data();
    n_end = n + after->methods().size();
  }
  while (o != o_end || n != n_end) {
    if (n == n_end || (o != o_end && o->first < n->first)) {
      for (const GroundApp& app : o->second) fn(o->first, app, /*added=*/false);
      ++o;
      continue;
    }
    if (o == o_end || n->first < o->first) {
      for (const GroundApp& app : n->second) fn(n->first, app, /*added=*/true);
      ++n;
      continue;
    }
    const MethodId method = o->first;
    const SharedApps& old_shared = (o++)->second;
    const SharedApps& new_shared = (n++)->second;
    if (SharesStorage(old_shared, new_shared)) continue;
    const std::vector<GroundApp>& old_apps = old_shared.get();
    const std::vector<GroundApp>& new_apps = new_shared.get();
    size_t oa = 0;
    size_t na = 0;
    while (oa < old_apps.size() || na < new_apps.size()) {
      if (na == new_apps.size() ||
          (oa < old_apps.size() && old_apps[oa] < new_apps[na])) {
        fn(method, old_apps[oa++], /*added=*/false);
      } else if (oa == old_apps.size() || new_apps[na] < old_apps[oa]) {
        fn(method, new_apps[na++], /*added=*/true);
      } else {
        ++oa;
        ++na;
      }
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
/// Per-version (method, result) lookups go through the lazily built
/// index inside each method's IndexedApps node.
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
  /// `result`, through the state's result index.
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
  /// new states) are appended to it. Methods whose application storage
  /// the old and new state share are skipped without comparing contents.
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
