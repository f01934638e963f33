#include "core/object_base.h"

#include <algorithm>
#include <iterator>

namespace verso {

namespace {

/// Facts ordered by method alone: equal_range over it yields one
/// method's run.
struct ByMethod {
  bool operator()(const VersionState::Fact& fact, MethodId m) const {
    return fact.method < m;
  }
  bool operator()(MethodId m, const VersionState::Fact& fact) const {
    return m < fact.method;
  }
};

/// Position of (method, app) in a sorted fact block.
template <typename It>
It LowerBound(It first, It last, MethodId method, const GroundApp& app) {
  return std::lower_bound(
      first, last, app, [method](const VersionState::Fact& fact,
                                 const GroundApp& key) {
        if (fact.method != method) return fact.method < method;
        return static_cast<const GroundApp&>(fact) < key;
      });
}

}  // namespace

VersionState::VersionState(const VersionState& other, size_t room) {
  facts_.reserve(other.facts_.size() + room);
  facts_ = other.facts_;
}

VersionState VersionState::FromFacts(std::vector<Fact> facts) {
  if (!std::is_sorted(facts.begin(), facts.end())) {
    std::sort(facts.begin(), facts.end());
  }
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  VersionState state;
  state.facts_ = std::move(facts);
  return state;
}

bool VersionState::Insert(MethodId method, GroundApp app) {
  auto it = LowerBound(facts_.begin(), facts_.end(), method, app);
  if (it != facts_.end() && it->method == method &&
      static_cast<const GroundApp&>(*it) == app) {
    return false;
  }
  Fact fact{std::move(app), method};
  if (facts_.size() < facts_.capacity()) {
    facts_.insert(it, std::move(fact));
    return true;
  }
  // A full block grows by half (at least one fact), so a state built one
  // fact at a time ends close to its size: 1, 2, 3, 4, 6, 9, ... facts.
  const size_t size = facts_.size();
  std::vector<Fact> grown;
  grown.reserve(size + std::max<size_t>(1, size / 2));
  grown.insert(grown.end(), std::make_move_iterator(facts_.begin()),
               std::make_move_iterator(it));
  grown.push_back(std::move(fact));
  grown.insert(grown.end(), std::make_move_iterator(it),
               std::make_move_iterator(facts_.end()));
  facts_ = std::move(grown);
  return true;
}

bool VersionState::Erase(MethodId method, const GroundApp& app) {
  auto it = LowerBound(facts_.begin(), facts_.end(), method, app);
  if (it == facts_.end() || it->method != method ||
      !(static_cast<const GroundApp&>(*it) == app)) {
    return false;
  }
  facts_.erase(it);
  return true;
}

bool VersionState::Contains(MethodId method, const GroundApp& app) const {
  auto it = LowerBound(facts_.begin(), facts_.end(), method, app);
  return it != facts_.end() && it->method == method &&
         static_cast<const GroundApp&>(*it) == app;
}

const VersionState::Fact* VersionState::FindBare(Run run, Oid result,
                                                 const Fact** bare_end) {
  // An empty argument list sorts first, so the argument-free facts are
  // the run's prefix, ordered by result.
  *bare_end = std::partition_point(
      run.begin(), run.end(),
      [](const Fact& fact) { return fact.args.empty(); });
  const Fact* hit = std::lower_bound(
      run.begin(), *bare_end, result,
      [](const Fact& fact, Oid r) { return fact.result < r; });
  return hit != *bare_end && hit->result == result ? hit : nullptr;
}

bool VersionState::HoldsResult(MethodId method, Oid result) const {
  const Run run = Find(method);
  const Fact* bare_end = nullptr;
  if (FindBare(run, result, &bare_end) != nullptr) return true;
  return std::any_of(bare_end, run.end(), [&](const Fact& fact) {
    return fact.result == result;
  });
}

VersionState::Run VersionState::Find(MethodId method) const {
  const Fact* first = facts_.data();
  const Fact* last = first + facts_.size();
  auto [lo, hi] = std::equal_range(first, last, method, ByMethod());
  return Run(lo, hi);
}

bool VersionState::OnlyExists(MethodId exists_method) const {
  return facts_.empty() || (facts_.front().method == exists_method &&
                            facts_.back().method == exists_method);
}

bool ObjectBase::Insert(Vid version, MethodId method, GroundApp app) {
  // A no-op when the fact is already there: the version is listed then.
  ListUnderResult(version, method, app.result, /*holds=*/true);
  const bool plain = versions_->depth(version) == 0;
  const StatePtr* current = states_.Find(version);
  if (current == nullptr) {
    if (!plain) non_plain_.Insert(version);
    StatePtr& slot = states_.Slot(version);
    slot = std::make_shared<VersionState>();
    slot->Insert(method, std::move(app));
    CountPlain(version, *slot, /*entering=*/true);
    ++fact_count_;
    IndexAdd(version, method);
    return true;
  }
  // Membership on the read path first: a duplicate insert must neither
  // path-copy the trie nor detach a shared state.
  const VersionState& state = **current;
  if (state.Contains(method, app)) return false;
  const bool new_method = !state.HasMethod(method);
  // The plain-version counts can move only when the state gains an
  // `exists` fact or holds nothing but `exists` facts.
  const bool recount =
      plain && (method == exists_method_ || state.OnlyExists(exists_method_));
  // Own the trie path before testing the state's count: a leaf shared
  // with another base holds the same handle without counting twice.
  StatePtr& slot = states_.Slot(version);
  if (recount) CountPlain(version, *slot, /*entering=*/false);
  if (slot.use_count() > 1) {
    slot = std::make_shared<VersionState>(*slot, /*room=*/1);
  }
  slot->Insert(method, std::move(app));
  if (recount) CountPlain(version, *slot, /*entering=*/true);
  ++fact_count_;
  if (new_method) IndexAdd(version, method);
  return true;
}

bool ObjectBase::Erase(Vid version, MethodId method, const GroundApp& app) {
  const StatePtr* current = states_.Find(version);
  if (current == nullptr || !(*current)->Contains(method, app)) return false;
  StatePtr& slot = states_.Slot(version);
  CountPlain(version, *slot, /*entering=*/false);
  if (slot.use_count() > 1) slot = std::make_shared<VersionState>(*slot);
  slot->Erase(method, app);
  --fact_count_;
  const bool lost_method = !slot->HasMethod(method);
  // Args-bearing methods can keep another fact with the same result.
  if (ResultIndexOf(method) != nullptr) {
    ListUnderResult(version, method, app.result,
                    slot->HoldsResult(method, app.result));
  }
  if (slot->empty()) {
    states_.Erase(version);  // `slot` dangles from here on
    if (versions_->depth(version) != 0) non_plain_.Erase(version);
  } else {
    CountPlain(version, *slot, /*entering=*/true);
  }
  if (lost_method) IndexRemove(version, method);
  return true;
}

bool ObjectBase::Contains(Vid version, MethodId method,
                          const GroundApp& app) const {
  const VersionState* state = StateOf(version);
  return state != nullptr && state->Contains(method, app);
}

std::shared_ptr<const VersionState> ObjectBase::SharedStateOf(
    Vid version) const {
  const StatePtr* state = states_.Find(version);
  return state == nullptr ? nullptr : *state;
}

bool ObjectBase::ReplaceVersion(Vid version, VersionState state,
                                DeltaLog* diff) {
  return InstallVersion(
      version, std::make_shared<VersionState>(std::move(state)), diff);
}

bool ObjectBase::AdoptVersion(Vid version,
                              std::shared_ptr<const VersionState> state,
                              DeltaLog* diff) {
  // Dropping const is safe under the COW discipline: every mutator
  // detaches while the handle is shared, and once this base is the sole
  // owner the state is genuinely its to write.
  return InstallVersion(
      version, std::const_pointer_cast<VersionState>(std::move(state)), diff);
}

bool ObjectBase::InstallVersion(Vid version, StatePtr incoming,
                                DeltaLog* diff) {
  if (incoming != nullptr && incoming->empty()) incoming = nullptr;
  const StatePtr* slot = states_.Find(version);
  const VersionState* old_state = slot == nullptr ? nullptr : slot->get();
  if (old_state == incoming.get()) return false;  // same handle (or none)

  // One merge walk of the two blocks finds the fact-level changes. A version
  // new to a base with no result index needs no walk: every fact of
  // `incoming` (non-empty here) is an addition nobody lists.
  bool changed = old_state == nullptr && diff == nullptr &&
                 by_result_.empty();
  if (!changed) {
    ForEachFactChange(
        old_state, incoming.get(),
        [&](MethodId method, const GroundApp& app, bool added) {
          changed = true;
          if (diff != nullptr) diff->push_back({version, method, app, added});
          // Judged on the incoming state, so a removal and an addition
          // with one result leave it listed.
          if (ResultIndexOf(method) != nullptr) {
            ListUnderResult(
                version, method, app.result,
                incoming != nullptr &&
                    incoming->HoldsResult(method, app.result));
          }
        });
  }
  if (!changed) return false;

  // The method sets change only where one state has a method the other
  // lacks: merge the two blocks method run by method run.
  using Fact = VersionState::Fact;
  const VersionState::Run old_facts =
      old_state == nullptr ? VersionState::Run() : old_state->facts();
  const VersionState::Run new_facts =
      incoming == nullptr ? VersionState::Run() : incoming->facts();
  auto skip_run = [](const Fact*& at, const Fact* end) {
    const MethodId method = at->method;
    while (at != end && at->method == method) ++at;
  };
  const Fact* o = old_facts.begin();
  const Fact* n = new_facts.begin();
  while (o != old_facts.end() || n != new_facts.end()) {
    if (n == new_facts.end() ||
        (o != old_facts.end() && o->method < n->method)) {
      IndexRemove(version, o->method);
      skip_run(o, old_facts.end());
    } else if (o == old_facts.end() || n->method < o->method) {
      IndexAdd(version, n->method);
      skip_run(n, new_facts.end());
    } else {
      skip_run(o, old_facts.end());
      skip_run(n, new_facts.end());
    }
  }

  const bool plain = versions_->depth(version) == 0;
  if (old_state != nullptr) {
    fact_count_ -= old_state->fact_count();
    CountPlain(version, *old_state, /*entering=*/false);
  }
  if (incoming == nullptr) {
    states_.Erase(version);
    if (!plain) non_plain_.Erase(version);
    return true;
  }
  fact_count_ += incoming->fact_count();
  CountPlain(version, *incoming, /*entering=*/true);
  if (old_state == nullptr && !plain) non_plain_.Insert(version);
  states_.Slot(version) = std::move(incoming);
  return true;
}

bool ObjectBase::VersionExists(Vid version) const {
  GroundApp app;
  app.result = versions_->root(version);
  return Contains(version, exists_method_, app);
}

Vid ObjectBase::LatestExistingStage(Vid v) const {
  Vid cur = v;
  while (true) {
    if (VersionExists(cur)) return cur;
    if (versions_->depth(cur) == 0) return Vid();
    cur = versions_->parent(cur);
  }
}

std::vector<Vid> ObjectBase::SealExistence() {
  std::vector<Vid> roots;
  if (unsealed_plain_ == 0) return roots;
  for (const auto& [vid, state] : states_) {
    if (versions_->depth(vid) == 0 && !VersionExists(vid)) {
      roots.push_back(vid);
    }
  }
  for (Vid vid : roots) {
    GroundApp app;
    app.result = versions_->root(vid);
    Insert(vid, exists_method_, std::move(app));
  }
  return roots;
}

void ObjectBase::CountPlain(Vid version, const VersionState& state,
                            bool entering) {
  if (versions_->depth(version) != 0) return;
  GroundApp exists;
  exists.result = versions_->root(version);
  const size_t unsealed = state.Contains(exists_method_, exists) ? 0 : 1;
  const size_t exists_only = state.OnlyExists(exists_method_) ? 1 : 0;
  if (entering) {
    unsealed_plain_ += unsealed;
    exists_only_plain_ += exists_only;
  } else {
    unsealed_plain_ -= unsealed;
    exists_only_plain_ -= exists_only;
  }
}

void ObjectBase::IndexAdd(Vid version, MethodId method) {
  by_method_.Slot(method).Insert(version);
}

void ObjectBase::IndexRemove(Vid version, MethodId method) {
  VidSet& vids = by_method_.Slot(method);
  vids.Erase(version);
  if (vids.empty()) by_method_.Erase(method);
}

void ObjectBase::IndexResults(MethodId method) {
  if (ResultIndexOf(method) != nullptr) return;
  VidsByResult& index = by_result_.Slot(method);
  const VidSet* vids = VidsWithMethod(method);
  if (vids == nullptr) return;
  for (Vid vid : *vids) {
    for (const GroundApp& app : StateOf(vid)->Find(method)) {
      index.Slot(app.result).Insert(vid);
    }
  }
}

void ObjectBase::ListUnderResult(Vid version, MethodId method, Oid result,
                                 bool holds) {
  const VidsByResult* index = ResultIndexOf(method);
  if (index == nullptr) return;
  // Read first: a write that changes nothing must not path-copy.
  const VidSet* listed = index->Find(result);
  if (holds == (listed != nullptr && listed->Contains(version))) return;
  VidsByResult& owned = by_result_.Slot(method);
  VidSet& vids = owned.Slot(result);
  if (holds) {
    vids.Insert(version);
    return;
  }
  vids.Erase(version);
  if (vids.empty()) owned.Erase(result);
}

}  // namespace verso
