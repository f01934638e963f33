#include "core/object_base.h"

#include <algorithm>
#include <mutex>

namespace verso {

bool SharedApps::result_index_enabled_ = true;

void IndexedApps::BuildIndex() const {
  // Serializes concurrent first probes of one node (see result_index()).
  // One process-wide mutex, not one per node: builds are rare, nodes are
  // many.
  static std::mutex build_mu;
  std::lock_guard<std::mutex> lock(build_mu);
  if (index_built_.load(std::memory_order_relaxed)) return;
  ResultIndex built;
  built.reserve(apps_.size());
  for (uint32_t i = 0; i < apps_.size(); ++i) {
    built.emplace_back(apps_[i].result, i);
  }
  // Lexicographic: results ascending, offsets ascending per result —
  // lookups are one binary search, enumeration stays in scan order.
  std::sort(built.begin(), built.end());
  by_result_ = std::move(built);
  index_built_.store(true, std::memory_order_release);
}

VersionState::MethodList::iterator VersionState::LowerBound(MethodId method) {
  return std::lower_bound(
      methods_.begin(), methods_.end(), method,
      [](const MethodEntry& e, MethodId m) { return e.first < m; });
}

VersionState::MethodList::const_iterator VersionState::LowerBound(
    MethodId method) const {
  return std::lower_bound(
      methods_.begin(), methods_.end(), method,
      [](const MethodEntry& e, MethodId m) { return e.first < m; });
}

VersionState VersionState::FromFacts(
    std::vector<std::pair<MethodId, GroundApp>> facts) {
  if (!std::is_sorted(facts.begin(), facts.end())) {
    std::sort(facts.begin(), facts.end());
  }
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  VersionState state;
  for (size_t run = 0; run < facts.size();) {
    const MethodId method = facts[run].first;
    size_t end = run + 1;
    while (end < facts.size() && facts[end].first == method) ++end;
    state.methods_.emplace_back(method, SharedApps());
    std::vector<GroundApp>& apps = state.methods_.back().second.Mutable();
    apps.reserve(end - run);
    for (; run < end; ++run) apps.push_back(std::move(facts[run].second));
  }
  state.fact_count_ = facts.size();
  return state;
}

bool VersionState::Insert(MethodId method, GroundApp app) {
  auto mit = LowerBound(method);
  if (mit == methods_.end() || mit->first != method) {
    mit = methods_.emplace(mit, method, SharedApps());
  }
  // Membership check on the const view first: a duplicate insert must not
  // detach shared storage.
  const std::vector<GroundApp>& current = mit->second.get();
  auto it = std::lower_bound(current.begin(), current.end(), app);
  if (it != current.end() && *it == app) return false;
  const size_t pos = static_cast<size_t>(it - current.begin());
  std::vector<GroundApp>& apps = mit->second.Mutable();
  apps.insert(apps.begin() + pos, std::move(app));
  ++fact_count_;
  return true;
}

bool VersionState::Erase(MethodId method, const GroundApp& app) {
  auto mit = LowerBound(method);
  if (mit == methods_.end() || mit->first != method) return false;
  const std::vector<GroundApp>& current = mit->second.get();
  auto it = std::lower_bound(current.begin(), current.end(), app);
  if (it == current.end() || !(*it == app)) return false;
  const size_t pos = static_cast<size_t>(it - current.begin());
  std::vector<GroundApp>& apps = mit->second.Mutable();
  apps.erase(apps.begin() + pos);
  --fact_count_;
  if (apps.empty()) methods_.erase(mit);
  return true;
}

bool VersionState::Contains(MethodId method, const GroundApp& app) const {
  const std::vector<GroundApp>* apps = Find(method);
  if (apps == nullptr) return false;
  auto it = std::lower_bound(apps->begin(), apps->end(), app);
  return it != apps->end() && *it == app;
}

bool VersionState::HoldsResult(MethodId method, Oid result) const {
  const std::vector<GroundApp>* apps = Find(method);
  if (apps == nullptr) return false;
  // Sorted by (args, result): the argument-free facts come first, in
  // result order, so only the facts with arguments need a scan.
  GroundApp bare;
  bare.result = result;
  auto it = std::lower_bound(apps->begin(), apps->end(), bare);
  if (it != apps->end() && *it == bare) return true;
  it = std::partition_point(it, apps->end(), [](const GroundApp& app) {
    return app.args.empty();
  });
  return std::any_of(it, apps->end(), [&](const GroundApp& app) {
    return app.result == result;
  });
}

const std::vector<GroundApp>* VersionState::Find(MethodId method) const {
  const SharedApps* apps = FindShared(method);
  return apps == nullptr ? nullptr : &apps->get();
}

const SharedApps* VersionState::FindShared(MethodId method) const {
  auto mit = LowerBound(method);
  return mit == methods_.end() || mit->first != method ? nullptr
                                                       : &mit->second;
}

bool VersionState::OnlyExists(MethodId exists_method) const {
  if (methods_.empty()) return true;
  return methods_.size() == 1 && methods_.front().first == exists_method;
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
  const std::vector<GroundApp>* apps = state.Find(method);
  if (apps != nullptr && std::binary_search(apps->begin(), apps->end(), app)) {
    return false;
  }
  // The plain-version counts can move only when the state gains an
  // `exists` fact or holds nothing but `exists` facts.
  const bool recount =
      plain && (method == exists_method_ || state.OnlyExists(exists_method_));
  // Own the trie path before testing the state's count: a leaf shared
  // with another base holds the same handle without counting twice.
  StatePtr& slot = states_.Slot(version);
  if (recount) CountPlain(version, *slot, /*entering=*/false);
  if (slot.use_count() > 1) slot = std::make_shared<VersionState>(*slot);
  slot->Insert(method, std::move(app));
  if (recount) CountPlain(version, *slot, /*entering=*/true);
  ++fact_count_;
  if (apps == nullptr) IndexAdd(version, method);
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
  const bool lost_method = slot->FindShared(method) == nullptr;
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

  // One merge walk finds the fact-level changes; under T_P step-2
  // sharing only the methods the updates touched cost work. A version
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
  // lacks: merge the two sorted method lists.
  static const VersionState::MethodList kNone;
  const VersionState::MethodList& old_methods =
      old_state == nullptr ? kNone : old_state->methods();
  const VersionState::MethodList& new_methods =
      incoming == nullptr ? kNone : incoming->methods();
  size_t oi = 0;
  size_t ni = 0;
  while (oi < old_methods.size() || ni < new_methods.size()) {
    if (ni == new_methods.size() ||
        (oi < old_methods.size() &&
         old_methods[oi].first < new_methods[ni].first)) {
      IndexRemove(version, old_methods[oi++].first);
    } else if (oi == old_methods.size() ||
               new_methods[ni].first < old_methods[oi].first) {
      IndexAdd(version, new_methods[ni++].first);
    } else {
      ++oi;
      ++ni;
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
    for (const GroundApp& app : *StateOf(vid)->Find(method)) {
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
