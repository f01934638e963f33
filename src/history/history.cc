#include "history/history.h"

#include <algorithm>
#include <map>

namespace verso {

namespace {

/// Diffs two stage states into the added/removed/modified buckets.
void DiffStates(const VersionState* before, const VersionState& after,
                HistoryStage& stage) {
  // Collect removals first; pair them up with additions on the same
  // (method, args) to classify modifies.
  std::vector<std::pair<MethodId, GroundApp>> raw_added;
  std::vector<std::pair<MethodId, GroundApp>> raw_removed;
  ForEachFactChange(before, &after,
                    [&](MethodId method, const GroundApp& app, bool added) {
                      (added ? raw_added : raw_removed)
                          .emplace_back(method, app);
                    });
  // Pair one removed with one added per (method, args): a modify.
  std::vector<bool> added_used(raw_added.size(), false);
  for (const auto& [method, removed_app] : raw_removed) {
    bool paired = false;
    for (size_t i = 0; i < raw_added.size(); ++i) {
      if (added_used[i]) continue;
      if (raw_added[i].first != method) continue;
      if (raw_added[i].second.args != removed_app.args) continue;
      ModifiedApp mod;
      mod.method = method;
      mod.args = removed_app.args;
      mod.old_result = removed_app.result;
      mod.new_result = raw_added[i].second.result;
      stage.modified.push_back(std::move(mod));
      added_used[i] = true;
      paired = true;
      break;
    }
    if (!paired) stage.removed.emplace_back(method, removed_app);
  }
  for (size_t i = 0; i < raw_added.size(); ++i) {
    if (!added_used[i]) stage.added.push_back(raw_added[i]);
  }
}

}  // namespace

Result<ObjectHistory> HistoryOf(const ObjectBase& result, Oid object,
                                const SymbolTable& symbols,
                                const VersionTable& versions) {
  std::vector<Vid> vids;
  for (const auto& [vid, state] : result.versions()) {
    if (versions.root(vid) == object) vids.push_back(vid);
  }
  if (vids.empty()) {
    return Status::NotFound("object '" + symbols.OidToString(object) +
                            "' has no versions in this object base");
  }
  std::sort(vids.begin(), vids.end(), [&](Vid a, Vid b) {
    return versions.depth(a) < versions.depth(b);
  });
  // Linearity: each vid must be a subterm of the deepest one.
  Vid deepest = vids.back();
  for (Vid vid : vids) {
    if (!versions.IsSubterm(vid, deepest)) {
      return Status::NotVersionLinear(
          "object '" + symbols.OidToString(object) +
          "' has incomparable versions " + versions.ToString(vid, symbols) +
          " and " + versions.ToString(deepest, symbols));
    }
  }

  ObjectHistory history;
  history.object = object;
  const VersionState* previous = nullptr;
  for (Vid vid : vids) {
    HistoryStage stage;
    stage.vid = vid;
    if (versions.depth(vid) > 0) stage.kind = versions.kind(vid);
    const VersionState* state = result.StateOf(vid);
    stage.fact_count = state->fact_count();
    DiffStates(previous, *state, stage);
    history.stages.push_back(std::move(stage));
    previous = state;
  }
  return history;
}

Result<std::vector<ObjectHistory>> AllHistories(const ObjectBase& result,
                                                const SymbolTable& symbols,
                                                const VersionTable& versions) {
  std::map<Oid, bool> objects;
  for (const auto& [vid, state] : result.versions()) {
    objects[versions.root(vid)] = true;
  }
  std::vector<ObjectHistory> histories;
  histories.reserve(objects.size());
  for (const auto& [object, unused] : objects) {
    VERSO_ASSIGN_OR_RETURN(ObjectHistory history,
                           HistoryOf(result, object, symbols, versions));
    histories.push_back(std::move(history));
  }
  return histories;
}

std::string HistoryToString(const ObjectHistory& history,
                            const SymbolTable& symbols,
                            const VersionTable& versions) {
  std::string out;
  auto app_str = [&](MethodId method, const GroundApp& app) {
    std::string s(symbols.MethodName(method));
    if (!app.args.empty()) {
      s += '@';
      for (size_t i = 0; i < app.args.size(); ++i) {
        if (i > 0) s += ',';
        s += symbols.OidToString(app.args[i]);
      }
    }
    s += " -> ";
    s += symbols.OidToString(app.result);
    return s;
  };
  for (size_t i = 0; i < history.stages.size(); ++i) {
    const HistoryStage& stage = history.stages[i];
    if (i == 0) {
      out += versions.ToString(stage.vid, symbols);
    } else {
      out += "  -";
      out += UpdateKindName(stage.kind);
      out += "-> ";
      out += versions.ToString(stage.vid, symbols);
    }
    out += "  (";
    out += std::to_string(stage.fact_count);
    out += " facts)";
    std::string details;
    for (const ModifiedApp& mod : stage.modified) {
      if (!details.empty()) details += ", ";
      details += std::string(symbols.MethodName(mod.method)) + ": " +
                 symbols.OidToString(mod.old_result) + " -> " +
                 symbols.OidToString(mod.new_result);
    }
    for (const auto& [method, app] : stage.added) {
      if (i == 0) break;  // stage 0's "additions" are just the base state
      if (!details.empty()) details += ", ";
      details += "+" + app_str(method, app);
    }
    for (const auto& [method, app] : stage.removed) {
      if (!details.empty()) details += ", ";
      details += "-" + app_str(method, app);
    }
    if (!details.empty()) {
      out += "  ";
      out += details;
    }
    out += '\n';
  }
  return out;
}

}  // namespace verso
