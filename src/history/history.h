#ifndef VERSO_HISTORY_HISTORY_H_
#define VERSO_HISTORY_HISTORY_H_

#include <string>
#include <vector>

#include "core/object_base.h"
#include "core/symbol_table.h"
#include "core/version_table.h"
#include "util/result.h"

namespace verso {

/// Temporal view over result(P) — the Section 6 observation that "VIDs
/// have temporal characteristics, denoting different versions of an
/// object during its update-process", made queryable: each object's
/// materialized versions form a time line (version-linearity gives the
/// order), and consecutive stages are diffed into added / removed /
/// modified method-applications — the update history the VID spells out
/// syntactically, reconstructed from states.

/// A method-application whose result changed between two stages.
struct ModifiedApp {
  MethodId method;
  OidList args;
  Oid old_result;
  Oid new_result;
};

/// One stage of an object's update process.
struct HistoryStage {
  Vid vid;
  /// Functor that created this stage; meaningless for stage 0 (the
  /// object as found in ob).
  UpdateKind kind = UpdateKind::kInsert;
  size_t fact_count = 0;

  /// Diff against the previous stage. Pairs (lost r / gained r' on the
  /// same method and arguments) are reported as `modified`; everything
  /// else as added/removed.
  std::vector<std::pair<MethodId, GroundApp>> added;
  std::vector<std::pair<MethodId, GroundApp>> removed;
  std::vector<ModifiedApp> modified;
};

/// The full (linear) update history of one object.
struct ObjectHistory {
  Oid object;
  std::vector<HistoryStage> stages;  // oldest first; stage 0 is plain o

  const HistoryStage& final_stage() const { return stages.back(); }
  size_t update_group_count() const { return stages.size() - 1; }
};

/// Extracts the history of `object` from result(P). Fails with
/// NotVersionLinear if the object's materialized versions do not form a
/// chain, and NotFound if the object has no versions at all.
Result<ObjectHistory> HistoryOf(const ObjectBase& result, Oid object,
                                const SymbolTable& symbols,
                                const VersionTable& versions);

/// Histories of every object in result(P), ordered by object OID.
Result<std::vector<ObjectHistory>> AllHistories(const ObjectBase& result,
                                                const SymbolTable& symbols,
                                                const VersionTable& versions);

/// Renders a Figure-1-style line per stage:
///     o                        4 facts
///     -mod-> mod(o)            sal: 4000 -> 4600
///     -del-> del(mod(o))       -isa -> empl, -sal -> 4600 ...
std::string HistoryToString(const ObjectHistory& history,
                            const SymbolTable& symbols,
                            const VersionTable& versions);

}  // namespace verso

#endif  // VERSO_HISTORY_HISTORY_H_
