#include "core/commit.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

namespace verso {

namespace {

/// The adoption loop both builds share. For each object with non-plain
/// versions in result(P), in the order of its plain version: checks
/// linearity and adopts its final version's state onto the plain version
/// in `fresh`. Each version in `sealed` (ascending) that the program did
/// not touch adopts its sealed state from result(P), in the same walk.
/// Then drops each plain version of `fresh` that holds nothing but
/// `exists` facts. Every change is appended to `delta` when given.
Status AdoptFinalVersions(const ObjectBase& result,
                          const std::vector<Vid>& sealed,
                          const SymbolTable& symbols, VersionTable& versions,
                          ObjectBase& fresh, DeltaLog* delta) {
  // The non-plain versions, object by object (by plain version), deepest
  // first: the first of each object's run is its final version.
  struct Staged {
    Vid object;
    uint32_t depth;
    Vid vid;
  };
  std::vector<Staged> staged;
  staged.reserve(result.non_plain_versions().size());
  for (Vid vid : result.non_plain_versions()) {
    staged.push_back(
        {versions.OfOid(versions.root(vid)), versions.depth(vid), vid});
  }
  std::sort(staged.begin(), staged.end(), [](const Staged& a, const Staged& b) {
    return std::tie(a.object, b.depth, a.vid) <
           std::tie(b.object, a.depth, b.vid);
  });

  // Adopts the sealed versions below `limit`, skipping `limit` itself:
  // a touched object takes its final state instead.
  auto next_sealed = sealed.begin();
  auto adopt_sealed_until = [&](Vid limit) {
    for (; next_sealed != sealed.end() && *next_sealed < limit; ++next_sealed) {
      std::shared_ptr<const VersionState> state =
          result.SharedStateOf(*next_sealed);
      if (state->OnlyExists(result.exists_method())) state = nullptr;
      fresh.AdoptVersion(*next_sealed, std::move(state), delta);
    }
    if (next_sealed != sealed.end() && *next_sealed == limit) ++next_sealed;
  };

  for (size_t i = 0; i < staged.size();) {
    const Vid object = staged[i].object;
    adopt_sealed_until(object);
    const Vid final_version = staged[i].vid;
    for (; i < staged.size() && staged[i].object == object; ++i) {
      // Linearity: every version must be a stage on the way to the final
      // one. The evaluator normally guarantees this; re-checking here
      // keeps the build safe for object bases assembled by hand. The
      // plain version is a subterm of every version of its object, so
      // only the non-plain ones need the check.
      if (!versions.IsSubterm(staged[i].vid, final_version)) {
        return Status::NotVersionLinear(
            "object '" + symbols.OidToString(versions.root(object)) +
            "' has incomparable versions " +
            versions.ToString(staged[i].vid, symbols) + " and " +
            versions.ToString(final_version, symbols));
      }
    }
    // The facts of a state never mention its VID (the VID is the map
    // key), so the final version's state is rebound onto the plain OID by
    // sharing the refcounted handle — no fact is copied; ob' and
    // result(P) share storage until one of them is written. An object
    // whose final version carries nothing but `exists` had all its
    // information deleted: it does not appear in the new object base.
    std::shared_ptr<const VersionState> state =
        result.SharedStateOf(final_version);
    if (state->OnlyExists(result.exists_method())) state = nullptr;
    fresh.AdoptVersion(object, std::move(state), delta);
  }
  adopt_sealed_until(Vid(std::numeric_limits<uint32_t>::max()));

  // An untouched object whose only facts are `exists` vanishes as well.
  // Only an imported or hand-built base holds one — no commit leaves one
  // behind — so this walk runs at most once after such an import.
  if (fresh.exists_only_plain_count() != 0) {
    std::vector<Vid> bare;
    for (const auto& [vid, state] : fresh.versions()) {
      if (versions.depth(vid) == 0 &&
          state->OnlyExists(fresh.exists_method())) {
        bare.push_back(vid);
      }
    }
    for (Vid vid : bare) fresh.AdoptVersion(vid, nullptr, delta);
  }
  return Status::Ok();
}

}  // namespace

Result<ObjectBase> BuildNewObjectBase(const ObjectBase& result,
                                      const SymbolTable& symbols,
                                      VersionTable& versions) {
  ObjectBase fresh = result;
  for (Vid vid : result.non_plain_versions()) fresh.AdoptVersion(vid, nullptr);
  VERSO_RETURN_IF_ERROR(
      AdoptFinalVersions(result, {}, symbols, versions, fresh, nullptr));
  return fresh;
}

Result<ObjectBase> BuildNewObjectBaseOn(const ObjectBase& input,
                                        const std::vector<Vid>& sealed,
                                        const ObjectBase& result,
                                        const SymbolTable& symbols,
                                        VersionTable& versions,
                                        DeltaLog* delta) {
  ObjectBase fresh = input;
  delta->clear();
  VERSO_RETURN_IF_ERROR(
      AdoptFinalVersions(result, sealed, symbols, versions, fresh, delta));
  // Versioned facts an import brought have no place in ob'.
  for (Vid vid : input.non_plain_versions()) {
    fresh.AdoptVersion(vid, nullptr, delta);
  }
  // Each adoption appended its changes in (method, application) order,
  // one version after another in ascending order; only the drops of an
  // import's exists-only objects and versioned facts come after the
  // rest. Then the removals go first.
  auto by_vid = [](const DeltaFact& a, const DeltaFact& b) {
    return a.vid < b.vid;
  };
  if (!std::is_sorted(delta->begin(), delta->end(), by_vid)) {
    std::stable_sort(delta->begin(), delta->end(), by_vid);
  }
  std::stable_partition(delta->begin(), delta->end(),
                        [](const DeltaFact& fact) { return !fact.added; });
  return fresh;
}

}  // namespace verso
