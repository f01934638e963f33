#include "core/commit.h"

#include <algorithm>
#include <vector>

namespace verso {

Result<ObjectBase> BuildNewObjectBase(const ObjectBase& result,
                                      const SymbolTable& symbols,
                                      VersionTable& versions) {
  // ob' starts as result(P) itself (an O(1) copy): every object the
  // program never versioned is already in its final form. Only objects
  // with non-plain versions are rewritten.
  ObjectBase fresh = result;

  // The non-plain versions, object by object, deepest first: the first
  // of each object's run is its final version.
  std::vector<Vid> staged;
  staged.reserve(result.non_plain_versions().size());
  for (Vid vid : result.non_plain_versions()) staged.push_back(vid);
  std::sort(staged.begin(), staged.end(), [&](Vid a, Vid b) {
    if (versions.root(a) != versions.root(b)) {
      return versions.root(a) < versions.root(b);
    }
    if (versions.depth(a) != versions.depth(b)) {
      return versions.depth(a) > versions.depth(b);
    }
    return a < b;
  });

  for (size_t i = 0; i < staged.size();) {
    const Oid root = versions.root(staged[i]);
    const Vid final_version = staged[i];
    for (; i < staged.size() && versions.root(staged[i]) == root; ++i) {
      // Linearity: every version must be a stage on the way to the final
      // one. The evaluator normally guarantees this; re-checking here
      // keeps BuildNewObjectBase safe for object bases assembled by hand.
      // The plain version is a subterm of every version of its object,
      // so only the non-plain ones need the check.
      if (!versions.IsSubterm(staged[i], final_version)) {
        return Status::NotVersionLinear(
            "object '" + symbols.OidToString(root) +
            "' has incomparable versions " +
            versions.ToString(staged[i], symbols) + " and " +
            versions.ToString(final_version, symbols));
      }
      fresh.AdoptVersion(staged[i], nullptr);
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
    fresh.AdoptVersion(versions.OfOid(root), std::move(state));
  }

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
    for (Vid vid : bare) fresh.AdoptVersion(vid, nullptr);
  }
  return fresh;
}

}  // namespace verso
