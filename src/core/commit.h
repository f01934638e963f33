#ifndef VERSO_CORE_COMMIT_H_
#define VERSO_CORE_COMMIT_H_

#include <vector>

#include "core/object_base.h"
#include "util/result.h"

namespace verso {

/// Builds the updated object base ob' from result(P) (paper Section 5):
/// verifies version-linearity per object, selects each object's final
/// version (the VID containing all others as subterms), and moves its
/// state back onto the plain OID by sharing the handle, copying no fact.
/// Objects whose final version carries nothing but `exists` vanish from
/// ob', as do untouched objects holding nothing but `exists` facts.
///
/// ob' starts as an O(1) copy of `result` stripped of its non-plain
/// versions, so the cost follows what the program versioned. The commit
/// path builds the same base on its input instead (BuildNewObjectBaseOn)
/// with the same adoption loop; this form is the reference the tests
/// diff it against.
///
/// `symbols` is only used for diagnostics; `versions` is consulted (and
/// not extended) for roots/depths.
Result<ObjectBase> BuildNewObjectBase(const ObjectBase& result,
                                      const SymbolTable& symbols,
                                      VersionTable& versions);

/// The commit path's ob', built on an O(1) copy of `input`, the base the
/// program ran on as committed (unsealed after an import): each version
/// where ob' differs from `input` adopts its state from `result`,
/// result(P) of the sealed input. `sealed` lists the versions the seal
/// gave an exists fact (ObjectBase::SealExistence). The adoptions record
/// the commit's delta in `delta` as they go, in ComputeDelta(input, ob')'s
/// order: the removals, then the additions, each by (version, method,
/// application). ob' equals BuildNewObjectBase(result) by value, and the
/// delta ComputeDelta's element by element.
Result<ObjectBase> BuildNewObjectBaseOn(const ObjectBase& input,
                                        const std::vector<Vid>& sealed,
                                        const ObjectBase& result,
                                        const SymbolTable& symbols,
                                        VersionTable& versions,
                                        DeltaLog* delta);

}  // namespace verso

#endif  // VERSO_CORE_COMMIT_H_
