#ifndef VERSO_CORE_COMMIT_H_
#define VERSO_CORE_COMMIT_H_

#include "core/object_base.h"
#include "util/result.h"

namespace verso {

/// Builds the updated object base ob' from result(P) (paper Section 5):
/// verifies version-linearity per object, selects each object's final
/// version (the VID containing all others as subterms), and copies its
/// method-applications back onto the plain OID. Objects whose final
/// version carries nothing but `exists` vanish from ob'.
///
/// ob' starts as an O(1) copy of `result`, and only the objects with
/// non-plain versions (ObjectBase::non_plain_versions) are rewritten, so
/// the cost follows what the program versioned, not the base size.
///
/// `symbols` is only used for diagnostics; `versions` is consulted (and
/// not extended) for roots/depths.
Result<ObjectBase> BuildNewObjectBase(const ObjectBase& result,
                                      const SymbolTable& symbols,
                                      VersionTable& versions);

}  // namespace verso

#endif  // VERSO_CORE_COMMIT_H_
