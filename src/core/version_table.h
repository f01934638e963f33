#ifndef VERSO_CORE_VERSION_TABLE_H_
#define VERSO_CORE_VERSION_TABLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "core/symbol_table.h"

namespace verso {

/// Interned functor chain of a VID, outermost functor first; depth-0 VIDs
/// have the empty shape. Patterns such as `mod(E).sal->S` match exactly the
/// VIDs whose shape is [mod], so shapes are the index key for version
/// patterns with an unbound object variable.
struct VidShape {
  uint32_t value = 0;  // 0 is the empty shape (plain OIDs)

  constexpr VidShape() = default;
  constexpr explicit VidShape(uint32_t v) : value(v) {}
  friend constexpr bool operator==(VidShape a, VidShape b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(VidShape a, VidShape b) {
    return a.value != b.value;
  }
};

/// Interns version identities: ground terms ins(...), del(...), mod(...)
/// over an OID root (paper Section 2.1). A VID is stored as
/// (parent VID, outermost functor), so
///   * subterm tests are parent-chain walks,
///   * the temporal order of an object's versions is the subterm order,
///   * `v*` (Section 3) is a walk looking for the deepest `exists` stage.
///
/// Depth-0 VIDs coincide with OIDs and are created lazily by OfOid().
class VersionTable {
 public:
  VersionTable();
  VersionTable(const VersionTable&) = delete;
  VersionTable& operator=(const VersionTable&) = delete;

  /// The VID denoting the object `o` itself (depth 0).
  Vid OfOid(Oid o);

  /// The VID `kind(parent)`, e.g. Child(v, kDelete) == del(v).
  Vid Child(Vid parent, UpdateKind kind);

  /// Functor of the outermost update; only valid for depth > 0.
  UpdateKind kind(Vid v) const { return entries_[v.value].kind; }
  /// The VID with the outermost functor stripped; invalid for depth 0.
  Vid parent(Vid v) const { return entries_[v.value].parent; }
  uint32_t depth(Vid v) const { return entries_[v.value].depth; }
  /// The object this VID is a version of.
  Oid root(Vid v) const { return entries_[v.value].root; }
  VidShape shape(Vid v) const { return entries_[v.value].shape; }

  /// True iff `a` is a (not necessarily proper) subterm of `b`; only VIDs
  /// of the same object can be subterms of one another.
  bool IsSubterm(Vid a, Vid b) const;

  /// Interns a functor chain (outermost first).
  VidShape InternShape(const std::vector<UpdateKind>& ops);
  const std::vector<UpdateKind>& ShapeOps(VidShape shape) const {
    return shape_ops_[shape.value];
  }

  /// All interned VIDs with the given shape. Stable order of creation.
  const std::vector<Vid>& VidsWithShape(VidShape shape) const;

  size_t size() const { return entries_.size(); }

  /// Surface syntax, e.g. "ins(del(mod(henry)))".
  std::string ToString(Vid v, const SymbolTable& symbols) const;

 private:
  struct Entry {
    Oid root;
    Vid parent;       // invalid when depth == 0
    UpdateKind kind;  // meaningful when depth > 0
    uint32_t depth;
    VidShape shape;
  };

  std::vector<Entry> entries_;
  // Oid -> its depth-0 Vid, dense over the symbol table's Oids; an
  // invalid Vid marks an object no version was made for yet.
  std::vector<Vid> oid_to_vid_;
  // (parent, kind) -> child
  std::unordered_map<uint64_t, Vid> child_index_;

  std::vector<std::vector<UpdateKind>> shape_ops_;
  std::map<std::vector<UpdateKind>, VidShape> shape_index_;
  std::vector<std::vector<Vid>> vids_by_shape_;
};

}  // namespace verso

template <>
struct std::hash<verso::VidShape> {
  size_t operator()(verso::VidShape s) const {
    return std::hash<uint32_t>()(s.value);
  }
};

#endif  // VERSO_CORE_VERSION_TABLE_H_
