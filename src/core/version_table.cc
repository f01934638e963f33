#include "core/version_table.h"

#include <cassert>

namespace verso {

VersionTable::VersionTable() {
  // Shape 0 is the empty chain: plain OIDs.
  shape_ops_.emplace_back();
  shape_index_.emplace(std::vector<UpdateKind>{}, VidShape(0));
  vids_by_shape_.emplace_back();
}

Vid VersionTable::OfOid(Oid o) {
  assert(o.valid());
  if (o.value < oid_to_vid_.size() && oid_to_vid_[o.value].valid()) {
    return oid_to_vid_[o.value];
  }
  Vid v(static_cast<uint32_t>(entries_.size()));
  entries_.push_back({o, Vid(), UpdateKind::kInsert, 0, VidShape(0)});
  if (o.value >= oid_to_vid_.size()) oid_to_vid_.resize(o.value + 1);
  oid_to_vid_[o.value] = v;
  vids_by_shape_[0].push_back(v);
  return v;
}

Vid VersionTable::Child(Vid parent, UpdateKind kind) {
  uint64_t key = (static_cast<uint64_t>(parent.value) << 2) |
                 static_cast<uint64_t>(kind);
  auto it = child_index_.find(key);
  if (it != child_index_.end()) return it->second;

  const Entry& p = entries_[parent.value];
  std::vector<UpdateKind> ops;
  ops.reserve(p.depth + 1);
  ops.push_back(kind);
  const std::vector<UpdateKind>& parent_ops = shape_ops_[p.shape.value];
  ops.insert(ops.end(), parent_ops.begin(), parent_ops.end());
  VidShape shape = InternShape(ops);

  Vid v(static_cast<uint32_t>(entries_.size()));
  entries_.push_back({p.root, parent, kind, p.depth + 1, shape});
  child_index_.emplace(key, v);
  vids_by_shape_[shape.value].push_back(v);
  return v;
}

bool VersionTable::IsSubterm(Vid a, Vid b) const {
  const Entry& ea = entries_[a.value];
  const Entry& eb = entries_[b.value];
  if (ea.root != eb.root) return false;
  if (ea.depth > eb.depth) return false;
  Vid cur = b;
  for (uint32_t d = eb.depth; d > ea.depth; --d) cur = entries_[cur.value].parent;
  return cur == a;
}

VidShape VersionTable::InternShape(const std::vector<UpdateKind>& ops) {
  auto it = shape_index_.find(ops);
  if (it != shape_index_.end()) return it->second;
  VidShape shape(static_cast<uint32_t>(shape_ops_.size()));
  shape_ops_.push_back(ops);
  shape_index_.emplace(ops, shape);
  vids_by_shape_.emplace_back();
  return shape;
}

const std::vector<Vid>& VersionTable::VidsWithShape(VidShape shape) const {
  static const std::vector<Vid> kEmpty;
  if (shape.value >= vids_by_shape_.size()) return kEmpty;
  return vids_by_shape_[shape.value];
}

std::string VersionTable::ToString(Vid v, const SymbolTable& symbols) const {
  const Entry& e = entries_[v.value];
  if (e.depth == 0) return symbols.OidToString(e.root);
  std::string out(UpdateKindName(e.kind));
  out += '(';
  out += ToString(e.parent, symbols);
  out += ')';
  return out;
}

}  // namespace verso
