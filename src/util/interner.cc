#include "util/interner.h"

namespace verso {

uint32_t StringInterner::Intern(std::string_view text) {
  auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(text);
  index_.emplace(strings_.back(), id);
  return id;
}

uint32_t StringInterner::Find(std::string_view text) const {
  auto it = index_.find(text);
  return it == index_.end() ? kNotFound : it->second;
}

}  // namespace verso
