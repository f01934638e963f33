#ifndef VERSO_UTIL_INTERNER_H_
#define VERSO_UTIL_INTERNER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace verso {

/// Maps strings to dense uint32 ids and back. Ids are stable for the
/// lifetime of the interner and allocated in insertion order starting at 0.
///
/// Lookups hash the caller's string_view directly: the index's keys point
/// into `strings_`, a deque, whose elements never move as it grows (nor
/// when the interner itself is moved), so a probe builds no temporary.
class StringInterner {
 public:
  StringInterner() = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Returns the id for `text`, interning it on first sight.
  uint32_t Intern(std::string_view text);

  /// Returns the id for `text` or UINT32_MAX if it was never interned.
  uint32_t Find(std::string_view text) const;

  /// The string for a previously returned id.
  std::string_view Get(uint32_t id) const { return strings_[id]; }

  size_t size() const { return strings_.size(); }

  static constexpr uint32_t kNotFound = UINT32_MAX;

 private:
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> index_;
};

}  // namespace verso

#endif  // VERSO_UTIL_INTERNER_H_
