#ifndef VERSO_CORE_SYMBOL_TABLE_H_
#define VERSO_CORE_SYMBOL_TABLE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "util/interner.h"
#include "util/numeric.h"

namespace verso {

/// What an OID denotes. The paper folds values into the OID space
/// ("we consider values as specific OIDs in O"); we distinguish the payload
/// kinds so built-ins can type-check their operands.
enum class OidKind : uint8_t {
  kSymbol,  // named object or atom: henry, empl, mgr, yes
  kNumber,  // exact rational: 250, 1.1, 4600
  kString,  // quoted string value
};

/// The universe of OIDs and method names for one engine instance.
/// Interns symbols, numbers, strings, and method names; OIDs are dense and
/// stable. Not thread-safe; one SymbolTable per evaluation universe.
class SymbolTable {
 public:
  SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Interns a named object / atom, e.g. "henry".
  Oid Symbol(std::string_view name);
  /// Interns an exact numeric value.
  Oid Number(const Numeric& value);
  /// Convenience: interns an integer value.
  Oid Int(int64_t value);
  /// Interns a quoted string value.
  Oid String(std::string_view text);

  /// Lookup without interning; returns an invalid Oid when absent.
  Oid FindSymbol(std::string_view name) const;

  OidKind kind(Oid id) const { return entries_[id.value].kind; }
  bool IsNumber(Oid id) const { return kind(id) == OidKind::kNumber; }

  /// Payload accessors; caller must check the kind first.
  std::string_view SymbolName(Oid id) const;
  const Numeric& NumberValue(Oid id) const;
  std::string_view StringValue(Oid id) const;

  /// Interns a method name, e.g. "sal". The distinguished method "exists"
  /// (paper Section 3) is pre-interned; see exists_method().
  MethodId Method(std::string_view name);
  MethodId FindMethod(std::string_view name) const;
  std::string_view MethodName(MethodId id) const;

  /// The system method `exists`: `o.exists -> o` for every object; never
  /// allowed in rule heads.
  MethodId exists_method() const { return exists_method_; }

  size_t oid_count() const { return entries_.size(); }
  size_t method_count() const { return method_names_.size(); }

  /// Renders an OID in surface syntax: symbol name, numeric literal, or a
  /// double-quoted string.
  std::string OidToString(Oid id) const;

  /// Total order on OIDs for built-in comparisons: numbers compare
  /// numerically among themselves; symbols/strings lexicographically among
  /// themselves; comparing across kinds is reported by Compare's nullopt.
  /// Returns -1/0/1, or kIncomparable when the kinds differ.
  static constexpr int kIncomparable = 2;
  int Compare(Oid a, Oid b) const;

 private:
  struct Entry {
    OidKind kind;
    uint32_t payload;  // index into the kind-specific pool
  };

  std::vector<Entry> entries_;

  // Interned id -> Oid, dense: every name gets its Oid when first
  // interned, so the vectors grow in step with their interners.
  StringInterner symbol_names_;
  std::vector<Oid> symbol_to_oid_;

  std::vector<Numeric> numbers_;
  std::unordered_map<Numeric, Oid> number_to_oid_;

  StringInterner string_values_;
  std::vector<Oid> string_to_oid_;

  StringInterner method_names_;
  MethodId exists_method_;
};

}  // namespace verso

#endif  // VERSO_CORE_SYMBOL_TABLE_H_
