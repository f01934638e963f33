#include "core/symbol_table.h"

#include <cassert>

namespace verso {

SymbolTable::SymbolTable() {
  exists_method_ = Method("exists");
}

Oid SymbolTable::Symbol(std::string_view name) {
  uint32_t sym = symbol_names_.Intern(name);
  if (sym < symbol_to_oid_.size()) return symbol_to_oid_[sym];
  Oid id(static_cast<uint32_t>(entries_.size()));
  entries_.push_back({OidKind::kSymbol, sym});
  symbol_to_oid_.push_back(id);
  return id;
}

Oid SymbolTable::Number(const Numeric& value) {
  auto it = number_to_oid_.find(value);
  if (it != number_to_oid_.end()) return it->second;
  Oid id(static_cast<uint32_t>(entries_.size()));
  entries_.push_back(
      {OidKind::kNumber, static_cast<uint32_t>(numbers_.size())});
  numbers_.push_back(value);
  number_to_oid_.emplace(value, id);
  return id;
}

Oid SymbolTable::Int(int64_t value) { return Number(Numeric::FromInt(value)); }

Oid SymbolTable::String(std::string_view text) {
  uint32_t sid = string_values_.Intern(text);
  if (sid < string_to_oid_.size()) return string_to_oid_[sid];
  Oid id(static_cast<uint32_t>(entries_.size()));
  entries_.push_back({OidKind::kString, sid});
  string_to_oid_.push_back(id);
  return id;
}

Oid SymbolTable::FindSymbol(std::string_view name) const {
  uint32_t sym = symbol_names_.Find(name);
  return sym == StringInterner::kNotFound ? Oid() : symbol_to_oid_[sym];
}

std::string_view SymbolTable::SymbolName(Oid id) const {
  assert(kind(id) == OidKind::kSymbol);
  return symbol_names_.Get(entries_[id.value].payload);
}

const Numeric& SymbolTable::NumberValue(Oid id) const {
  assert(kind(id) == OidKind::kNumber);
  return numbers_[entries_[id.value].payload];
}

std::string_view SymbolTable::StringValue(Oid id) const {
  assert(kind(id) == OidKind::kString);
  return string_values_.Get(entries_[id.value].payload);
}

MethodId SymbolTable::Method(std::string_view name) {
  return MethodId(method_names_.Intern(name));
}

MethodId SymbolTable::FindMethod(std::string_view name) const {
  uint32_t id = method_names_.Find(name);
  return id == StringInterner::kNotFound ? MethodId() : MethodId(id);
}

std::string_view SymbolTable::MethodName(MethodId id) const {
  return method_names_.Get(id.value);
}

std::string SymbolTable::OidToString(Oid id) const {
  switch (kind(id)) {
    case OidKind::kSymbol:
      return std::string(SymbolName(id));
    case OidKind::kNumber:
      return NumberValue(id).ToString();
    case OidKind::kString: {
      std::string out = "\"";
      out += StringValue(id);
      out += '"';
      return out;
    }
  }
  return "?";
}

int SymbolTable::Compare(Oid a, Oid b) const {
  if (a == b) return 0;
  OidKind ka = kind(a);
  OidKind kb = kind(b);
  if (ka != kb) return kIncomparable;
  switch (ka) {
    case OidKind::kNumber:
      return Numeric::Compare(NumberValue(a), NumberValue(b));
    case OidKind::kSymbol: {
      std::string_view sa = SymbolName(a);
      std::string_view sb = SymbolName(b);
      return sa < sb ? -1 : (sa == sb ? 0 : 1);
    }
    case OidKind::kString: {
      std::string_view sa = StringValue(a);
      std::string_view sb = StringValue(b);
      return sa < sb ? -1 : (sa == sb ? 0 : 1);
    }
  }
  return kIncomparable;
}

}  // namespace verso
