#ifndef VERSO_CORE_TERM_H_
#define VERSO_CORE_TERM_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/ids.h"

namespace verso {

/// An object-id-term (paper Section 2.1): a variable or an OID. These are
/// the only terms allowed in method argument and result positions —
/// versions never appear there ("a relationship is a more stable concept
/// than the concept of versions").
struct ObjTerm {
  bool is_var = false;
  VarId var;
  Oid oid;

  static ObjTerm Var(VarId v) {
    ObjTerm t;
    t.is_var = true;
    t.var = v;
    return t;
  }
  static ObjTerm Const(Oid o) {
    ObjTerm t;
    t.is_var = false;
    t.oid = o;
    return t;
  }

  friend bool operator==(const ObjTerm& a, const ObjTerm& b) {
    if (a.is_var != b.is_var) return false;
    return a.is_var ? a.var == b.var : a.oid == b.oid;
  }
};

/// A version-id-term (paper Section 2.1): a chain of update functors
/// applied to an object-id-term, e.g. ins(del(mod(E))) has
/// ops = [ins, del, mod] (outermost first) and base E.
/// Variables are quantified over OIDs only, so a VidTerm's variable can
/// never stand for another versioned term — this restriction is what makes
/// the paper's stratification conditions come out right.
struct VidTerm {
  std::vector<UpdateKind> ops;  // outermost functor first; may be empty
  ObjTerm base;

  static VidTerm OfObj(ObjTerm base) {
    VidTerm t;
    t.base = base;
    return t;
  }

  /// Wraps this term in one more functor: Wrap(mod, V) == mod(V).
  static VidTerm Wrap(UpdateKind kind, const VidTerm& inner) {
    VidTerm t;
    t.ops.reserve(inner.ops.size() + 1);
    t.ops.push_back(kind);
    t.ops.insert(t.ops.end(), inner.ops.begin(), inner.ops.end());
    t.base = inner.base;
    return t;
  }

  uint32_t depth() const { return static_cast<uint32_t>(ops.size()); }
  bool is_plain() const { return ops.empty(); }

  /// The term with the outermost functor stripped; requires depth() > 0.
  VidTerm Inner() const {
    VidTerm t;
    t.ops.assign(ops.begin() + 1, ops.end());
    t.base = base;
    return t;
  }

  friend bool operator==(const VidTerm& a, const VidTerm& b) {
    return a.ops == b.ops && a.base == b.base;
  }
};

/// The arguments of a ground application. Most facts carry none, so the
/// list is one pointer: null when empty, else a heap block whose first
/// two slots hold the count and the capacity and whose rest holds the
/// OIDs. A GroundApp is thus 16 bytes, and an argument-free one owns no
/// heap memory.
class OidList {
 public:
  OidList() = default;
  OidList(std::initializer_list<Oid> oids) {
    Append(oids.begin(), oids.size());
  }
  OidList(const std::vector<Oid>& oids) { Append(oids.data(), oids.size()); }
  OidList(const OidList& other) { Append(other.begin(), other.size()); }
  OidList(OidList&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  OidList& operator=(const OidList& other) {
    if (this != &other) {
      clear();
      Append(other.begin(), other.size());
    }
    return *this;
  }
  OidList& operator=(OidList&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~OidList() { delete[] block_; }

  size_t size() const { return block_ == nullptr ? 0 : block_[0].value; }
  bool empty() const { return size() == 0; }
  const Oid* begin() const { return block_ == nullptr ? nullptr : block_ + 2; }
  const Oid* end() const { return begin() + size(); }
  const Oid& operator[](size_t i) const { return block_[2 + i]; }
  Oid& operator[](size_t i) { return block_[2 + i]; }

  void clear() {
    if (block_ != nullptr) block_[0].value = 0;
  }
  void reserve(size_t n) {
    if (n > capacity()) Grow(n);
  }
  void push_back(Oid oid) { Append(&oid, 1); }
  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  friend bool operator==(const OidList& a, const OidList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator!=(const OidList& a, const OidList& b) {
    return !(a == b);
  }
  friend bool operator<(const OidList& a, const OidList& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  size_t capacity() const { return block_ == nullptr ? 0 : block_[1].value; }
  void Grow(size_t n) {
    Oid* grown = new Oid[2 + n];
    const size_t count = size();
    grown[0] = Oid(static_cast<uint32_t>(count));
    grown[1] = Oid(static_cast<uint32_t>(n));
    std::copy(begin(), end(), grown + 2);
    delete[] block_;
    block_ = grown;
  }
  void Append(const Oid* oids, size_t n) {
    if (n == 0) return;
    const size_t count = size();
    if (count + n > capacity()) Grow(std::max(count + n, 2 * capacity()));
    std::copy(oids, oids + n, block_ + 2 + count);
    block_[0] = Oid(static_cast<uint32_t>(count + n));
  }

  Oid* block_ = nullptr;
};

/// Ground method application: the `m@a1,...,ak -> r` part of a fact.
struct GroundApp {
  OidList args;
  Oid result;

  friend bool operator==(const GroundApp& a, const GroundApp& b) {
    return a.result == b.result && a.args == b.args;
  }
  friend bool operator<(const GroundApp& a, const GroundApp& b) {
    if (a.args != b.args) return a.args < b.args;
    return a.result < b.result;
  }
};

}  // namespace verso

#endif  // VERSO_CORE_TERM_H_
