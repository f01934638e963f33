#ifndef VERSO_CORE_ID_TRIE_H_
#define VERSO_CORE_ID_TRIE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace verso {

/// A persistent map from a dense 32-bit id (Vid, MethodId: any type with
/// a `uint32_t value` member and an explicit constructor from it) to
/// Value — or, with Value = void, a persistent set of ids. ObjectBase
/// keeps its version -> state map, its per-method version sets and its
/// set of non-plain versions in tries of this kind.
///
/// The structure is a radix trie of 32-way nodes, five key bits per
/// level, most significant bits at the root. Its height grows with the
/// largest key: ids below 32 fit one leaf, below 1024 two levels, below
/// 32768 three.
///
///   * Nodes are shared between tries and refcounted. Copying a trie
///     bumps one root count. The counts are atomic although no code path
///     shares nodes across threads today.
///   * A write copies the nodes on its root-to-leaf path that another
///     trie shares (bumping their children's counts) and writes in place
///     into nodes this trie owns alone. A write thus costs at most one
///     node copy per level, and two tries descended from one copy share
///     every subtree neither of them wrote.
///   * Each node has an occupancy bitmap. Nodes left empty by an erase
///     are freed, so a non-empty subtree always holds an entry.
///   * Iteration visits keys in ascending order.
///   * Diff walks two tries at once and skips the subtrees they share.
///
/// Writes to one trie need exclusive access to it, as for any value.
template <typename Key, typename Value = void>
class IdTrie {
  static constexpr bool kIsSet = std::is_void_v<Value>;
  static constexpr unsigned kBits = 5;
  static constexpr uint32_t kFanout = 1u << kBits;
  static constexpr uint32_t kMask = kFanout - 1;
  /// Shift of the highest possible root level: 32 key bits in levels of
  /// five leave two bits for the top level.
  static constexpr unsigned kMaxShift = 30;
  static constexpr unsigned kMaxLevels = kMaxShift / kBits + 1;

  struct Node {
    Node() = default;
    /// A copy starts with one reference: the copying trie's.
    Node(const Node& other) : bitmap(other.bitmap) {}
    Node& operator=(const Node&) = delete;

    std::atomic<uint32_t> refs{1};
    uint32_t bitmap = 0;
  };
  /// Levels above the leaves. child[i] is null exactly when bit i of the
  /// bitmap is clear.
  struct Inner : Node {
    Node* child[kFanout] = {};
  };
  struct NoSlots {};
  using Slots =
      std::conditional_t<kIsSet, NoSlots,
                         std::array<std::conditional_t<kIsSet, char, Value>,
                                    kFanout>>;
  /// The level of shift 0: the bitmap is the key set, `slots` the values
  /// (a value slot whose bit is clear holds a default Value).
  struct Leaf : Node {
    Slots slots;
  };

 public:
  IdTrie() = default;
  IdTrie(const IdTrie& other)
      : root_(other.root_), shift_(other.shift_), size_(other.size_) {
    if (root_ != nullptr) root_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  IdTrie(IdTrie&& other) noexcept
      : root_(other.root_), shift_(other.shift_), size_(other.size_) {
    other.root_ = nullptr;
    other.shift_ = 0;
    other.size_ = 0;
  }
  IdTrie& operator=(IdTrie other) noexcept {
    std::swap(root_, other.root_);
    std::swap(shift_, other.shift_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~IdTrie() {
    if (root_ != nullptr) Release(root_, shift_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(Key key) const { return FindLeaf(key.value) != nullptr; }

  /// The value stored under `key`, or nullptr. Maps only.
  template <typename V = Value>
  const V* Find(Key key) const {
    const Leaf* leaf = FindLeaf(key.value);
    return leaf == nullptr ? nullptr : &leaf->slots[key.value & kMask];
  }

  /// The value slot of `key` for writing, inserted with a default Value
  /// when absent. Makes the path to it this trie's own. Maps only.
  template <typename V = Value>
  V& Slot(Key key) {
    Leaf* leaf = OwnPath(key.value);
    return leaf->slots[key.value & kMask];
  }

  /// Adds `key`; returns true iff it was absent. Sets only.
  template <typename V = Value,
            typename = std::enable_if_t<std::is_void_v<V>>>
  bool Insert(Key key) {
    if (Contains(key)) return false;
    OwnPath(key.value);
    return true;
  }

  /// Removes `key` (and its value); returns true iff it was present.
  bool Erase(Key key) {
    if (!Contains(key)) return false;
    const uint32_t k = key.value;
    Node** links[kMaxLevels];
    unsigned depth = 0;
    Node** link = &root_;
    for (unsigned s = shift_;; s -= kBits) {
      *link = Own(*link, s);
      links[depth++] = link;
      if (s == 0) break;
      link = &static_cast<Inner*>(*link)->child[(k >> s) & kMask];
    }
    // Clear the leaf slot, then free every node the erase emptied. Each
    // is this trie's own after Own() above, so it is deleted directly.
    Leaf* leaf = static_cast<Leaf*>(*links[depth - 1]);
    leaf->bitmap &= ~(1u << (k & kMask));
    if constexpr (!kIsSet) leaf->slots[k & kMask] = Value();
    --size_;
    for (unsigned level = depth; level-- > 0;) {
      Node* node = *links[level];
      if (node->bitmap != 0) break;
      const unsigned s = shift_ - kBits * level;
      if (s == 0) {
        delete static_cast<Leaf*>(node);
      } else {
        delete static_cast<Inner*>(node);
      }
      *links[level] = nullptr;
      if (level > 0) {
        (*links[level - 1])->bitmap &= ~(1u << ((k >> (s + kBits)) & kMask));
      }
    }
    if (root_ == nullptr) shift_ = 0;
    return true;
  }

  /// Ascending-key iteration. A map yields std::pair<Key, const Value&>,
  /// a set yields Key. Any write to the trie invalidates iterators.
  class const_iterator {
   public:
    auto operator*() const {
      if constexpr (kIsSet) {
        return Key(key_);
      } else {
        return std::pair<Key, const Value&>(
            Key(key_),
            static_cast<const Leaf*>(path_[levels_ - 1])->slots[key_ & kMask]);
      }
    }
    const_iterator& operator++() {
      Advance();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.levels_ == b.levels_ && (a.levels_ == 0 || a.key_ == b.key_);
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    friend class IdTrie;
    const_iterator() = default;  // end()
    const_iterator(const Node* root, unsigned shift)
        : shift_(shift), levels_(shift / kBits + 1) {
      path_[0] = root;
      Descend(0);
    }

    /// Moves to the first entry of the subtree at path_[level].
    void Descend(unsigned level) {
      for (;; ++level) {
        const unsigned s = shift_ - kBits * level;
        const uint32_t i = static_cast<uint32_t>(
            __builtin_ctz(path_[level]->bitmap));
        key_ = (key_ & ~(kMask << s)) | (i << s);
        if (s == 0) return;
        path_[level + 1] = static_cast<const Inner*>(path_[level])->child[i];
      }
    }
    void Advance() {
      for (unsigned level = levels_; level-- > 0;) {
        const unsigned s = shift_ - kBits * level;
        const uint32_t next = ((key_ >> s) & kMask) + 1;
        const uint32_t rest =
            next >= kFanout ? 0 : path_[level]->bitmap & (~0u << next);
        if (rest == 0) continue;
        const uint32_t i = static_cast<uint32_t>(__builtin_ctz(rest));
        key_ = (key_ & ~(kMask << s)) | (i << s);
        if (s == 0) return;
        path_[level + 1] = static_cast<const Inner*>(path_[level])->child[i];
        Descend(level + 1);
        return;
      }
      levels_ = 0;  // past the last entry
    }

    const Node* path_[kMaxLevels] = {};
    uint32_t key_ = 0;
    unsigned shift_ = 0;
    unsigned levels_ = 0;  // 0 at end()
  };

  const_iterator begin() const {
    return root_ == nullptr ? const_iterator() : const_iterator(root_, shift_);
  }
  const_iterator end() const { return const_iterator(); }

  /// Walks `a` and `b` together and calls fn(key, in_a, in_b) for every
  /// key whose value differs between them: in_a / in_b point at the value
  /// in that trie, or are null where the key is absent. Subtrees the two
  /// tries share, and slots whose values compare equal (for a handle: the
  /// same pointee), are skipped without a visit, so two tries descended
  /// from one copy cost what their writes touched. fn returns false to
  /// stop the walk; Diff then returns false. Keys come in ascending order.
  template <typename Fn, typename V = Value>
  static bool Diff(const IdTrie& a, const IdTrie& b, Fn&& fn) {
    static_assert(!std::is_void_v<V>, "Diff is defined for maps");
    return DiffNodes(a.root_, a.shift_, b.root_, b.shift_, 0, fn);
  }

 private:
  static void Release(Node* node, unsigned shift) {
    if (node->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (shift == 0) {
      delete static_cast<Leaf*>(node);
      return;
    }
    Inner* inner = static_cast<Inner*>(node);
    for (uint32_t bits = inner->bitmap; bits != 0; bits &= bits - 1) {
      Release(inner->child[__builtin_ctz(bits)], shift - kBits);
    }
    delete inner;
  }

  /// A node this trie may write: a fresh one for null, the node itself
  /// when no other trie holds it, else a copy (which takes a reference to
  /// each child) in place of this trie's reference.
  static Node* Own(Node* node, unsigned shift) {
    if (node == nullptr) {
      if (shift == 0) return new Leaf();
      return new Inner();
    }
    if (node->refs.load(std::memory_order_acquire) == 1) return node;
    Node* copy;
    if (shift == 0) {
      copy = new Leaf(*static_cast<const Leaf*>(node));
    } else {
      Inner* inner = new Inner(*static_cast<const Inner*>(node));
      for (uint32_t bits = inner->bitmap; bits != 0; bits &= bits - 1) {
        inner->child[__builtin_ctz(bits)]->refs.fetch_add(
            1, std::memory_order_relaxed);
      }
      copy = inner;
    }
    Release(node, shift);
    return copy;
  }

  static bool Fits(uint32_t key, unsigned shift) {
    return shift + kBits >= 32 || (key >> (shift + kBits)) == 0;
  }

  const Leaf* FindLeaf(uint32_t key) const {
    const Node* node = root_;
    if (node == nullptr || !Fits(key, shift_)) return nullptr;
    for (unsigned s = shift_;; s -= kBits) {
      const uint32_t i = (key >> s) & kMask;
      if ((node->bitmap & (1u << i)) == 0) return nullptr;
      if (s == 0) return static_cast<const Leaf*>(node);
      node = static_cast<const Inner*>(node)->child[i];
    }
  }

  /// Inserts `key` if absent and returns its leaf, owned by this trie
  /// along the whole path. Raises the root first when the key is beyond
  /// the trie's height.
  Leaf* OwnPath(uint32_t key) {
    if (root_ == nullptr) {
      shift_ = 0;
      while (!Fits(key, shift_)) shift_ += kBits;
    }
    while (!Fits(key, shift_)) {
      Inner* up = new Inner();
      up->bitmap = 1;
      up->child[0] = root_;
      root_ = up;
      shift_ += kBits;
    }
    Node** link = &root_;
    for (unsigned s = shift_;; s -= kBits) {
      Node* node = *link = Own(*link, s);
      const uint32_t i = (key >> s) & kMask;
      const bool present = (node->bitmap & (1u << i)) != 0;
      node->bitmap |= 1u << i;
      if (s == 0) {
        if (!present) ++size_;
        return static_cast<Leaf*>(node);
      }
      link = &static_cast<Inner*>(node)->child[i];
    }
  }

  /// Calls fn for every entry of a subtree only one side has.
  template <typename Fn>
  static bool OneSided(const Node* node, unsigned shift, uint32_t prefix,
                       bool in_a, Fn& fn) {
    if (node == nullptr) return true;
    for (uint32_t bits = node->bitmap; bits != 0; bits &= bits - 1) {
      const uint32_t i = static_cast<uint32_t>(__builtin_ctz(bits));
      const uint32_t key = prefix | (i << shift);
      if (shift == 0) {
        const Value* v = &static_cast<const Leaf*>(node)->slots[i];
        if (!(in_a ? fn(Key(key), v, nullptr) : fn(Key(key), nullptr, v))) {
          return false;
        }
      } else if (!OneSided(static_cast<const Inner*>(node)->child[i],
                           shift - kBits, key, in_a, fn)) {
        return false;
      }
    }
    return true;
  }

  /// Diffs the subtree `a` (at shift sa) against `b` (at sb), both
  /// covering keys from `prefix` up. A taller side's child 0 covers the
  /// shorter side's whole range; its other children are one-sided.
  template <typename Fn>
  static bool DiffNodes(const Node* a, unsigned sa, const Node* b,
                        unsigned sb, uint32_t prefix, Fn& fn) {
    if (a == b && sa == sb) return true;
    if (a == nullptr) return OneSided(b, sb, prefix, false, fn);
    if (b == nullptr) return OneSided(a, sa, prefix, true, fn);
    if (sa != sb) {
      const bool a_taller = sa > sb;
      const Node* tall = a_taller ? a : b;
      const unsigned st = a_taller ? sa : sb;
      const Inner* inner = static_cast<const Inner*>(tall);
      const Node* low = (tall->bitmap & 1u) != 0 ? inner->child[0] : nullptr;
      const bool ok = a_taller ? DiffNodes(low, st - kBits, b, sb, prefix, fn)
                               : DiffNodes(a, sa, low, st - kBits, prefix, fn);
      if (!ok) return false;
      for (uint32_t bits = tall->bitmap & ~1u; bits != 0; bits &= bits - 1) {
        const uint32_t i = static_cast<uint32_t>(__builtin_ctz(bits));
        if (!OneSided(inner->child[i], st - kBits, prefix | (i << st),
                      a_taller, fn)) {
          return false;
        }
      }
      return true;
    }
    const uint32_t both = a->bitmap | b->bitmap;
    for (uint32_t bits = both; bits != 0; bits &= bits - 1) {
      const uint32_t i = static_cast<uint32_t>(__builtin_ctz(bits));
      const uint32_t bit = 1u << i;
      const uint32_t key = prefix | (i << sa);
      const bool in_a = (a->bitmap & bit) != 0;
      const bool in_b = (b->bitmap & bit) != 0;
      if (sa == 0) {
        const Value* va =
            in_a ? &static_cast<const Leaf*>(a)->slots[i] : nullptr;
        const Value* vb =
            in_b ? &static_cast<const Leaf*>(b)->slots[i] : nullptr;
        if (va != nullptr && vb != nullptr && *va == *vb) continue;
        if (!fn(Key(key), va, vb)) return false;
        continue;
      }
      const Node* ca = in_a ? static_cast<const Inner*>(a)->child[i] : nullptr;
      const Node* cb = in_b ? static_cast<const Inner*>(b)->child[i] : nullptr;
      if (!DiffNodes(ca, sa - kBits, cb, sb - kBits, key, fn)) return false;
    }
    return true;
  }

  Node* root_ = nullptr;
  unsigned shift_ = 0;  // the root's level: key bits below it
  size_t size_ = 0;
};

}  // namespace verso

#endif  // VERSO_CORE_ID_TRIE_H_
