// Copy-on-write containers with structural sharing: the building blocks
// of the catalog snapshot generations (DESIGN.md §15).
//
// Copying a container is O(1): the copy shares every node with its
// source. A mutation copies only the nodes on its root-to-target path,
// and only those the container does not already own. The ownership
// rule: every node carries the owner tag of the container that created
// it, and a container mutates in place exactly the nodes stamped with
// its current tag. Copying re-tags BOTH sides, so after a copy neither
// the source nor the copy can mutate a node the other can reach — each
// is observably immutable under any later mutation of the other.
//
// That makes clone-mutate-publish cheap: a writer's clone pays for the
// paths it touches, and a generation that absorbs many mutations before
// anyone copies it (recovery's one batch generation) copies each path at
// most once.
//
// Thread-safety: mutation and copying of one container instance are
// externally synchronized (the snapshot writer holds the writer mutex;
// copying writes the source's mutable owner tag). Const access is safe
// from any thread concurrently with mutation of any other instance,
// including copies that share its nodes — a shared node is never
// written, and const readers never read the owner tag.

#ifndef MVOPT_COMMON_COW_H_
#define MVOPT_COMMON_COW_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mvopt {

/// A fresh owner tag (never reused within the process).
inline uint64_t NewCowOwner() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// A new node stamped `owner`. `Node` needs an `owner` field.
template <typename Node>
std::shared_ptr<Node> CowNew(uint64_t owner) {
  auto node = std::make_shared<Node>();
  node->owner = owner;
  return node;
}

/// The node in `slot`, ready for in-place mutation by `owner`: replaced
/// first by a private copy stamped `owner` unless `owner` already owns
/// it. `Node` needs a copy constructor and an `owner` field. Strongly
/// exception-safe: `slot` changes only once the copy exists.
template <typename Node>
Node* CowMutable(std::shared_ptr<Node>& slot, uint64_t owner) {
  if (slot->owner != owner) {
    auto copy = std::make_shared<Node>(*slot);
    copy->owner = owner;
    slot = std::move(copy);
  }
  return slot.get();
}

/// A vector as a 32-way radix trie over the index (the persistent vector
/// of Clojure and Scala): operator[] walks log32(n) nodes, and
/// push_back / pop_back / mutable_at copy at most that many. pop_back and
/// mutable_at never allocate when their path is already owned, e.g.
/// right after a push_back on the same instance.
template <typename T>
class CowVector {
 public:
  CowVector() = default;
  CowVector(const CowVector& other)
      : root_(other.root_), size_(other.size_), shift_(other.shift_) {
    other.owner_ = NewCowOwner();
  }
  CowVector& operator=(const CowVector&) = delete;

  size_t size() const { return size_; }

  const T& operator[](size_t i) const {
    assert(i < size_);
    const Node* node = root_.get();
    for (int shift = shift_; shift > 0; shift -= kBits) {
      node = node->children[(i >> shift) & kMask].get();
    }
    return node->values[i & kMask];
  }

  void push_back(T value) {
    if (root_ == nullptr) {
      root_ = NewNode();
    } else if (size_ == (kWidth << shift_)) {
      // Full: grow a level. The old root becomes the new root's first
      // child — shared, not copied.
      auto root = NewNode();
      root->children.push_back(root_);
      root_ = std::move(root);
      shift_ += kBits;
    }
    Node* node = Mutable(root_);
    for (int shift = shift_; shift > 0; shift -= kBits) {
      const size_t slot = (size_ >> shift) & kMask;
      if (slot == node->children.size()) node->children.push_back(NewNode());
      node = Mutable(node->children[slot]);
    }
    node->values.push_back(std::move(value));
    ++size_;
  }

  /// Drops the last element. Emptied nodes stay in place and are reused
  /// by the next push_back.
  void pop_back() {
    assert(size_ > 0);
    PathTo(size_ - 1)->values.pop_back();
    --size_;
  }

  /// Element `i`, copying its path first where it is shared.
  T& mutable_at(size_t i) {
    assert(i < size_);
    return PathTo(i)->values[i & kMask];
  }

 private:
  static constexpr int kBits = 5;
  static constexpr size_t kWidth = size_t{1} << kBits;
  static constexpr size_t kMask = kWidth - 1;

  struct Node {
    uint64_t owner = 0;
    std::vector<std::shared_ptr<Node>> children;  ///< interior levels
    std::vector<T> values;                        ///< leaf level
  };

  std::shared_ptr<Node> NewNode() const { return CowNew<Node>(owner_); }
  Node* Mutable(std::shared_ptr<Node>& slot) {
    return CowMutable(slot, owner_);
  }
  /// Owned leaf holding element `i`.
  Node* PathTo(size_t i) {
    Node* node = Mutable(root_);
    for (int shift = shift_; shift > 0; shift -= kBits) {
      node = Mutable(node->children[(i >> shift) & kMask]);
    }
    return node;
  }

  std::shared_ptr<Node> root_;
  size_t size_ = 0;
  int shift_ = 0;  ///< index bits above the leaf level (0: root is a leaf)
  mutable uint64_t owner_ = NewCowOwner();
};

/// A string-keyed map as a hash array mapped trie (HAMT, Bagwell 2001):
/// 32-way interior nodes indexed by 5-bit slices of the key's 64-bit
/// hash, each storing only its present children (bitmap + dense array).
/// Find walks about log32(n) nodes; Insert and Erase copy at most that
/// many. Keys whose full hashes collide share one leaf.
template <typename V>
class CowStringMap {
 public:
  CowStringMap() = default;
  CowStringMap(const CowStringMap& other)
      : root_(other.root_), size_(other.size_) {
    other.owner_ = NewCowOwner();
  }
  CowStringMap& operator=(const CowStringMap&) = delete;

  size_t size() const { return size_; }

  /// The value mapped to `key`, or nullptr.
  const V* Find(const std::string& key) const {
    const uint64_t hash = Hash(key);
    const Node* node = root_.get();
    for (int shift = 0;; shift += kBits) {
      if (node->is_leaf()) {
        if (node->hash != hash) return nullptr;
        for (const auto& [k, v] : node->entries) {
          if (k == key) return &v;
        }
        return nullptr;
      }
      const uint32_t bit = Bit(hash, shift);
      if ((node->bitmap & bit) == 0) return nullptr;
      node = node->children[Index(node->bitmap, bit)].get();
    }
  }

  /// Maps `key` to `value`. Returns false, changing nothing, when `key`
  /// is already present.
  bool Insert(const std::string& key, V value) {
    if (Find(key) != nullptr) return false;
    const uint64_t hash = Hash(key);
    Node* node = Mutable(root_);
    for (int shift = 0;; shift += kBits) {
      const uint32_t bit = Bit(hash, shift);
      const size_t index = Index(node->bitmap, bit);
      if ((node->bitmap & bit) == 0) {
        node->children.insert(node->children.begin() + index,
                              NewLeaf(hash, key, std::move(value)));
        node->bitmap |= bit;
        break;
      }
      std::shared_ptr<Node>& slot = node->children[index];
      if (slot->is_leaf()) {
        if (slot->hash == hash) {
          Mutable(slot)->entries.emplace_back(key, std::move(value));
        } else {
          slot = Split(slot, NewLeaf(hash, key, std::move(value)),
                       shift + kBits);
        }
        break;
      }
      node = Mutable(slot);
    }
    ++size_;
    return true;
  }

  /// Removes `key`; false when absent. Interior nodes are never
  /// collapsed (erasure is the rare rollback path).
  bool Erase(const std::string& key) {
    if (Find(key) == nullptr) return false;
    const uint64_t hash = Hash(key);
    Node* node = Mutable(root_);
    for (int shift = 0;; shift += kBits) {
      const uint32_t bit = Bit(hash, shift);
      const size_t index = Index(node->bitmap, bit);
      std::shared_ptr<Node>& slot = node->children[index];
      if (slot->is_leaf()) {
        if (slot->entries.size() == 1) {
          node->children.erase(node->children.begin() + index);
          node->bitmap &= ~bit;
        } else {
          auto& entries = Mutable(slot)->entries;
          entries.erase(std::find_if(
              entries.begin(), entries.end(),
              [&key](const auto& entry) { return entry.first == key; }));
        }
        break;
      }
      node = Mutable(slot);
    }
    --size_;
    return true;
  }

 private:
  static constexpr int kBits = 5;

  struct Node {
    uint64_t owner = 0;
    /// Interior: bit b set <=> a child for hash slice b, stored in
    /// `children` in bit order.
    uint32_t bitmap = 0;
    std::vector<std::shared_ptr<Node>> children;
    /// Leaf: the entries (never empty), all with full hash `hash`.
    uint64_t hash = 0;
    std::vector<std::pair<std::string, V>> entries;

    bool is_leaf() const { return !entries.empty(); }
  };

  static uint64_t Hash(const std::string& key) {
    return std::hash<std::string>{}(key);
  }
  static uint32_t Bit(uint64_t hash, int shift) {
    // Two different hashes differ in a slice starting at or below bit
    // 60, so no walk or split ever reaches shift 64.
    assert(shift < 64);
    return uint32_t{1} << ((hash >> shift) & 31);
  }
  static size_t Index(uint32_t bitmap, uint32_t bit) {
    return static_cast<size_t>(std::popcount(bitmap & (bit - 1)));
  }

  std::shared_ptr<Node> NewNode() const { return CowNew<Node>(owner_); }
  std::shared_ptr<Node> NewLeaf(uint64_t hash, const std::string& key,
                                V value) const {
    auto leaf = NewNode();
    leaf->hash = hash;
    leaf->entries.emplace_back(key, std::move(value));
    return leaf;
  }
  /// An interior subtree (from hash slice `shift` down) holding leaves
  /// `a` and `b`, whose hashes differ.
  std::shared_ptr<Node> Split(std::shared_ptr<Node> a, std::shared_ptr<Node> b,
                              int shift) const {
    auto node = NewNode();
    const uint32_t bit_a = Bit(a->hash, shift);
    const uint32_t bit_b = Bit(b->hash, shift);
    if (bit_a == bit_b) {
      node->children.push_back(
          Split(std::move(a), std::move(b), shift + kBits));
    } else {
      if (bit_a > bit_b) std::swap(a, b);
      node->children.push_back(std::move(a));
      node->children.push_back(std::move(b));
    }
    node->bitmap = bit_a | bit_b;
    return node;
  }
  Node* Mutable(std::shared_ptr<Node>& slot) {
    return CowMutable(slot, owner_);
  }

  mutable uint64_t owner_ = NewCowOwner();
  std::shared_ptr<Node> root_ = NewNode();
  size_t size_ = 0;
};

}  // namespace mvopt

#endif  // MVOPT_COMMON_COW_H_
