#include "index/lattice.h"

#include <algorithm>
#include <cassert>

namespace mvopt {

namespace {

bool SameKey(LatticeIndex::KeySpan a, LatticeIndex::KeySpan b) {
  return std::ranges::equal(a, b);
}

}  // namespace

LatticeIndex::WalkScratch& LatticeIndex::ThreadScratch() {
  thread_local WalkScratch scratch;
  return scratch;
}

bool LatticeIndex::IsSubset(KeySpan a, KeySpan b) {
  if (a.size() > b.size()) return false;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == a.size();
}

bool LatticeIndex::Contains(std::span<const int> list, int target) {
  return std::find(list.begin(), list.end(), target) != list.end();
}

size_t LatticeIndex::KeyPosition(KeySpan key) const {
  auto it = std::lower_bound(
      by_key_.begin(), by_key_.end(), key, [this](int n, KeySpan k) {
        return std::ranges::lexicographical_compare(this->key(n), k);
      });
  return static_cast<size_t>(it - by_key_.begin());
}

int LatticeIndex::Find(KeySpan key) const {
  const size_t pos = KeyPosition(key);
  if (pos < by_key_.size() && SameKey(this->key(by_key_[pos]), key)) {
    return by_key_[pos];
  }
  return -1;
}

void LatticeIndex::AddEdge(EdgeList* list, int target) {
  if (list->size == list->capacity) {
    // Move the list to the pool's end with room to grow; the old slot
    // is left behind.
    const auto begin = static_cast<uint32_t>(edges_.size());
    const uint32_t capacity = std::max<uint32_t>(2, list->capacity * 2);
    edges_.resize(edges_.size() + capacity);
    std::copy_n(edges_.begin() + list->begin, list->size,
                edges_.begin() + begin);
    list->begin = begin;
    list->capacity = capacity;
  }
  edges_[list->begin + list->size] = target;
  ++list->size;
}

void LatticeIndex::RemoveEdge(EdgeList* list, int target) {
  auto first = edges_.begin() + list->begin;
  auto last = first + list->size;
  list->size = static_cast<uint32_t>(std::remove(first, last, target) - first);
}

int LatticeIndex::Insert(KeySpan key) {
  assert(std::is_sorted(key.begin(), key.end()));
  const size_t pos = KeyPosition(key);
  if (pos < by_key_.size() && SameKey(this->key(by_key_[pos]), key)) {
    Node& node = nodes_[by_key_[pos]];
    if (!node.alive) {
      node.alive = true;
      ++num_live_;
    }
    return by_key_[pos];
  }

  // Locate minimal supersets M and maximal subsets X of the new key:
  // structural walks that include erased nodes (they still route).
  thread_local std::vector<int> supersets;
  thread_local std::vector<int> subsets;
  thread_local std::vector<int> minimal;
  thread_local std::vector<int> maximal;
  supersets.clear();
  subsets.clear();
  minimal.clear();
  maximal.clear();
  Walk</*kDown=*/true, /*kLiveOnly=*/false>(
      [key](KeySpan k) { return IsSubset(key, k); }, &supersets);
  for (int s : supersets) {
    bool is_minimal = true;
    for (int s2 : supersets) {
      if (s2 != s && IsSubset(this->key(s2), this->key(s))) {
        is_minimal = false;
        break;
      }
    }
    if (is_minimal) minimal.push_back(s);
  }
  Walk</*kDown=*/false, /*kLiveOnly=*/false>(
      [key](KeySpan k) { return IsSubset(k, key); }, &subsets);
  for (int s : subsets) {
    bool is_maximal = true;
    for (int s2 : subsets) {
      if (s2 != s && IsSubset(this->key(s), this->key(s2))) {
        is_maximal = false;
        break;
      }
    }
    if (is_maximal) maximal.push_back(s);
  }

  const int id = static_cast<int>(nodes_.size());
  Node node;
  node.key_begin = static_cast<uint32_t>(atoms_.size());
  node.key_size = static_cast<uint32_t>(key.size());
  atoms_.insert(atoms_.end(), key.begin(), key.end());
  nodes_.push_back(node);
  by_key_.insert(by_key_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  ++num_live_;

  // Remove cover edges between X and M now that the new node interposes.
  for (int x : maximal) {
    for (int m : minimal) {
      if (Contains(Edges(nodes_[x].up), m)) {
        RemoveEdge(&nodes_[x].up, m);
        RemoveEdge(&nodes_[m].down, x);
      }
    }
  }
  auto erase_from = [](std::vector<int>* v, int x) {
    v->erase(std::remove(v->begin(), v->end(), x), v->end());
  };
  // Wire the new node in.
  for (int m : minimal) {
    if (nodes_[m].down.size == 0) erase_from(&roots_, m);
    AddEdge(&nodes_[id].up, m);
    AddEdge(&nodes_[m].down, id);
  }
  for (int x : maximal) {
    if (nodes_[x].up.size == 0) erase_from(&tops_, x);
    AddEdge(&nodes_[x].up, id);
    AddEdge(&nodes_[id].down, x);
  }
  if (minimal.empty()) tops_.push_back(id);
  if (maximal.empty()) roots_.push_back(id);
  return id;
}

bool LatticeIndex::Erase(KeySpan key) {
  const int n = Find(key);
  if (n < 0 || !nodes_[n].alive) return false;
  nodes_[n].alive = false;
  --num_live_;
  return true;
}

std::string LatticeIndex::CheckStructure() const {
  auto describe = [this](int n) {
    std::string s = "node " + std::to_string(n) + " {";
    for (uint32_t a : key(n)) s += std::to_string(a) + ",";
    return s + "}";
  };
  const int n = num_nodes();
  for (int i = 0; i < n; ++i) {
    for (int m : supersets(i)) {
      if (!IsSubset(key(i), key(m)) || SameKey(key(i), key(m))) {
        return describe(i) + " superset edge to non-strict-superset " +
               describe(m);
      }
      // Cover property: nothing strictly between.
      for (int z = 0; z < n; ++z) {
        if (z == i || z == m) continue;
        if (IsSubset(key(i), key(z)) && !SameKey(key(z), key(i)) &&
            IsSubset(key(z), key(m)) && !SameKey(key(z), key(m))) {
          return describe(i) + " -> " + describe(m) +
                 " is not a cover edge: " + describe(z) + " lies between";
        }
      }
      if (!Contains(subsets(m), i)) {
        return "missing back pointer " + describe(m);
      }
    }
    const bool is_top = supersets(i).empty();
    if (is_top != Contains(tops_, i)) return describe(i) + " tops mismatch";
    const bool is_root = subsets(i).empty();
    if (is_root != Contains(roots_, i)) return describe(i) + " roots mismatch";
  }
  for (size_t k = 0; k < by_key_.size(); ++k) {
    if (k > 0 && !std::ranges::lexicographical_compare(key(by_key_[k - 1]),
                                                        key(by_key_[k]))) {
      return describe(by_key_[k]) + " out of key order";
    }
  }
  if (by_key_.size() != nodes_.size()) return "key order misses nodes";
  return "";
}

}  // namespace mvopt
