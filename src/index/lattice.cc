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

LatticeIndex::SearchScratch& LatticeIndex::ThreadSearchScratch() {
  thread_local SearchScratch scratch;
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

bool LatticeIndex::Intersects(KeySpan a, KeySpan b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

bool LatticeIndex::Condition::Holds(KeySpan key) const {
  switch (kind) {
    case Kind::kNone:
      return false;
    case Kind::kAll:
      return true;
    case Kind::kSubsetOf:
      return IsSubset(key, atoms);
    case Kind::kSupersetOf:
      return IsSubset(atoms, key);
    case Kind::kHitsEvery: {
      uint32_t begin = 0;
      for (uint32_t end : class_ends) {
        if (!Intersects(key, atoms.subspan(begin, end - begin))) return false;
        begin = end;
      }
      return true;
    }
  }
  return false;
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

int LatticeIndex::PostingLowerBound(uint32_t atom) const {
  int lo = 0;
  int hi = num_posting_atoms();
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (posting_atom(mid) < atom) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int LatticeIndex::FindPosting(uint32_t atom) const {
  const int row = PostingLowerBound(atom);
  return row < num_posting_atoms() && posting_atom(row) == atom ? row : -1;
}

void LatticeIndex::Post(int id) {
  const uint32_t need = static_cast<uint32_t>(id) / 64 + 1;
  if (need > words_) {
    // Widen every row to `need` words; the new words are empty.
    std::vector<uint64_t> wider(rows_ * (need + 1), 0);
    for (size_t r = 0; r < rows_; ++r) {
      std::copy_n(postings_.begin() + static_cast<std::ptrdiff_t>(
                                          r * (words_ + 1)),
                  words_ + 1, wider.begin() + static_cast<std::ptrdiff_t>(
                                                  r * (need + 1)));
    }
    postings_.swap(wider);
    words_ = need;
  }
  const uint64_t bit = uint64_t{1} << (static_cast<uint32_t>(id) % 64);
  const size_t word = 1 + static_cast<uint32_t>(id) / 64;
  for (uint32_t atom : key(id)) {
    const int row = PostingLowerBound(atom);
    if (row == num_posting_atoms() || posting_atom(row) != atom) {
      const auto at = postings_.begin() + static_cast<std::ptrdiff_t>(Row(row));
      postings_.insert(at, words_ + 1, 0);
      postings_[Row(row)] = atom;
      ++rows_;
    }
    postings_[Row(row) + word] |= bit;
  }
}

template <size_t kWords>
bool LatticeIndex::Pass(const Condition& cond, uint64_t* pass,
                        uint64_t* hit) const {
  const size_t w = kWords != 0 ? kWords : words_;
  // Every node passes until a condition's postings say otherwise.
  std::fill_n(pass, w, ~uint64_t{0});
  if (nodes_.size() % 64 != 0) {
    pass[w - 1] = (uint64_t{1} << (nodes_.size() % 64)) - 1;
  }
  switch (cond.kind) {
    case Condition::Kind::kNone:
      return false;
    case Condition::Kind::kAll:
      return true;
    case Condition::Kind::kSubsetOf: {
      // A key fails when it holds an atom the query key lacks: clear the
      // postings of every such atom.
      const KeySpan query = cond.atoms;
      size_t j = 0;
      const int rows = num_posting_atoms();
      for (int r = 0; r < rows; ++r) {
        const uint64_t* row = postings_.data() + Row(r);
        while (j < query.size() && query[j] < row[0]) ++j;
        if (j < query.size() && query[j] == row[0]) continue;
        for (size_t i = 0; i < w; ++i) pass[i] &= ~row[1 + i];
      }
      break;
    }
    case Condition::Kind::kSupersetOf:
      // A key passes when it holds every query atom: AND their postings.
      for (uint32_t atom : cond.atoms) {
        const int r = FindPosting(atom);
        if (r < 0) return false;
        const uint64_t* bits = postings_.data() + Row(r) + 1;
        for (size_t i = 0; i < w; ++i) pass[i] &= bits[i];
      }
      break;
    case Condition::Kind::kHitsEvery: {
      // A key passes when it holds an atom of every class: AND, over the
      // classes, the OR of each class's postings.
      uint32_t begin = 0;
      for (uint32_t end : cond.class_ends) {
        std::fill_n(hit, w, 0);
        for (uint32_t atom : cond.atoms.subspan(begin, end - begin)) {
          const int r = FindPosting(atom);
          if (r < 0) continue;
          const uint64_t* bits = postings_.data() + Row(r) + 1;
          for (size_t i = 0; i < w; ++i) hit[i] |= bits[i];
        }
        for (size_t i = 0; i < w; ++i) pass[i] &= hit[i];
        begin = end;
      }
      break;
    }
  }
  for (size_t i = 0; i < w; ++i) {
    if (pass[i] != 0) return true;
  }
  return false;
}

template <bool kDown, size_t kWords>
void LatticeIndex::WalkPassing(const uint64_t* pass, uint64_t* seen,
                               std::vector<int>& stack,
                               std::vector<int>* out) const {
  // The predicate walk pops a failing node only to mark it and drop it:
  // it never emits or expands one. Pushing passing nodes only therefore
  // leaves the order in which passing nodes pop unchanged.
  std::fill_n(seen, kWords != 0 ? kWords : words_, 0);
  auto test = [](const uint64_t* bits, int n) {
    return (bits[static_cast<uint32_t>(n) / 64] >>
            (static_cast<uint32_t>(n) % 64)) & 1;
  };
  stack.clear();
  for (int n : kDown ? tops_ : roots_) {
    if (test(pass, n)) stack.push_back(n);
  }
  while (!stack.empty()) {
    const int n = stack.back();
    stack.pop_back();
    if (test(seen, n)) continue;
    seen[static_cast<uint32_t>(n) / 64] |= uint64_t{1}
                                           << (static_cast<uint32_t>(n) % 64);
    const Node& node = nodes_[n];
    if (node.alive) out->push_back(n);
    for (int next : Edges(kDown ? node.down : node.up)) {
      // A visited node would pop only to be skipped.
      if (test(pass, next) && !test(seen, next)) stack.push_back(next);
    }
  }
}

template <size_t kWords>
void LatticeIndex::SearchPostings(const Condition& cond, uint64_t* pass,
                                  uint64_t* seen, uint64_t* hit,
                                  std::vector<int>* out) const {
  if (!Pass<kWords>(cond, pass, hit)) return;
  std::vector<int>& stack = ThreadSearchScratch().stack;
  if (cond.walks_up()) {
    WalkPassing</*kDown=*/false, kWords>(pass, seen, stack, out);
  } else {
    WalkPassing</*kDown=*/true, kWords>(pass, seen, stack, out);
  }
}

void LatticeIndex::Search(const Condition& cond, std::vector<int>* out) const {
  if (nodes_.size() < 2) {
    // A one-key index tests its key directly: the node is its only top
    // and root.
    if (!nodes_.empty() && nodes_[0].alive && cond.Holds(key(0))) {
      out->push_back(0);
    }
    return;
  }
  if (words_ == 1) {
    uint64_t pass = 0;
    uint64_t seen = 0;
    uint64_t hit = 0;
    SearchPostings<1>(cond, &pass, &seen, &hit, out);
    return;
  }
  SearchScratch& s = ThreadSearchScratch();
  if (s.pass.size() < words_) {
    s.pass.resize(words_);
    s.seen.resize(words_);
    s.hit.resize(words_);
  }
  SearchPostings<0>(cond, s.pass.data(), s.seen.data(), s.hit.data(), out);
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
  // Postings start with the second key: a one-key search tests its key.
  if (id == 1) Post(0);
  if (id >= 1) Post(id);
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
