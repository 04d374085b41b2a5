// Lattice index (§4.1): a Hasse diagram over key *sets*, supporting
// subset/superset searches without scanning every key.
//
// Nodes store sorted sets of uint32 atoms. Each node keeps its minimal
// supersets and maximal subsets (cover edges); the index keeps arrays of
// tops (no supersets) and roots (no subsets). A superset search starts
// from the tops and descends along subset edges while the
// (upward-closed) qualification predicate holds; a subset search starts
// from the roots and ascends along superset edges while the
// (downward-closed) predicate holds.
//
// Storage is flat: every key lives in one atom pool (a node records its
// offset and length), every cover-edge list in one edge pool (a list
// that outgrows its slot moves to the pool's end with double the
// capacity), and a sorted array of node ids stands in for a key map. An
// insert appends to the pools; it never rebuilds a node. Walks are
// templates over the predicate and draw their stack and visit marks
// from per-thread scratch, so a warm search allocates nothing beyond
// growing its output.
//
// Deletion is lazy: erased nodes stay as routing waypoints and are skipped
// in results, which keeps the Hasse structure trivially correct.

#ifndef MVOPT_INDEX_LATTICE_H_
#define MVOPT_INDEX_LATTICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mvopt {

class LatticeIndex {
 public:
  /// A key: sorted, duplicate-free atoms.
  using Key = std::vector<uint32_t>;
  using KeySpan = std::span<const uint32_t>;

  /// Inserts `key` (must be sorted unique); returns its node id.
  /// Re-inserting an erased key revives it.
  int Insert(KeySpan key);

  /// Node id of `key`, or -1 (erased keys included while alive=false).
  int Find(KeySpan key) const;

  /// Marks the node for `key` erased. Returns false if absent.
  bool Erase(KeySpan key);

  /// Collects live nodes whose key is a subset of `query`.
  void SearchSubsets(KeySpan query, std::vector<int>* out) const {
    SearchUp([query](KeySpan k) { return IsSubset(k, query); }, out);
  }

  /// Collects live nodes whose key is a superset of `query`.
  void SearchSupersets(KeySpan query, std::vector<int>* out) const {
    SearchDown([query](KeySpan k) { return IsSubset(query, k); }, out);
  }

  /// Generic searches over a `bool(KeySpan)` predicate. `pred` must be
  /// upward-closed for SearchDown (supersets of a passing key pass) and
  /// downward-closed for SearchUp. Results come in walk order.
  template <typename Pred>
  void SearchDown(const Pred& pred, std::vector<int>* out) const {
    Walk</*kDown=*/true, /*kLiveOnly=*/true>(pred, out);
  }
  template <typename Pred>
  void SearchUp(const Pred& pred, std::vector<int>* out) const {
    Walk</*kDown=*/false, /*kLiveOnly=*/true>(pred, out);
  }

  /// Baseline for the ablation bench: test every live node.
  template <typename Pred>
  void LinearScan(const Pred& pred, std::vector<int>* out) const {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].alive && pred(key(static_cast<int>(i)))) {
        out->push_back(static_cast<int>(i));
      }
    }
  }

  KeySpan key(int node) const {
    const Node& n = nodes_[node];
    return KeySpan(atoms_.data() + n.key_begin, n.key_size);
  }
  bool alive(int node) const { return nodes_[node].alive; }
  /// Cover edges (minimal supersets / maximal subsets), exposed so the
  /// invariant auditor can re-derive the Hasse diagram independently.
  std::span<const int> supersets(int node) const {
    return Edges(nodes_[node].up);
  }
  std::span<const int> subsets(int node) const {
    return Edges(nodes_[node].down);
  }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_live_nodes() const { return num_live_; }

  /// Structure check for tests: edges connect exactly covering pairs and
  /// tops/roots are consistent. Returns a description of the first
  /// violation, or empty.
  std::string CheckStructure() const;

  /// True if `a` is a subset of `b` (both sorted unique).
  static bool IsSubset(KeySpan a, KeySpan b);

 private:
  /// A cover-edge list: `size` ids at edges_[begin..), room for
  /// `capacity`.
  struct EdgeList {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  struct Node {
    uint32_t key_begin = 0;  ///< offset in atoms_
    uint32_t key_size = 0;
    EdgeList up;    ///< minimal supersets (cover edges up)
    EdgeList down;  ///< maximal subsets (cover edges down)
    bool alive = true;
  };

  /// Per-thread walk state: visit stamps (`mark[n] == stamp` <=>
  /// visited; every walk draws a fresh stamp, so clearing is O(1) and
  /// marks left by other indexes never collide) and the DFS stack.
  /// Thread-local, so concurrent const walks over one index share no
  /// mutable state.
  struct WalkScratch {
    std::vector<uint64_t> mark;
    std::vector<int> stack;
    uint64_t counter = 0;
  };
  static WalkScratch& ThreadScratch();

  /// Depth-first walk from the tops (kDown, along subset edges) or the
  /// roots (along superset edges), pruning below a failing node.
  /// kLiveOnly skips erased nodes in `out`; they still route.
  template <bool kDown, bool kLiveOnly, typename Pred>
  void Walk(const Pred& pred, std::vector<int>* out) const {
    WalkScratch& s = ThreadScratch();
    if (s.mark.size() < nodes_.size()) s.mark.resize(nodes_.size(), 0);
    const uint64_t stamp = ++s.counter;
    std::vector<int>& stack = s.stack;
    stack.clear();
    const std::vector<int>& starts = kDown ? tops_ : roots_;
    stack.insert(stack.end(), starts.begin(), starts.end());
    while (!stack.empty()) {
      const int n = stack.back();
      stack.pop_back();
      if (s.mark[n] == stamp) continue;
      s.mark[n] = stamp;
      const Node& node = nodes_[n];
      if (!pred(key(n))) continue;  // everything beyond fails too
      if (!kLiveOnly || node.alive) out->push_back(n);
      for (int next : Edges(kDown ? node.down : node.up)) {
        stack.push_back(next);
      }
    }
  }

  std::span<const int> Edges(const EdgeList& list) const {
    return std::span<const int>(edges_.data() + list.begin, list.size);
  }
  void AddEdge(EdgeList* list, int target);
  void RemoveEdge(EdgeList* list, int target);
  static bool Contains(std::span<const int> list, int target);
  /// Position of `key` in by_key_ (lower bound).
  size_t KeyPosition(KeySpan key) const;

  std::vector<uint32_t> atoms_;  ///< key pool
  std::vector<Node> nodes_;
  std::vector<int> edges_;       ///< edge pool
  std::vector<int> tops_;
  std::vector<int> roots_;
  std::vector<int> by_key_;      ///< node ids in key order
  int num_live_ = 0;
};

}  // namespace mvopt

#endif  // MVOPT_INDEX_LATTICE_H_
