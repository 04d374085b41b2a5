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
// insert appends to the pools; it never rebuilds a node.
//
// Postings (DESIGN.md §17): once the index holds two keys, every atom
// that some key holds has a bitset over node ids, the nodes whose key
// holds it. Search decides a Condition for every node at once from
// them, in a few word operations, and then walks the Hasse diagram
// through passing nodes only, which returns exactly what the predicate
// walk (SearchDown / SearchUp) returns, in its order. The predicate
// walk remains as Insert's structural walk and as a reference. Walks
// draw their stacks and visit marks from per-thread scratch, so a warm
// search allocates nothing beyond growing its output.
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

  /// A qualification condition on keys, decidable per key (Holds) and,
  /// through the postings, for every node of an index at once (Search).
  struct Condition {
    enum class Kind {
      kNone,        ///< no key qualifies
      kAll,         ///< every key qualifies
      kSubsetOf,    ///< key ⊆ atoms; downward-closed
      kSupersetOf,  ///< key ⊇ atoms; upward-closed
      kHitsEvery,   ///< key meets every class; upward-closed
    };
    Kind kind = Kind::kAll;
    /// kSubsetOf / kSupersetOf: the sorted query key. kHitsEvery: the
    /// classes back to back, class i ending at class_ends[i], each
    /// sorted unique.
    KeySpan atoms;
    std::span<const uint32_t> class_ends;

    bool Holds(KeySpan key) const;
    /// Subset conditions walk up from the roots, the rest down from the
    /// tops.
    bool walks_up() const { return kind == Kind::kSubsetOf; }
  };

  /// Collects the live nodes satisfying `cond`, in the order of the
  /// predicate walk over `cond.Holds` (SearchUp when cond.walks_up(),
  /// else SearchDown). A one-key index tests its key directly.
  void Search(const Condition& cond, std::vector<int>* out) const;

  /// Collects live nodes whose key is a subset of `query`.
  void SearchSubsets(KeySpan query, std::vector<int>* out) const {
    Search({Condition::Kind::kSubsetOf, query, {}}, out);
  }

  /// Collects live nodes whose key is a superset of `query`.
  void SearchSupersets(KeySpan query, std::vector<int>* out) const {
    Search({Condition::Kind::kSupersetOf, query, {}}, out);
  }

  /// The predicate walks: Insert's structural walk, and the reference
  /// Search is checked against. `pred` must be upward-closed for
  /// SearchDown (supersets of a passing key pass) and downward-closed for
  /// SearchUp. Results come in walk order.
  template <typename Pred>
  void SearchDown(const Pred& pred, std::vector<int>* out) const {
    Walk</*kDown=*/true, /*kLiveOnly=*/true>(pred, out);
  }
  template <typename Pred>
  void SearchUp(const Pred& pred, std::vector<int>* out) const {
    Walk</*kDown=*/false, /*kLiveOnly=*/true>(pred, out);
  }

  /// Tests every live node: the ablation bench's baseline, and the set
  /// the tests and the auditor hold Search to.
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

  /// The postings, exposed so the invariant auditor can check them
  /// against the keys: `posting_words()` 64-bit words per bitset (0 while
  /// the index holds fewer than two keys, then enough for every node),
  /// and one bitset per atom some key holds, in ascending atom order.
  int posting_words() const { return static_cast<int>(words_); }
  int num_posting_atoms() const { return static_cast<int>(rows_); }
  uint32_t posting_atom(int row) const {
    return static_cast<uint32_t>(postings_[Row(row)]);
  }
  std::span<const uint64_t> posting(int row) const {
    return std::span<const uint64_t>(postings_.data() + Row(row) + 1, words_);
  }

  /// Structure check for tests: edges connect exactly covering pairs and
  /// tops/roots are consistent. Returns a description of the first
  /// violation, or empty.
  std::string CheckStructure() const;

  /// True if `a` is a subset of `b` (both sorted unique).
  static bool IsSubset(KeySpan a, KeySpan b);
  /// True if sorted keys `a` and `b` share an atom.
  static bool Intersects(KeySpan a, KeySpan b);

 private:
  /// Tests corrupt the postings through it to show the auditor flags
  /// them.
  friend class LatticeIndexTestPeer;

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

  /// Per-thread state of Search over more than 64 nodes: the bitsets of
  /// the nodes passing the condition, of those the walk visited and of a
  /// class's hits; and every walk's DFS stack. Up to 64 nodes, the
  /// bitsets are single words on the stack.
  struct SearchScratch {
    std::vector<uint64_t> pass;
    std::vector<uint64_t> seen;
    std::vector<uint64_t> hit;
    std::vector<int> stack;
  };
  static SearchScratch& ThreadSearchScratch();

  /// Sets `pass` to the nodes satisfying `cond`, using `hit` as scratch;
  /// false when none does. Both hold kWords words, or words_ when
  /// kWords is 0.
  template <size_t kWords>
  bool Pass(const Condition& cond, uint64_t* pass, uint64_t* hit) const;
  /// The predicate walk, pushing only the nodes set in `pass` and
  /// marking visits in `seen`.
  template <bool kDown, size_t kWords>
  void WalkPassing(const uint64_t* pass, uint64_t* seen,
                   std::vector<int>& stack, std::vector<int>* out) const;
  /// Search over two or more nodes: decides `cond` through the
  /// postings, then walks the passing nodes.
  template <size_t kWords>
  void SearchPostings(const Condition& cond, uint64_t* pass, uint64_t* seen,
                      uint64_t* hit, std::vector<int>* out) const;

  /// Offset in postings_ of the row of the `row`-th posting atom: the
  /// atom, then its words_ bitset words.
  size_t Row(int row) const { return static_cast<size_t>(row) * (words_ + 1); }
  /// Index of the first posting row whose atom is not below `atom`.
  int PostingLowerBound(uint32_t atom) const;
  /// Row index of `atom`, or -1.
  int FindPosting(uint32_t atom) const;
  /// Adds node `id`'s atoms to the postings, widening every bitset when
  /// `id` needs another word and inserting a row for each new atom.
  void Post(int id);

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
  /// Posting rows in ascending atom order, each [atom, words_ bitset
  /// words]; empty while the index holds fewer than two keys.
  std::vector<uint64_t> postings_;
  uint32_t rows_ = 0;   ///< posting rows: distinct atoms of the keys
  uint32_t words_ = 0;  ///< bitset words per row
  int num_live_ = 0;
};

}  // namespace mvopt

#endif  // MVOPT_INDEX_LATTICE_H_
