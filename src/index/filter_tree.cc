#include "index/filter_tree.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/failpoint.h"

namespace mvopt {

namespace {

using KeySpan = LatticeIndex::KeySpan;

// `values` as a sorted unique key, into `key`.
template <typename T>
void AssignKey(const std::vector<T>& values, LatticeIndex::Key* key) {
  key->clear();
  for (T v : values) key->push_back(static_cast<uint32_t>(v));
  std::sort(key->begin(), key->end());
  key->erase(std::unique(key->begin(), key->end()), key->end());
}

}  // namespace

const char* FilterLevelName(FilterLevel level) {
  switch (level) {
    case FilterLevel::kHub:
      return "hub";
    case FilterLevel::kSourceTables:
      return "source-tables";
    case FilterLevel::kOutputExprs:
      return "output-exprs";
    case FilterLevel::kOutputColumns:
      return "output-columns";
    case FilterLevel::kResidual:
      return "residual";
    case FilterLevel::kRangeConstraints:
      return "range-constraints";
    case FilterLevel::kGroupingExprs:
      return "grouping-exprs";
    case FilterLevel::kGroupingColumns:
      return "grouping-columns";
  }
  return "?";
}

FilterTree::FilterTree()
    : spj_root_(NewNode()), agg_root_(NewNode()) {
  spj_levels_ = {FilterLevel::kHub,           FilterLevel::kSourceTables,
                 FilterLevel::kOutputExprs,   FilterLevel::kOutputColumns,
                 FilterLevel::kResidual,      FilterLevel::kRangeConstraints};
  agg_levels_ = spj_levels_;
  agg_levels_.push_back(FilterLevel::kGroupingExprs);
  agg_levels_.push_back(FilterLevel::kGroupingColumns);
}

FilterTree::FilterTree(const FilterTree& other)
    : spj_levels_(other.spj_levels_),
      agg_levels_(other.agg_levels_),
      spj_root_(other.spj_root_),
      agg_root_(other.agg_root_),
      atoms_(other.atoms_),
      num_views_(other.num_views_),
      assume_backjoins_(other.assume_backjoins_) {
  // Both trees now reach every node: neither may mutate one in place.
  other.owner_ = NewCowOwner();
}

void FilterTree::SetLevels(std::vector<FilterLevel> spj_levels,
                           std::vector<FilterLevel> agg_levels) {
  assert(num_views_ == 0 && "SetLevels before any AddView");
  spj_levels_ = std::move(spj_levels);
  agg_levels_ = std::move(agg_levels);
}

uint32_t FilterTree::Intern(const std::string& text) {
  if (const uint32_t* atom = atoms_.Find(text)) return *atom;
  const auto atom = static_cast<uint32_t>(atoms_.size());
  atoms_.Insert(text, atom);
  return atom;
}


// --- keys -------------------------------------------------------------------

std::span<const uint32_t> FilterTree::ViewKeys::Suffix(size_t from) const {
  const uint32_t* p = words.data();
  for (size_t l = 0; l < from; ++l) p += 1 + *p;
  return std::span<const uint32_t>(p, words.data() + words.size());
}

LatticeIndex::KeySpan FilterTree::ViewKeys::operator[](size_t level) const {
  const std::span<const uint32_t> suffix = Suffix(level);
  return suffix.subspan(1, suffix[0]);
}

template <typename AtomOf>
std::optional<FilterTree::ViewKeys> FilterTree::MakeViewKeys(
    const ViewDescription& d, const std::vector<FilterLevel>& levels,
    AtomOf atom_of) {
  ViewKeys keys;
  keys.levels = levels.size();
  keys.words.reserve(
      levels.size() + d.hub.size() + d.source_tables.size() +
      d.output_expr_texts.size() + d.extended_output_columns.size() +
      d.residual_texts.size() + d.reduced_range_columns.size() +
      d.grouping_expr_texts.size() + d.extended_grouping_columns.size());
  std::vector<uint32_t>& out = keys.words;
  // Each key is [#atoms, atoms...]: the atoms sorted, and unique where
  // they are ids (a description's texts are unique already).
  auto ids = [&out](const auto& list) {
    const size_t at = out.size();
    out.push_back(0);
    for (auto v : list) out.push_back(static_cast<uint32_t>(v));
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(at + 1), out.end());
    out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(at + 1),
                          out.end()),
              out.end());
    out[at] = static_cast<uint32_t>(out.size() - at - 1);
  };
  auto texts = [&out, &atom_of](const std::vector<std::string>& list) {
    const size_t at = out.size();
    out.push_back(static_cast<uint32_t>(list.size()));
    for (const auto& t : list) {
      const std::optional<uint32_t> atom = atom_of(t);
      if (!atom.has_value()) return false;
      out.push_back(*atom);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(at + 1), out.end());
    return true;
  };
  for (FilterLevel level : levels) {
    bool known = true;
    switch (level) {
      case FilterLevel::kHub:
        ids(d.hub);
        break;
      case FilterLevel::kSourceTables:
        ids(d.source_tables);
        break;
      case FilterLevel::kOutputExprs:
        known = texts(d.output_expr_texts);
        break;
      case FilterLevel::kOutputColumns:
        ids(d.extended_output_columns);
        break;
      case FilterLevel::kResidual:
        known = texts(d.residual_texts);
        break;
      case FilterLevel::kRangeConstraints:
        ids(d.reduced_range_columns);
        break;
      case FilterLevel::kGroupingExprs:
        known = texts(d.grouping_expr_texts);
        break;
      case FilterLevel::kGroupingColumns:
        ids(d.extended_grouping_columns);
        break;
    }
    if (!known) return std::nullopt;
  }
  return keys;
}

FilterTree::ViewKeys FilterTree::InternViewKeys(
    const ViewDescription& d, const std::vector<FilterLevel>& levels) {
  return *MakeViewKeys(d, levels,
                       [this](const std::string& t) -> std::optional<uint32_t> {
                         return Intern(t);
                       });
}

std::optional<FilterTree::ViewKeys> FilterTree::LookupViewKeys(
    const ViewDescription& d, const std::vector<FilterLevel>& levels) const {
  return MakeViewKeys(
      d, levels, [this](const std::string& t) -> std::optional<uint32_t> {
        if (const uint32_t* atom = atoms_.Find(t)) return *atom;
        return std::nullopt;
      });
}

// --- leaves and tails -------------------------------------------------------

bool FilterTree::Leaf::Contains(ViewId id) const {
  bool found = false;
  ForEach([&](ViewId v, const ClassList&) {
    found = v == id;
    return !found;
  });
  return found;
}

size_t FilterTree::RecordWords(const ViewDescription& view) {
  size_t size = 2;
  for (const auto& cls : view.range_constrained_classes) {
    size += 1 + cls.size();
  }
  return size;
}

uint32_t* FilterTree::WriteRecord(const ViewDescription& view, uint32_t* out) {
  *out++ = static_cast<uint32_t>(view.id);
  *out++ = static_cast<uint32_t>(view.range_constrained_classes.size());
  for (const auto& cls : view.range_constrained_classes) {
    // DescribeView stores each class sorted and unique, so it is
    // intersected as stored.
    assert(std::is_sorted(cls.begin(), cls.end()));
    *out++ = static_cast<uint32_t>(cls.size());
    out = std::copy(cls.begin(), cls.end(), out);
  }
  return out;
}

std::vector<uint32_t> FilterTree::Leaf::With(
    const ViewDescription& view) const {
  std::vector<uint32_t> out(records.size() + RecordWords(view));
  std::copy(records.begin(), records.end(), out.begin());
  WriteRecord(view, out.data() + records.size());
  return out;
}

std::vector<uint32_t> FilterTree::Leaf::Without(ViewId id) const {
  std::vector<uint32_t> out;
  const uint32_t* p = records.data();
  ForEach([&](ViewId v, const ClassList& classes) {
    if (v != id) out.insert(out.end(), p, classes.end());
    p = classes.end();
    return true;
  });
  return out;
}

FilterTree::Tail FilterTree::MakeTail(const ViewKeys& keys, size_t from,
                                      Leaf leaf, const ViewDescription* view) {
  const std::span<const uint32_t> key_words = keys.Suffix(from);
  const size_t leaf_words =
      leaf.records.size() + (view != nullptr ? RecordWords(*view) : 0);
  // One allocation holds the reference count and the whole record.
  std::shared_ptr<uint32_t[]> tail = std::make_shared_for_overwrite<uint32_t[]>(
      2 + key_words.size() + leaf_words);
  uint32_t* out = tail.get();
  *out++ = static_cast<uint32_t>(key_words.size());
  *out++ = static_cast<uint32_t>(leaf_words);
  out = std::copy(key_words.begin(), key_words.end(), out);
  out = std::copy(leaf.records.begin(), leaf.records.end(), out);
  if (view != nullptr) WriteRecord(*view, out);
  return tail;
}

std::shared_ptr<FilterTree::Node> FilterTree::SplitTail(
    const Child& tail, size_t first, size_t diverge,
    const ViewKeys& keys, const ViewDescription& view) const {
  TailKeys old_keys(tail.tail.get(), tail.skip);
  std::shared_ptr<Node> head = NewNode();
  Node* node = head.get();
  for (size_t level = first; level < diverge; ++level) {
    node->index.Insert(old_keys.Next());
    node->children.resize(1);
    node->children[0].node = NewNode();
    node = node->children[0].node.get();
  }
  // The old key first: the node is the one a chain of one-key nodes
  // would hold after the same two inserts.
  const int old_id = node->index.Insert(old_keys.Next());
  const int new_id = node->index.Insert(keys[diverge]);
  if (diverge + 1 == keys.size()) {
    const Leaf old_leaf = TailLeaf(tail.tail.get());
    node->leaves.resize(2);
    node->leaves[old_id].assign(old_leaf.records.begin(),
                                old_leaf.records.end());
    node->leaves[new_id] = Leaf().With(view);
  } else {
    node->children.resize(2);
    node->children[old_id] = Child{
        nullptr, tail.tail,
        tail.skip + static_cast<uint32_t>(diverge + 1 - first)};
    node->children[new_id] =
        Child{nullptr, MakeTail(keys, diverge + 1, Leaf(), &view), 0};
  }
  return head;
}

// --- mutation ---------------------------------------------------------------

void FilterTree::AddView(const ViewDescription& d) {
  MVOPT_FAILPOINT("filter_tree.add_view");
  const std::vector<FilterLevel>& levels =
      d.is_aggregate ? agg_levels_ : spj_levels_;
  const ViewKeys keys = InternViewKeys(d, levels);
  std::shared_ptr<Node>* slot = d.is_aggregate ? &agg_root_ : &spj_root_;
  // Descend through branching nodes (copying the shared ones) to the
  // level where the view's path ends. Each ending builds its
  // replacement off the tree and attaches it with a no-throw move as
  // the final mutation, so a failure (allocation, failpoint) leaves the
  // view on no path; only a key this insert brought to life must be
  // erased again.
  for (size_t depth = 0;; ++depth) {
    Node* node = Mutable(*slot);
    const bool last = depth + 1 == levels.size();
    const int existing = node->index.Find(keys[depth]);
    if (existing >= 0 && node->index.alive(existing)) {
      if (last) {
        std::vector<uint32_t> leaf = Leaf{node->leaves[existing]}.With(d);
        MVOPT_FAILPOINT("filter_tree.insert_leaf");
        node->leaves[existing] = std::move(leaf);
        break;
      }
      Child& child = node->children[existing];
      assert(!child.empty() && "a live key leads to a subtree");
      if (child.node != nullptr) {
        slot = &child.node;
        continue;
      }
      // The key leads to a tail: the view joins its leaf when every
      // remaining key agrees, and splits it where the first one differs.
      TailKeys tail_keys(child.tail.get(), child.skip);
      size_t diverge = depth + 1;
      while (diverge < levels.size() &&
             std::ranges::equal(tail_keys.Next(), keys[diverge])) {
        ++diverge;
      }
      Child replacement;
      if (diverge == levels.size()) {
        replacement.tail =
            MakeTail(keys, depth + 1, TailLeaf(child.tail.get()), &d);
      } else {
        replacement.node = SplitTail(child, depth + 1, diverge, keys, d);
      }
      MVOPT_FAILPOINT("filter_tree.insert_leaf");
      child = std::move(replacement);
      break;
    }
    // A new or erased key: it holds the leaf, or leads to a new tail.
    const auto id = static_cast<size_t>(node->index.Insert(keys[depth]));
    try {
      if (last) {
        std::vector<uint32_t> leaf = Leaf().With(d);
        if (node->leaves.size() <= id) node->leaves.resize(id + 1);
        MVOPT_FAILPOINT("filter_tree.insert_leaf");
        node->leaves[id] = std::move(leaf);
      } else {
        Child child{nullptr, MakeTail(keys, depth + 1, Leaf(), &d), 0};
        if (node->children.size() <= id) node->children.resize(id + 1);
        MVOPT_FAILPOINT("filter_tree.insert_leaf");
        node->children[id] = std::move(child);
      }
    } catch (...) {
      node->index.Erase(keys[depth]);
      throw;
    }
    break;
  }
  ++num_views_;
}

void FilterTree::RemoveView(const ViewDescription& d) {
  const std::vector<FilterLevel>& levels =
      d.is_aggregate ? agg_levels_ : spj_levels_;
  std::shared_ptr<Node>* slot = d.is_aggregate ? &agg_root_ : &spj_root_;
  auto not_on_tree = [&d]() {
    return std::logic_error("FilterTree::RemoveView: view " +
                            std::to_string(d.id) + " is not on the tree");
  };
  const std::optional<ViewKeys> found = LookupViewKeys(d, levels);
  if (!found.has_value()) throw not_on_tree();
  const ViewKeys& keys = *found;
  // Locate the view read-only first: a view that is not on the tree
  // changes nothing. `path[depth]` is the lattice node of its key.
  std::vector<int> path;
  path.reserve(levels.size());
  for (const Node* node = slot->get();;) {
    const size_t depth = path.size();
    const int id = node->index.Find(keys[depth]);
    if (id < 0 || !node->index.alive(id)) throw not_on_tree();
    path.push_back(id);
    if (depth + 1 == levels.size()) {
      if (!Leaf{node->leaves[id]}.Contains(d.id)) throw not_on_tree();
      break;
    }
    const Child& child = node->children[id];
    if (child.node != nullptr) {
      node = child.node.get();
      continue;
    }
    if (child.tail == nullptr) throw not_on_tree();
    TailKeys tail_keys(child.tail.get(), child.skip);
    for (size_t level = depth + 1; level < levels.size(); ++level) {
      if (!std::ranges::equal(tail_keys.Next(), keys[level])) {
        throw not_on_tree();
      }
    }
    if (!TailLeaf(child.tail.get()).Contains(d.id)) throw not_on_tree();
    break;
  }
  // Copy the path and take the view out of its leaf.
  std::vector<Node*> nodes;
  nodes.reserve(path.size());
  bool emptied = false;
  for (size_t depth = 0;; ++depth) {
    Node* node = Mutable(*slot);
    nodes.push_back(node);
    const int id = path[depth];
    if (depth + 1 == path.size() && depth + 1 == levels.size()) {
      node->leaves[id] = Leaf{node->leaves[id]}.Without(d.id);
      emptied = node->leaves[id].empty();
      break;
    }
    Child& child = node->children[id];
    if (depth + 1 < path.size()) {
      slot = &child.node;
      continue;
    }
    const std::vector<uint32_t> rest = TailLeaf(child.tail.get()).Without(d.id);
    emptied = rest.empty();
    child = emptied
                ? Child()
                : Child{nullptr, MakeTail(keys, depth + 1, Leaf{rest}, nullptr),
                        0};
    break;
  }
  // Erase, bottom-up, every key whose subtree is now empty, dropping
  // the subtree with it.
  for (size_t i = nodes.size(); emptied && i-- > 0;) {
    Node* node = nodes[i];
    node->index.Erase(keys[i]);
    if (i + 1 < levels.size()) node->children[path[i]] = Child();
    emptied = node->index.num_live_nodes() == 0;
  }
  --num_views_;
}

// --- search -----------------------------------------------------------------

void FilterTree::CountWalk(const LatticeIndex::Condition& cond,
                           FilterSearchStats* stats) {
  if (stats == nullptr) return;
  if (cond.walks_up()) {
    ++stats->subset_searches;
  } else if (cond.kind == LatticeIndex::Condition::Kind::kAll) {
    ++stats->scan_searches;
  } else {
    ++stats->superset_searches;
  }
}

FilterTree::LevelTest FilterTree::MakeLevelTest(FilterLevel level,
                                                const SearchContext& ctx,
                                                bool agg_tree) const {
  using Kind = LatticeIndex::Condition::Kind;
  auto test = [level](Kind kind, KeySpan atoms) {
    return LevelTest{level, {kind, atoms, {}}};
  };
  auto hits_every = [level](const ColumnClassList* classes) {
    return LevelTest{level, {Kind::kHitsEvery, classes->atoms, classes->ends}};
  };
  const LevelTest scan = test(Kind::kAll, {});
  switch (level) {
    case FilterLevel::kHub:
      // Hub condition (§4.2.2): hub ⊆ query source tables.
      return test(Kind::kSubsetOf, ctx.source_tables);
    case FilterLevel::kSourceTables:
      // Source table condition (§4.2.1): view tables ⊇ query tables.
      return test(Kind::kSupersetOf, ctx.source_tables);
    case FilterLevel::kOutputExprs: {
      // A required text no view carries fails every key.
      const bool impossible = agg_tree ? ctx.output_agg_exprs_impossible
                                       : ctx.output_exprs_impossible;
      return test(impossible ? Kind::kNone : Kind::kSupersetOf,
                  agg_tree ? ctx.output_agg_expr_atoms
                           : ctx.output_expr_atoms);
    }
    case FilterLevel::kOutputColumns:
      // Output column condition (§4.2.3): every query output class must
      // be hit by the view's extended output list. Upward-closed, so
      // descend from the tops. Not applicable when backjoins can recover
      // missing columns.
      if (assume_backjoins_) return scan;
      return hits_every(agg_tree ? ctx.output_classes_agg
                                 : ctx.output_classes_spj);
    case FilterLevel::kResidual:
      // Residual predicate condition (§4.2.6): view residual texts ⊆
      // query residual texts.
      return test(Kind::kSubsetOf, ctx.residual_atoms);
    case FilterLevel::kRangeConstraints:
      // Weak range constraint condition (§4.2.5); the full condition is
      // applied per view at the leaf.
      return test(Kind::kSubsetOf, ctx.extended_range_columns);
    case FilterLevel::kGroupingExprs:
      // The FD relaxation lets grouping expressions be recovered via
      // backjoins; the textual containment is no longer necessary.
      if (assume_backjoins_) return scan;
      return test(ctx.grouping_exprs_impossible ? Kind::kNone
                                                : Kind::kSupersetOf,
                  ctx.grouping_expr_atoms);
    case FilterLevel::kGroupingColumns:
      if (assume_backjoins_) return scan;
      return hits_every(ctx.grouping_classes);
  }
  assert(false && "unknown filter level");
  return scan;
}

bool FilterTree::ScanLeaf(Leaf leaf, const SearchContext& ctx,
                          std::vector<ViewId>* out, FilterSearchStats* stats,
                          QueryBudget* budget) {
  bool capped = false;
  leaf.ForEach([&](ViewId id, const ClassList& classes) {
    if (stats != nullptr) ++stats->views_range_checked;
    // Range constraint condition (§4.2.5): every range-constrained view
    // equivalence class must have a column in the query's extended
    // range constraint list.
    if (classes.All([&ctx](KeySpan cls) {
          return LatticeIndex::Intersects(cls, ctx.extended_range_columns);
        })) {
      if (budget != nullptr && budget->ConsumeCandidate()) {
        capped = true;
        return false;
      }
      out->push_back(id);
    } else if (stats != nullptr) {
      ++stats->views_range_rejected;
    }
    return true;
  });
  return capped;
}

void FilterTree::Search(const Node& node, std::span<const LevelTest> tests,
                        size_t depth, const SearchContext& ctx,
                        std::vector<int>* qualifying, std::vector<ViewId>* out,
                        FilterSearchStats* stats, QueryBudget* budget) const {
  if (budget != nullptr && budget->TickDeadline()) return;
  // This level's qualifying keys occupy qualifying[begin, end); deeper
  // levels stack theirs above and pop them before returning.
  const size_t begin = qualifying->size();
  const LevelTest& test = tests[depth];
  CountWalk(test.cond, stats);
  node.index.Search(test.cond, qualifying);
  const size_t end = qualifying->size();
  if (stats != nullptr) {
    const size_t li = static_cast<size_t>(test.level);
    ++stats->level_probes[li];
    stats->level_qualifying[li] += static_cast<int64_t>(end - begin);
    stats->lattice_nodes_visited += static_cast<int64_t>(end - begin);
  }
  const bool last = depth + 1 == tests.size();
  for (size_t i = begin; i < end; ++i) {
    const int n = (*qualifying)[i];
    if (last) {
      if (ScanLeaf(Leaf{node.leaves[n]}, ctx, out, stats, budget)) return;
      continue;
    }
    const Child& child = node.children[n];
    assert(!child.empty() && "a live key leads to a subtree");
    if (child.node != nullptr) {
      Search(*child.node, tests, depth + 1, ctx, qualifying, out, stats,
             budget);
    } else {
      SearchTail(child.tail.get(), child.skip, tests, depth + 1, ctx, out,
                 stats, budget);
    }
    if (budget != nullptr && budget->exhausted()) return;
  }
  qualifying->resize(begin);
}

void FilterTree::SearchTail(const uint32_t* tail, uint32_t skip,
                            std::span<const LevelTest> tests, size_t depth,
                            const SearchContext& ctx,
                            std::vector<ViewId>* out, FilterSearchStats* stats,
                            QueryBudget* budget) const {
  // Each level evaluates exactly as a one-key node would: a deadline
  // tick, one walk of the level's kind, one probe, and the key
  // qualifying or ending the path.
  TailKeys keys(tail, skip);
  for (; depth < tests.size(); ++depth) {
    if (budget != nullptr && budget->TickDeadline()) return;
    const LevelTest& test = tests[depth];
    CountWalk(test.cond, stats);
    const bool qualifies = test.cond.Holds(keys.Next());
    if (stats != nullptr) {
      const size_t li = static_cast<size_t>(test.level);
      ++stats->level_probes[li];
      if (qualifies) {
        ++stats->level_qualifying[li];
        ++stats->lattice_nodes_visited;
      }
    }
    if (!qualifies) return;
  }
  ScanLeaf(TailLeaf(tail), ctx, out, stats, budget);
}

void FilterTree::BuildSearchContext(const QueryDescription& query,
                                    SearchContext* ctx) const {
  AssignKey(query.source_tables, &ctx->source_tables);
  AssignKey(query.extended_range_columns, &ctx->extended_range_columns);

  auto intern_required =
      [this](std::initializer_list<const std::vector<std::string>*> lists,
             Key* key, bool* impossible) {
        key->clear();
        *impossible = false;
        for (const std::vector<std::string>* texts : lists) {
          for (const auto& t : *texts) {
            const uint32_t* atom = atoms_.Find(t);
            if (atom == nullptr) {
              *impossible = true;  // no view carries this text
              return;
            }
            key->push_back(*atom);
          }
        }
        std::sort(key->begin(), key->end());
        key->erase(std::unique(key->begin(), key->end()), key->end());
      };
  intern_required({&query.output_expr_texts}, &ctx->output_expr_atoms,
                  &ctx->output_exprs_impossible);
  intern_required({&query.output_expr_texts, &query.agg_expr_texts},
                  &ctx->output_agg_expr_atoms,
                  &ctx->output_agg_exprs_impossible);
  intern_required({&query.grouping_expr_texts}, &ctx->grouping_expr_atoms,
                  &ctx->grouping_exprs_impossible);

  // Residual atoms: unknown query texts can never appear in a view key,
  // so they are simply dropped from the superset-side set.
  ctx->residual_atoms.clear();
  for (const auto& t : query.residual_texts) {
    if (const uint32_t* atom = atoms_.Find(t)) {
      ctx->residual_atoms.push_back(*atom);
    }
  }
  std::sort(ctx->residual_atoms.begin(), ctx->residual_atoms.end());

  ctx->output_classes_spj = &query.output_column_classes_spj;
  ctx->output_classes_agg = &query.output_column_classes_agg;
  ctx->grouping_classes = &query.grouping_column_classes;

  ctx->spj_tests.clear();
  for (FilterLevel level : spj_levels_) {
    ctx->spj_tests.push_back(MakeLevelTest(level, *ctx, /*agg_tree=*/false));
  }
  ctx->agg_tests.clear();
  if (!query.is_aggregate) return;  // only the SPJ tree is searched
  for (FilterLevel level : agg_levels_) {
    ctx->agg_tests.push_back(MakeLevelTest(level, *ctx, /*agg_tree=*/true));
  }
}

std::vector<ViewId> FilterTree::FindCandidates(const QueryDescription& query,
                                               QueryContext& qctx,
                                               FilterSearchStats* stats) const {
  // Per-thread scratch: once warm, a probe allocates only its result.
  thread_local SearchContext ctx;
  thread_local std::vector<int> qualifying;
  BuildSearchContext(query, &ctx);
  qualifying.clear();
  QueryBudget* budget = qctx.budget();
  std::vector<ViewId> out;
  if (spj_root_->index.num_live_nodes() > 0) {
    Search(*spj_root_, ctx.spj_tests, 0, ctx, &qualifying, &out, stats,
           budget);
  }
  if (query.is_aggregate && agg_root_->index.num_live_nodes() > 0) {
    Search(*agg_root_, ctx.agg_tests, 0, ctx, &qualifying, &out, stats,
           budget);
  }
  return out;
}

}  // namespace mvopt
