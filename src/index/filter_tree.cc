#include "index/filter_tree.h"

#include <algorithm>
#include <cassert>

#include "common/failpoint.h"

namespace mvopt {

namespace {

// True if sorted keys `a` and `b` intersect.
bool Intersects(const LatticeIndex::Key& a, const LatticeIndex::Key& b) {
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

template <typename T>
LatticeIndex::Key ToKey(const std::vector<T>& values) {
  LatticeIndex::Key key;
  key.reserve(values.size());
  for (T v : values) key.push_back(static_cast<uint32_t>(v));
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
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

LatticeIndex::Key FilterTree::ViewKey(const ViewDescription& d,
                                      FilterLevel level) {
  switch (level) {
    case FilterLevel::kHub:
      return ToKey(d.hub);
    case FilterLevel::kSourceTables:
      return ToKey(d.source_tables);
    case FilterLevel::kOutputExprs: {
      LatticeIndex::Key key;
      for (const auto& t : d.output_expr_texts) key.push_back(Intern(t));
      std::sort(key.begin(), key.end());
      return key;
    }
    case FilterLevel::kOutputColumns:
      return ToKey(d.extended_output_columns);
    case FilterLevel::kResidual: {
      LatticeIndex::Key key;
      for (const auto& t : d.residual_texts) key.push_back(Intern(t));
      std::sort(key.begin(), key.end());
      return key;
    }
    case FilterLevel::kRangeConstraints:
      return ToKey(d.reduced_range_columns);
    case FilterLevel::kGroupingExprs: {
      LatticeIndex::Key key;
      for (const auto& t : d.grouping_expr_texts) key.push_back(Intern(t));
      std::sort(key.begin(), key.end());
      return key;
    }
    case FilterLevel::kGroupingColumns:
      return ToKey(d.extended_grouping_columns);
  }
  return {};
}

void FilterTree::AddView(std::shared_ptr<const ViewDescription> view) {
  MVOPT_FAILPOINT("filter_tree.add_view");
  const ViewDescription& d = *view;
  const std::vector<FilterLevel>& levels =
      d.is_aggregate ? agg_levels_ : spj_levels_;
  std::shared_ptr<Node>* slot = d.is_aggregate ? &agg_root_ : &spj_root_;
  // Undo log: lattice keys this insert brought to life, so a failure
  // mid-path (allocation, failpoint) can re-erase exactly them. Keys
  // that were already live belong to other views and must survive. The
  // logged nodes are this tree's own (Mutable copied shared ones first),
  // so the undo never touches a node another generation reaches.
  struct Step {
    Node* node;
    LatticeIndex::Key key;
    bool created;
  };
  std::vector<Step> steps;
  steps.reserve(levels.size());
  try {
    for (size_t depth = 0; depth < levels.size(); ++depth) {
      Node* node = Mutable(*slot);
      LatticeIndex::Key key = ViewKey(d, levels[depth]);
      const int existing = node->index.Find(key);
      const bool created = existing < 0 || !node->index.alive(existing);
      int lattice_node = node->index.Insert(key);
      steps.push_back(Step{node, std::move(key), created});
      const bool last = depth + 1 == levels.size();
      if (last) {
        MVOPT_FAILPOINT("filter_tree.insert_leaf");
        if (node->leaves.size() <= static_cast<size_t>(lattice_node)) {
          node->leaves.resize(lattice_node + 1);
        }
        node->leaves[lattice_node].push_back(view);
      } else {
        if (node->children.size() <= static_cast<size_t>(lattice_node)) {
          node->children.resize(lattice_node + 1);
        }
        if (node->children[lattice_node] == nullptr) {
          node->children[lattice_node] = NewNode();
        }
        slot = &node->children[lattice_node];
      }
    }
  } catch (...) {
    // The leaf push is the final mutation, so on any failure the view id
    // is not in a leaf yet; erasing the keys this insert created (lazy
    // deletion keeps them as dead routing waypoints) restores the
    // searchable state exactly.
    for (auto rit = steps.rbegin(); rit != steps.rend(); ++rit) {
      if (rit->created) rit->node->index.Erase(rit->key);
    }
    throw;
  }
  ++num_views_;
}

void FilterTree::RemoveView(const ViewDescription& d) {
  const std::vector<FilterLevel>& levels =
      d.is_aggregate ? agg_levels_ : spj_levels_;
  std::shared_ptr<Node>* slot = d.is_aggregate ? &agg_root_ : &spj_root_;
  for (size_t depth = 0; depth < levels.size(); ++depth) {
    Node* node = Mutable(*slot);
    LatticeIndex::Key key = ViewKey(d, levels[depth]);
    int lattice_node = node->index.Find(key);
    assert(lattice_node >= 0 && "view path must exist");
    const bool last = depth + 1 == levels.size();
    if (last) {
      auto& leaf = node->leaves[lattice_node];
      leaf.erase(std::remove_if(leaf.begin(), leaf.end(),
                                [&d](const auto& v) { return v->id == d.id; }),
                 leaf.end());
      if (leaf.empty()) node->index.Erase(key);
    } else {
      slot = &node->children[lattice_node];
    }
  }
  --num_views_;
}

void FilterTree::SearchLevel(const Node& node, FilterLevel level,
                             const SearchContext& ctx, bool agg_tree,
                             std::vector<int>* out,
                             FilterSearchStats* stats) const {
  // Lattice search kinds by level (the §4.4 walk each condition uses);
  // recorded before the dispatch so impossible-key early returns still
  // count as a performed search.
  if (stats != nullptr) {
    switch (level) {
      case FilterLevel::kHub:
      case FilterLevel::kResidual:
      case FilterLevel::kRangeConstraints:
        ++stats->subset_searches;
        break;
      case FilterLevel::kSourceTables:
      case FilterLevel::kOutputExprs:
      case FilterLevel::kGroupingExprs:
        ++stats->superset_searches;
        break;
      case FilterLevel::kOutputColumns:
      case FilterLevel::kGroupingColumns:
        ++stats->scan_searches;
        break;
    }
  }
  switch (level) {
    case FilterLevel::kHub:
      // Hub condition (§4.2.2): hub ⊆ query source tables.
      node.index.SearchSubsets(ctx.source_tables, out);
      return;
    case FilterLevel::kSourceTables:
      // Source table condition (§4.2.1): view tables ⊇ query tables.
      node.index.SearchSupersets(ctx.source_tables, out);
      return;
    case FilterLevel::kOutputExprs: {
      const bool impossible = agg_tree ? ctx.output_agg_exprs_impossible
                                       : ctx.output_exprs_impossible;
      if (impossible) return;  // a required text exists in no view
      const LatticeIndex::Key& atoms =
          agg_tree ? ctx.output_agg_expr_atoms : ctx.output_expr_atoms;
      node.index.SearchSupersets(atoms, out);
      return;
    }
    case FilterLevel::kOutputColumns: {
      // Output column condition (§4.2.3): every query output class must
      // be hit by the view's extended output list. Upward-closed, so
      // descend from the tops. Not applicable when backjoins can recover
      // missing columns.
      if (assume_backjoins_) {
        node.index.SearchDown([](const LatticeIndex::Key&) { return true; },
                              out);
        return;
      }
      const auto& classes =
          agg_tree ? ctx.output_classes_agg : ctx.output_classes_spj;
      node.index.SearchDown(
          [&classes](const LatticeIndex::Key& key) {
            for (const auto& cls : classes) {
              if (!Intersects(key, cls)) return false;
            }
            return true;
          },
          out);
      return;
    }
    case FilterLevel::kResidual:
      // Residual predicate condition (§4.2.6): view residual texts ⊆
      // query residual texts.
      node.index.SearchSubsets(ctx.residual_atoms, out);
      return;
    case FilterLevel::kRangeConstraints:
      // Weak range constraint condition (§4.2.5); the full condition is
      // applied per view after the leaf is reached.
      node.index.SearchSubsets(ctx.extended_range_columns, out);
      return;
    case FilterLevel::kGroupingExprs:
      if (assume_backjoins_) {
        // The FD relaxation lets grouping expressions be recovered via
        // backjoins; the textual containment is no longer necessary.
        node.index.SearchDown([](const LatticeIndex::Key&) { return true; },
                              out);
        return;
      }
      if (ctx.grouping_exprs_impossible) return;
      node.index.SearchSupersets(ctx.grouping_expr_atoms, out);
      return;
    case FilterLevel::kGroupingColumns:
      if (assume_backjoins_) {
        node.index.SearchDown([](const LatticeIndex::Key&) { return true; },
                              out);
        return;
      }
      node.index.SearchDown(
          [&ctx](const LatticeIndex::Key& key) {
            for (const auto& cls : ctx.grouping_classes) {
              if (!Intersects(key, cls)) return false;
            }
            return true;
          },
          out);
      return;
  }
}

bool FilterTree::PassesFullRangeCondition(const ViewDescription& view,
                                          const SearchContext& ctx) {
  // Range constraint condition (§4.2.5): every range-constrained view
  // equivalence class must have a column in the query's extended range
  // constraint list. DescribeView stores each class sorted and unique,
  // so it is intersected as stored.
  for (const auto& cls : view.range_constrained_classes) {
    assert(std::is_sorted(cls.begin(), cls.end()));
    if (!Intersects(cls, ctx.extended_range_columns)) return false;
  }
  return true;
}

void FilterTree::Search(const Node& node,
                        const std::vector<FilterLevel>& levels, size_t depth,
                        const SearchContext& ctx, bool agg_tree,
                        std::vector<ViewId>* out, FilterSearchStats* stats,
                        QueryBudget* budget) const {
  if (budget != nullptr && budget->TickDeadline()) return;
  std::vector<int> qualifying;
  SearchLevel(node, levels[depth], ctx, agg_tree, &qualifying, stats);
  if (stats != nullptr) {
    const size_t li = static_cast<size_t>(levels[depth]);
    ++stats->level_probes[li];
    stats->level_qualifying[li] += static_cast<int64_t>(qualifying.size());
    stats->lattice_nodes_visited += static_cast<int64_t>(qualifying.size());
  }
  const bool last = depth + 1 == levels.size();
  for (int n : qualifying) {
    if (last) {
      if (static_cast<size_t>(n) >= node.leaves.size()) continue;
      for (const auto& view : node.leaves[n]) {
        if (stats != nullptr) ++stats->views_range_checked;
        if (PassesFullRangeCondition(*view, ctx)) {
          if (budget != nullptr && budget->ConsumeCandidate()) return;
          out->push_back(view->id);
        } else if (stats != nullptr) {
          ++stats->views_range_rejected;
        }
      }
    } else {
      if (static_cast<size_t>(n) >= node.children.size() ||
          node.children[n] == nullptr) {
        continue;
      }
      Search(*node.children[n], levels, depth + 1, ctx, agg_tree, out, stats,
             budget);
      if (budget != nullptr && budget->exhausted()) return;
    }
  }
}

std::vector<ViewId> FilterTree::FindCandidates(const QueryDescription& query,
                                               FilterSearchStats* stats,
                                               QueryBudget* budget) const {
  SearchContext ctx;
  ctx.is_aggregate = query.is_aggregate;
  ctx.source_tables = ToKey(query.source_tables);
  ctx.extended_range_columns = ToKey(query.extended_range_columns);

  auto intern_required = [this](const std::vector<std::string>& texts,
                                LatticeIndex::Key* key, bool* impossible) {
    for (const auto& t : texts) {
      const uint32_t* atom = LookupAtom(t);
      if (atom == nullptr) {
        *impossible = true;  // no view carries this text
        return;
      }
      key->push_back(*atom);
    }
    std::sort(key->begin(), key->end());
    key->erase(std::unique(key->begin(), key->end()), key->end());
  };

  intern_required(query.output_expr_texts, &ctx.output_expr_atoms,
                  &ctx.output_exprs_impossible);
  {
    std::vector<std::string> combined = query.output_expr_texts;
    combined.insert(combined.end(), query.agg_expr_texts.begin(),
                    query.agg_expr_texts.end());
    intern_required(combined, &ctx.output_agg_expr_atoms,
                    &ctx.output_agg_exprs_impossible);
  }
  intern_required(query.grouping_expr_texts, &ctx.grouping_expr_atoms,
                  &ctx.grouping_exprs_impossible);

  // Residual atoms: unknown query texts can never appear in a view key,
  // so they are simply dropped from the superset-side set.
  for (const auto& t : query.residual_texts) {
    if (const uint32_t* atom = LookupAtom(t)) {
      ctx.residual_atoms.push_back(*atom);
    }
  }
  std::sort(ctx.residual_atoms.begin(), ctx.residual_atoms.end());

  for (const auto& cls : query.output_column_classes_spj) {
    ctx.output_classes_spj.push_back(ToKey(cls));
  }
  for (const auto& cls : query.output_column_classes_agg) {
    ctx.output_classes_agg.push_back(ToKey(cls));
  }
  for (const auto& cls : query.grouping_column_classes) {
    ctx.grouping_classes.push_back(ToKey(cls));
  }

  std::vector<ViewId> out;
  if (spj_root_->index.num_live_nodes() > 0 || !spj_root_->leaves.empty()) {
    Search(*spj_root_, spj_levels_, 0, ctx, /*agg_tree=*/false, &out, stats,
           budget);
  }
  if (query.is_aggregate &&
      (agg_root_->index.num_live_nodes() > 0 || !agg_root_->leaves.empty())) {
    Search(*agg_root_, agg_levels_, 0, ctx, /*agg_tree=*/true, &out, stats,
           budget);
  }
  return out;
}

}  // namespace mvopt
