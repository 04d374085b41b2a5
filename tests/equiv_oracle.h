// Frozen reference for the column equivalence classes (§3.1.1): the
// hash-map implementation of rewrite/equiv.h as it read before the
// classes became a union-find over the dense slot-major column index
// with one CSR class list. Columns are registered one table at a time
// (or lazily by an equality), indexed through a hash map, and the
// classes are rebuilt into one vector per class, numbered in
// registration order. The flat classes must answer every query exactly
// as this one does, members in the same order, when the tables are
// registered in slot order.

#ifndef MVOPT_TESTS_EQUIV_ORACLE_H_
#define MVOPT_TESTS_EQUIV_ORACLE_H_

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "expr/classify.h"
#include "expr/expr.h"

namespace mvopt {
namespace oracle {

class HashMapEquivalenceClasses {
 public:
  /// Registers all `num_columns` columns of table slot `table_ref` as
  /// trivial classes (idempotent per slot).
  void AddTableColumns(int32_t table_ref, int num_columns) {
    for (int c = 0; c < num_columns; ++c) {
      EnsureIndex(ColumnRefId{table_ref, c});
    }
  }

  /// Merges the classes of `a` and `b` (registering them if needed).
  void AddEquality(ColumnRefId a, ColumnRefId b) {
    int ia = EnsureIndex(a);
    int ib = EnsureIndex(b);
    Union(ia, ib);
    classes_valid_ = false;
  }

  void AddEqualities(const std::vector<ColumnEqualityPred>& preds) {
    for (const auto& p : preds) AddEquality(p.lhs, p.rhs);
  }

  /// Dense id of the class containing `col`; -1 if the column was never
  /// registered.
  int ClassOf(ColumnRefId col) const {
    int idx = IndexOf(col);
    if (idx < 0) return -1;
    BuildClassesIfNeeded();
    return root_to_class_.at(Find(idx));
  }

  bool AreEquivalent(ColumnRefId a, ColumnRefId b) const {
    int ca = ClassOf(a);
    return ca >= 0 && ca == ClassOf(b);
  }

  bool IsTrivial(ColumnRefId col) const {
    int cls = ClassOf(col);
    assert(cls >= 0);
    return classes_[cls].size() == 1;
  }

  const std::vector<ColumnRefId>& ClassMembers(int class_id) const {
    BuildClassesIfNeeded();
    return classes_[class_id];
  }

  int NumClasses() const {
    BuildClassesIfNeeded();
    return static_cast<int>(classes_.size());
  }

  std::vector<int> NontrivialClasses() const {
    BuildClassesIfNeeded();
    std::vector<int> out;
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (classes_[i].size() >= 2) out.push_back(static_cast<int>(i));
    }
    return out;
  }

 private:
  int Find(int x) const {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  void Union(int a, int b) {
    int ra = Find(a);
    int rb = Find(b);
    if (ra != rb) parent_[rb] = ra;
  }

  int IndexOf(ColumnRefId col) const {
    auto it = index_.find(col);
    return it == index_.end() ? -1 : it->second;
  }

  int EnsureIndex(ColumnRefId col) {
    auto it = index_.find(col);
    if (it != index_.end()) return it->second;
    int idx = static_cast<int>(columns_.size());
    index_.emplace(col, idx);
    columns_.push_back(col);
    parent_.push_back(idx);
    classes_valid_ = false;
    return idx;
  }

  void BuildClassesIfNeeded() const {
    if (classes_valid_) return;
    root_to_class_.clear();
    classes_.clear();
    for (size_t i = 0; i < columns_.size(); ++i) {
      int root = Find(static_cast<int>(i));
      auto [it, inserted] =
          root_to_class_.emplace(root, static_cast<int>(classes_.size()));
      if (inserted) classes_.emplace_back();
      classes_[it->second].push_back(columns_[i]);
    }
    classes_valid_ = true;
  }

  std::unordered_map<ColumnRefId, int, ColumnRefIdHash> index_;
  std::vector<ColumnRefId> columns_;  // dense index -> column
  mutable std::vector<int> parent_;
  mutable bool classes_valid_ = false;
  mutable std::unordered_map<int, int> root_to_class_;
  mutable std::vector<std::vector<ColumnRefId>> classes_;
};

}  // namespace oracle
}  // namespace mvopt

#endif  // MVOPT_TESTS_EQUIV_ORACLE_H_
