// Column equivalence classes (§3.1.1).
//
// Knowledge about column equality predicates is captured as a set of
// equivalence classes over column references, computed by union-find.
// Every column of every referenced table starts in its own (trivial)
// class; each (Ti.Cp = Tj.Cq) predicate merges two classes.
//
// The columns are the dense slot-major index of the FROM slots: slot s's
// column c is col_base()[s] + c, the layout MatchProbeContext and
// MatchProgram read classes through. The union-find runs over that
// index, and the classes are rebuilt from it into one CSR list. Class
// ids are numbered by each class's first column in slot-major order, and
// a class's members are listed in that order. Every description,
// estimate shape, range map, match program and substitute depends on
// that order (DESIGN.md, "Equivalence classes").

#ifndef MVOPT_REWRITE_EQUIV_H_
#define MVOPT_REWRITE_EQUIV_H_

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/catalog.h"
#include "expr/classify.h"
#include "expr/expr.h"
#include "query/spjg.h"

namespace mvopt {

class EquivalenceClasses {
 public:
  /// No slots and no columns.
  EquivalenceClasses() = default;

  /// Every column of every slot in its own class: slot s has
  /// num_columns_of_slot[s] columns.
  explicit EquivalenceClasses(std::span<const int32_t> num_columns_of_slot);

  /// Same, slot s reading catalog table tables[s].table.
  EquivalenceClasses(const Catalog& catalog,
                     const std::vector<TableRef>& tables);

  /// Merges the classes of `a` and `b`, both columns of the slots.
  void AddEquality(ColumnRefId a, ColumnRefId b);

  /// Applies every equality predicate in `preds`.
  void AddEqualities(const std::vector<ColumnEqualityPred>& preds);

  /// Dense id of the class containing `col`; -1 for a column outside the
  /// slots. Ids are stable between mutations only for lookups made
  /// after the last AddEquality.
  int ClassOf(ColumnRefId col) const {
    const int32_t idx = IndexOf(col);
    if (idx < 0) return -1;
    Build();
    return ints_[ClassOfOffset() + static_cast<size_t>(idx)];
  }

  bool AreEquivalent(ColumnRefId a, ColumnRefId b) const {
    int ca = ClassOf(a);
    return ca >= 0 && ca == ClassOf(b);
  }

  /// True if the column's class has exactly one member.
  bool IsTrivial(ColumnRefId col) const;

  /// Members of the class with dense id `class_id`, slot-major.
  std::span<const ColumnRefId> ClassMembers(int class_id) const;

  /// Number of classes (trivial included).
  int NumClasses() const;

  /// Dense ids of all classes with >= 2 members, ascending.
  std::span<const int32_t> NontrivialClasses() const;

  /// The first dense index of each slot, then the column count
  /// (num_slots + 1 entries; empty without slots).
  std::span<const int32_t> col_base() const {
    if (num_slots_ == 0) return {};
    return {ints_.data(), num_slots_ + 1};
  }

  /// The class id of every column, by dense index.
  std::span<const int32_t> class_of() const {
    if (num_slots_ == 0) return {};
    Build();
    return {ints_.data() + ClassOfOffset(), Columns()};
  }

 private:
  /// `ints_` holds, back to back: col_base (num_slots + 1), the
  /// union-find parents (one per column), class_of (one per column), the
  /// CSR class starts (at most columns + 1) and the nontrivial class ids
  /// (at most columns / 2). Sized once by the constructor, so an
  /// analysis allocates twice however many slots it has.
  size_t ParentOffset() const { return num_slots_ + 1; }
  size_t ClassOfOffset() const { return ParentOffset() + Columns(); }
  size_t ClassBeginOffset() const { return ClassOfOffset() + Columns(); }
  size_t NontrivialOffset() const {
    return ClassBeginOffset() + Columns() + 1;
  }
  size_t Columns() const { return static_cast<size_t>(num_columns_); }

  /// Sizes both buffers for num_slots_ slots of num_columns_ columns in
  /// all, each column its own root; the caller fills col_base.
  void Allocate();
  /// Dense index of `col`, or -1 outside the slots.
  int32_t IndexOf(ColumnRefId col) const {
    if (col.table_ref < 0 ||
        static_cast<size_t>(col.table_ref) >= num_slots_) {
      return -1;
    }
    const int32_t* base = ints_.data() + col.table_ref;
    if (col.column < 0 || col.column >= base[1] - base[0]) return -1;
    return base[0] + col.column;
  }
  int32_t Find(int32_t x) const;
  /// Rebuilds class_of, the CSR list and the nontrivial ids if an
  /// equality merged two classes since the last build.
  void Build() const {
    if (num_classes_ < 0) Rebuild();
  }
  void Rebuild() const;

  size_t num_slots_ = 0;
  int32_t num_columns_ = 0;
  /// -1 while an equality merged classes after the last build.
  mutable int32_t num_classes_ = 0;
  mutable int32_t num_nontrivial_ = 0;
  mutable std::vector<int32_t> ints_;
  /// Every column, grouped by class, slot-major within a class.
  mutable std::vector<ColumnRefId> members_;
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_EQUIV_H_
