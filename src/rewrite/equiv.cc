#include "rewrite/equiv.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace mvopt {

EquivalenceClasses::EquivalenceClasses(
    std::span<const int32_t> num_columns_of_slot)
    : num_slots_(num_columns_of_slot.size()),
      num_columns_(std::accumulate(num_columns_of_slot.begin(),
                                   num_columns_of_slot.end(), 0)) {
  Allocate();
  for (size_t s = 0; s < num_slots_; ++s) {
    ints_[s + 1] = ints_[s] + num_columns_of_slot[s];
  }
}

EquivalenceClasses::EquivalenceClasses(const Catalog& catalog,
                                       const std::vector<TableRef>& tables)
    : num_slots_(tables.size()) {
  for (const TableRef& t : tables) {
    num_columns_ += catalog.table(t.table).num_columns();
  }
  Allocate();
  for (size_t s = 0; s < num_slots_; ++s) {
    ints_[s + 1] = ints_[s] + catalog.table(tables[s].table).num_columns();
  }
}

void EquivalenceClasses::Allocate() {
  ints_.resize(NontrivialOffset() + Columns() / 2);
  std::iota(ints_.begin() + static_cast<std::ptrdiff_t>(ParentOffset()),
            ints_.begin() + static_cast<std::ptrdiff_t>(ClassOfOffset()), 0);
  members_.resize(Columns());
  num_classes_ = -1;
}

void EquivalenceClasses::AddEquality(ColumnRefId a, ColumnRefId b) {
  const int32_t ia = IndexOf(a);
  const int32_t ib = IndexOf(b);
  if (ia < 0 || ib < 0) {
    throw std::out_of_range("equality on a column outside the FROM slots");
  }
  const int32_t ra = Find(ia);
  const int32_t rb = Find(ib);
  if (ra == rb) return;
  // Union by the smaller index: every root is its class's first column.
  int32_t* parent = ints_.data() + ParentOffset();
  parent[std::max(ra, rb)] = std::min(ra, rb);
  num_classes_ = -1;
}

void EquivalenceClasses::AddEqualities(
    const std::vector<ColumnEqualityPred>& preds) {
  for (const auto& p : preds) AddEquality(p.lhs, p.rhs);
}

int32_t EquivalenceClasses::Find(int32_t x) const {
  int32_t* parent = ints_.data() + ParentOffset();
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

void EquivalenceClasses::Rebuild() const {
  const int32_t n = num_columns_;
  int32_t* class_of = ints_.data() + ClassOfOffset();
  int32_t* begin = ints_.data() + ClassBeginOffset();
  int32_t* nontrivial = ints_.data() + NontrivialOffset();

  // A root precedes the rest of its class, so one ascending pass numbers
  // the classes by their first column.
  int32_t num_classes = 0;
  for (int32_t i = 0; i < n; ++i) {
    const int32_t root = Find(i);
    class_of[i] = root == i ? num_classes++ : class_of[root];
  }

  // Counting sort of the columns by class, slot-major within a class.
  std::fill(begin, begin + num_classes + 1, 0);
  for (int32_t i = 0; i < n; ++i) ++begin[class_of[i] + 1];
  for (int32_t c = 0; c < num_classes; ++c) begin[c + 1] += begin[c];
  const int32_t* base = ints_.data();
  for (size_t s = 0; s < num_slots_; ++s) {
    for (int32_t i = base[s]; i < base[s + 1]; ++i) {
      members_[static_cast<size_t>(begin[class_of[i]]++)] =
          ColumnRefId{static_cast<int32_t>(s), i - base[s]};
    }
  }
  // The fill advanced each start to the next class's; shift them back.
  for (int32_t c = num_classes; c > 0; --c) begin[c] = begin[c - 1];
  begin[0] = 0;

  int32_t num_nontrivial = 0;
  for (int32_t c = 0; c < num_classes; ++c) {
    if (begin[c + 1] - begin[c] >= 2) nontrivial[num_nontrivial++] = c;
  }
  num_classes_ = num_classes;
  num_nontrivial_ = num_nontrivial;
}

bool EquivalenceClasses::IsTrivial(ColumnRefId col) const {
  int cls = ClassOf(col);
  assert(cls >= 0);
  return ClassMembers(cls).size() == 1;
}

std::span<const ColumnRefId> EquivalenceClasses::ClassMembers(
    int class_id) const {
  Build();
  const int32_t* begin = ints_.data() + ClassBeginOffset() + class_id;
  return {members_.data() + begin[0], static_cast<size_t>(begin[1] - begin[0])};
}

int EquivalenceClasses::NumClasses() const {
  Build();
  return num_classes_;
}

std::span<const int32_t> EquivalenceClasses::NontrivialClasses() const {
  Build();
  if (num_nontrivial_ == 0) return {};
  return {ints_.data() + NontrivialOffset(),
          static_cast<size_t>(num_nontrivial_)};
}

}  // namespace mvopt
