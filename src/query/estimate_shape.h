// The statistics-independent half of a cardinality estimate
// (optimizer/cardinality.h): which table each FROM slot reads, which
// columns each nontrivial equivalence class joins, which range
// predicates fold together per column, how many residual conjuncts there
// are and what the result groups on. Everything the estimator reads from
// the catalog statistics (row counts, distinct counts, min/max) is looked
// up when the shape is evaluated, never stored in it.
//
// Every registered view carries one, built once by ViewCatalog::AddView
// from the analysis DescribeView runs there, so pricing a view
// substitute costs one evaluation against the live statistics and a
// statistics change after registration needs no invalidation. A shape
// lives as long as its view, so its plain parts share one allocation:
// five separately allocated small vectors cost about twice their
// requested bytes in RSS. The range predicates hold Values and keep
// their own vector.

#ifndef MVOPT_QUERY_ESTIMATE_SHAPE_H_
#define MVOPT_QUERY_ESTIMATE_SHAPE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "catalog/catalog.h"
#include "expr/classify.h"
#include "expr/expr.h"

namespace mvopt {

class EstimateShape {
 public:
  /// Element counts of the plain parts.
  struct Sizes {
    uint32_t tables = 0;
    uint32_t class_members = 0;
    uint32_t classes = 0;
    uint32_t range_groups = 0;
    uint32_t group_columns = 0;
  };

  EstimateShape() = default;

  /// Allocates the plain parts at `sizes`, zero-filled, for a builder to
  /// fill through the mutable accessors.
  explicit EstimateShape(const Sizes& sizes) : sizes_(sizes) {
    if (Bytes() > 0) data_ = std::make_unique<std::byte[]>(Bytes());
  }

  EstimateShape(const EstimateShape& other)
      : ranges(other.ranges),
        residuals(other.residuals),
        is_aggregate(other.is_aggregate),
        sizes_(other.sizes_) {
    if (Bytes() > 0) {
      data_ = std::make_unique_for_overwrite<std::byte[]>(Bytes());
      std::memcpy(data_.get(), other.data_.get(), Bytes());
    }
  }
  EstimateShape& operator=(const EstimateShape& other) {
    if (this != &other) *this = EstimateShape(other);
    return *this;
  }
  EstimateShape(EstimateShape&&) noexcept = default;
  EstimateShape& operator=(EstimateShape&&) noexcept = default;

  /// Catalog table of each FROM slot.
  std::span<const TableId> tables() const {
    return Part<const TableId>(0, sizes_.tables);
  }
  /// Members of each nontrivial equivalence class, classes in
  /// EquivalenceClasses::NontrivialClasses() order: class i spans
  /// [class_end[i - 1], class_end[i]) (class 0 starts at 0).
  std::span<const ColumnRefId> class_members() const {
    return Part<const ColumnRefId>(MembersOffset(), sizes_.class_members);
  }
  std::span<const uint32_t> class_end() const {
    return Part<const uint32_t>(ClassEndOffset(), sizes_.classes);
  }
  /// Ends of the per-column groups of `ranges`: group i spans
  /// [range_end[i - 1], range_end[i]).
  std::span<const uint32_t> range_end() const {
    return Part<const uint32_t>(RangeEndOffset(), sizes_.range_groups);
  }
  /// One entry per grouping expression: the column of a plain column
  /// reference, the default ColumnRefId{-1, -1} for anything else.
  std::span<const ColumnRefId> group_columns() const {
    return Part<const ColumnRefId>(GroupColumnsOffset(), sizes_.group_columns);
  }

  std::span<TableId> tables() { return Part<TableId>(0, sizes_.tables); }
  std::span<ColumnRefId> class_members() {
    return Part<ColumnRefId>(MembersOffset(), sizes_.class_members);
  }
  std::span<uint32_t> class_end() {
    return Part<uint32_t>(ClassEndOffset(), sizes_.classes);
  }
  std::span<uint32_t> range_end() {
    return Part<uint32_t>(RangeEndOffset(), sizes_.range_groups);
  }
  std::span<ColumnRefId> group_columns() {
    return Part<ColumnRefId>(GroupColumnsOffset(), sizes_.group_columns);
  }

  /// Range predicates grouped per column, in the order the estimator
  /// folds them (floating-point products are order-sensitive, so the
  /// order is part of the shape).
  std::vector<RangePred> ranges;
  /// Residual conjuncts (each priced at the default selectivity).
  int32_t residuals = 0;
  bool is_aggregate = false;

 private:
  // Every part holds 4-byte-aligned elements of implicit-lifetime types,
  // laid out back to back in declaration order. Creating (or memcpy-ing
  // into) the byte array creates the parts' objects implicitly; Part
  // launders the pointer to them.
  size_t MembersOffset() const { return sizes_.tables * sizeof(TableId); }
  size_t ClassEndOffset() const {
    return MembersOffset() + sizes_.class_members * sizeof(ColumnRefId);
  }
  size_t RangeEndOffset() const {
    return ClassEndOffset() + sizes_.classes * sizeof(uint32_t);
  }
  size_t GroupColumnsOffset() const {
    return RangeEndOffset() + sizes_.range_groups * sizeof(uint32_t);
  }
  size_t Bytes() const {
    return GroupColumnsOffset() + sizes_.group_columns * sizeof(ColumnRefId);
  }
  template <typename T>
  std::span<T> Part(size_t offset, uint32_t count) const {
    if (count == 0) return {};
    return {std::launder(reinterpret_cast<T*>(data_.get() + offset)), count};
  }

  Sizes sizes_;
  std::unique_ptr<std::byte[]> data_;
};

}  // namespace mvopt

#endif  // MVOPT_QUERY_ESTIMATE_SHAPE_H_
