// SubstituteSource: the seam between the optimizer's view-matching rule
// and whatever maintains the catalog/matching state behind it. Two
// implementations exist:
//
//   - MatchingService (index/matching_service.h): one catalog, one
//     filter tree — the paper's single-store configuration;
//   - ShardedCatalogService (shard/sharded_catalog_service.h): the state
//     partitioned into independent failure domains, probed per shard and
//     merged deterministically, with quarantined shards skipped and
//     reported as a DegradationReason::kPartialCatalog advisory.
//
// The optimizer is programmed against this interface only: it probes for
// substitutes per memo group and resolves a substitute's view id back to
// its definition when implementing the view scan. View ids are opaque to
// the optimizer — whatever id space FindSubstitutes emits, ResolveView
// must accept (the sharded implementation hands out composite global
// ids; the single-store one hands out catalog ordinals).
//
// Concurrency: FindSubstitutes / FindUnionSubstitute follow the
// implementation's probe contract (MatchingService runs concurrent
// probes lock-free, each over one pinned catalog snapshot, while writers
// publish new ones). ResolveView is safe from any thread, also while
// views are being registered: definitions are shared across catalog
// generations, so the reference stays valid for the source's lifetime.
// The optimizer resolves only ids returned by a probe of the same
// source, and prices a substitute of a view that is not materialized by
// evaluating the definition's estimate shape (ViewDefinition::
// estimate_shape, built at registration) against the current
// statistics.

#ifndef MVOPT_REWRITE_SUBSTITUTE_SOURCE_H_
#define MVOPT_REWRITE_SUBSTITUTE_SOURCE_H_

#include <optional>
#include <vector>

#include "common/query_context.h"
#include "query/spjg.h"
#include "query/substitute.h"
#include "query/view_def.h"
#include "rewrite/union_matcher.h"

namespace mvopt {

class SubstituteSource {
 public:
  virtual ~SubstituteSource() = default;

  /// All substitutes for `query` (the view-matching rule body). The
  /// context supplies the budget and the staleness tolerance; results
  /// are deterministic for a fixed catalog state.
  virtual std::vector<Substitute> FindSubstitutes(const SpjgQuery& query,
                                                  QueryContext& ctx) = 0;

  /// §7 union substitute over range-partitioned views, or nullopt.
  virtual std::optional<UnionSubstitute> FindUnionSubstitute(
      const SpjgQuery& query, QueryContext& ctx) = 0;

  /// The definition behind a view id previously emitted by
  /// FindSubstitutes / FindUnionSubstitute of this same source.
  virtual const ViewDefinition& ResolveView(ViewId id) const = 0;
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_SUBSTITUTE_SOURCE_H_
