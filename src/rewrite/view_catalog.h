// Registry of materialized views: validated definitions plus their
// precomputed descriptions (§4). Exhaustive (no-index) candidate
// enumeration lives here; the filter tree in src/index builds on the same
// descriptions.

#ifndef MVOPT_REWRITE_VIEW_CATALOG_H_
#define MVOPT_REWRITE_VIEW_CATALOG_H_

#include <memory>
#include <string>

#include "common/cow.h"
#include "query/view_def.h"
#include "rewrite/view_description.h"

namespace mvopt {

struct MatchProgram;

class ViewCatalog {
 public:
  explicit ViewCatalog(const Catalog* catalog) : catalog_(catalog) {}

  /// Generation copy (DESIGN.md §15): O(1). The copy shares the per-view
  /// entries — definition, description, program — and the name index
  /// with `other`; a later AddView / RemoveLastView / SetProgram on
  /// either side copies only its own path through the shared containers
  /// (common/cow.h). Definitions are shared objects on purpose:
  /// mutable_view() state (materialization results) stays visible across
  /// generations, and references handed out by ResolveView/view() stay
  /// valid after the generation that produced them is reclaimed, because
  /// every later generation holds the same definitions (published
  /// catalogs grow append-only; RemoveLastView only ever runs on
  /// unpublished clones being rolled back).
  ViewCatalog(const ViewCatalog& other) = default;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Validates and registers a view. Returns the definition, or nullptr
  /// with `*error` set when the view is not indexable or the name is
  /// already registered (re-registering a name is a hard error).
  /// Strongly exception-safe: a throw leaves the catalog untouched.
  ViewDefinition* AddView(const std::string& name, SpjgQuery definition,
                          std::string* error = nullptr);

  /// Rolls back the most recent successful AddView (`id` must be the id
  /// it returned). Used by MatchingService's recovery when a later step
  /// for the same view — indexing or compiling it — fails.
  void RemoveLastView(ViewId id);

  /// The registered view with `name`, or nullptr.
  const ViewDefinition* FindView(const std::string& name) const;

  int num_views() const { return static_cast<int>(entries_.size()); }
  const ViewDefinition& view(ViewId id) const { return *entries_[id].view; }
  ViewDefinition& mutable_view(ViewId id) { return *entries_[id].view; }
  const ViewDescription& description(ViewId id) const {
    return *entries_[id].description;
  }

  /// Compiled match program of `id`, or nullptr (generic tier). Programs
  /// are immutable and shared across generations like the definitions:
  /// compiled once under the writer lock at registration or recovery
  /// (MatchingService), never on the probe path.
  const std::shared_ptr<const MatchProgram>& program(ViewId id) const {
    return entries_[id].program;
  }
  /// Installs (or clears) the compiled program of `id`. Only called on
  /// unpublished clones, mirroring the rest of the clone-mutate-publish
  /// discipline.
  void SetProgram(ViewId id, std::shared_ptr<const MatchProgram> program) {
    entries_.mutable_at(static_cast<size_t>(id)).program = std::move(program);
  }

  const Catalog& catalog() const { return *catalog_; }

 private:
  /// One registered view. shared_ptr members, so that generations share
  /// the objects: each lives as long as ANY generation references it.
  struct Entry {
    std::shared_ptr<ViewDefinition> view;
    std::shared_ptr<const ViewDescription> description;
    /// nullptr = generic tier.
    std::shared_ptr<const MatchProgram> program;
  };

  const Catalog* catalog_;
  CowVector<Entry> entries_;  ///< indexed by ViewId
  CowStringMap<ViewId> by_name_;
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_VIEW_CATALOG_H_
