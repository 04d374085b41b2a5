#include "rewrite/view_catalog.h"

#include <cassert>

#include "common/failpoint.h"

namespace mvopt {

ViewDefinition* ViewCatalog::AddView(const std::string& name,
                                     SpjgQuery definition,
                                     std::string* error) {
  if (MVOPT_FAILPOINT_HIT("view_catalog.add_view")) {
    if (error != nullptr) *error = "failpoint 'view_catalog.add_view'";
    return nullptr;
  }
  auto invalid = ViewDefinition::Validate(definition);
  if (invalid.has_value()) {
    if (error != nullptr) *error = *invalid;
    return nullptr;
  }
  if (by_name_.Find(name) != nullptr) {
    if (error != nullptr) {
      *error = "view '" + name + "' is already registered";
    }
    return nullptr;
  }
  const auto id = static_cast<ViewId>(entries_.size());
  // Build everything fallible before the first container mutation: a
  // throw from the definition, the description and estimate shape (or
  // the failpoint standing in for one) leaves both containers untouched.
  auto view = std::make_shared<ViewDefinition>(id, name, std::move(definition));
  EstimateShape shape;
  auto description = std::make_shared<const ViewDescription>(
      DescribeView(*catalog_, *view, &shape));
  view->set_estimate_shape(std::move(shape));
  MVOPT_FAILPOINT("view_catalog.describe");
  ViewDefinition* registered = view.get();
  // The program is compiled later (MatchingService), if at all.
  entries_.push_back(Entry{std::move(view), std::move(description), nullptr});
  try {
    by_name_.Insert(name, id);
  } catch (...) {
    entries_.pop_back();  // its path is owned now: no allocation, no throw
    throw;
  }
  return registered;
}

void ViewCatalog::RemoveLastView(ViewId id) {
  assert(num_views() > 0 && view(num_views() - 1).id() == id &&
         "only the most recent registration can be rolled back");
  by_name_.Erase(view(id).name());
  entries_.pop_back();
}

const ViewDefinition* ViewCatalog::FindView(const std::string& name) const {
  const ViewId* id = by_name_.Find(name);
  return id == nullptr ? nullptr : &view(*id);
}

}  // namespace mvopt
