#include "aggregation/n_to_one_aggregator.h"

#include <algorithm>

namespace mirabel::aggregation {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;

Result<const AggregatedFlexOffer*> NToOneAggregator::Find(
    AggregateId id) const {
  auto it = aggregates_.find(id);
  if (it == aggregates_.end()) {
    return Status::NotFound("aggregate " + std::to_string(id));
  }
  return &it->second;
}

Result<AggregateUpdate> NToOneAggregator::AddIncremental(
    SubGroupId key, const std::vector<FlexOffer>& additions) {
  if (additions.empty()) {
    return Status::InvalidArgument("no offers to add");
  }
  auto map_it = key_to_aggregate_.find(key);
  if (map_it == key_to_aggregate_.end()) {
    return Upsert(key, additions);
  }
  AggregateId aid = map_it->second;
  AggregatedFlexOffer& agg = aggregates_[aid];
  for (const FlexOffer& fo : additions) {
    MIRABEL_RETURN_IF_ERROR(AddMember(fo, &agg));
  }
  return AggregateUpdate{UpdateKind::kChanged, aid};
}

Result<AggregateUpdate> NToOneAggregator::Upsert(
    SubGroupId key, const std::vector<FlexOffer>& members) {
  auto map_it = key_to_aggregate_.find(key);
  bool created = map_it == key_to_aggregate_.end();
  AggregateId aid = created ? next_aggregate_id_ : map_it->second;

  MIRABEL_ASSIGN_OR_RETURN(AggregatedFlexOffer built,
                           BuildAggregate(aid, members));
  if (created) {
    ++next_aggregate_id_;
    key_to_aggregate_[key] = aid;
  }
  aggregates_[aid] = std::move(built);

  return AggregateUpdate{created ? UpdateKind::kCreated : UpdateKind::kChanged,
                         aid};
}

Result<AggregateUpdate> NToOneAggregator::Delete(SubGroupId key) {
  auto map_it = key_to_aggregate_.find(key);
  if (map_it == key_to_aggregate_.end()) {
    return Status::NotFound("no aggregate for key " + std::to_string(key));
  }
  AggregateId aid = map_it->second;
  aggregates_.erase(aid);
  key_to_aggregate_.erase(map_it);
  return AggregateUpdate{UpdateKind::kDeleted, aid};
}

std::vector<AggregateUpdate> NToOneAggregator::Process(
    const std::vector<SubGroupUpdate>& updates) {
  std::vector<AggregateUpdate> out;
  for (const SubGroupUpdate& su : updates) {
    if (su.kind == UpdateKind::kDeleted || su.members.empty()) {
      Result<AggregateUpdate> r = Delete(su.sub_group);
      if (r.ok()) out.push_back(std::move(r).value());
      continue;
    }

    // Pure-growth detection: if the new membership is a superset of the
    // current one, apply AddMember() incrementally instead of rebuilding.
    auto map_it = key_to_aggregate_.find(su.sub_group);
    if (map_it != key_to_aggregate_.end()) {
      const AggregatedFlexOffer& agg = aggregates_[map_it->second];
      std::unordered_set<FlexOfferId> old_ids;
      old_ids.reserve(agg.members.size());
      for (const auto& m : agg.members) old_ids.insert(m.offer.id);

      std::vector<FlexOffer> additions;
      size_t matched = 0;
      for (const FlexOffer& fo : su.members) {
        if (old_ids.count(fo.id) != 0) {
          ++matched;
        } else {
          additions.push_back(fo);
        }
      }
      if (matched == old_ids.size()) {
        if (additions.empty()) continue;  // membership unchanged
        Result<AggregateUpdate> r = AddIncremental(su.sub_group, additions);
        if (r.ok()) {
          out.push_back(std::move(r).value());
          continue;
        }
        // Fall through to a rebuild on failure.
      }
    }

    Result<AggregateUpdate> r = Upsert(su.sub_group, su.members);
    if (r.ok()) out.push_back(std::move(r).value());
  }
  return out;
}

}  // namespace mirabel::aggregation
