#ifndef MIRABEL_AGGREGATION_N_TO_ONE_AGGREGATOR_H_
#define MIRABEL_AGGREGATION_N_TO_ONE_AGGREGATOR_H_

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aggregation/aggregated_flex_offer.h"
#include "aggregation/bin_packer.h"

namespace mirabel::aggregation {

/// Change of one aggregated flex-offer, the pipeline's final output
/// ("information about created, deleted, and changed aggregated flex-offers",
/// paper §4). The record names the change only: callers read a created or
/// changed aggregate's body through aggregates() (or Find()) by `id`.
struct AggregateUpdate {
  UpdateKind kind = UpdateKind::kCreated;
  AggregateId id = 0;
};

/// Third stage of the aggregation pipeline: maintains one AggregatedFlexOffer
/// per sub-group (n-to-1). Pure additions are applied incrementally via
/// AddMember() (paper §4 "incremental aggregation"); shrinking or reshuffled
/// memberships rebuild just the affected aggregate. Also the owner of
/// disaggregation (see Disaggregate() in aggregated_flex_offer.h).
///
/// Keys are the upstream stage's identifiers: sub-group ids when the
/// bin-packer is enabled, group ids otherwise (the paper: the aggregator
/// "utilizes sub-group updates (or group-updates if the bin-packer is
/// disabled)"). The AggregationPipeline picks the mode.
class NToOneAggregator {
 public:
  NToOneAggregator() = default;

  /// Consumes full-membership sub-group updates (bin-packer mode).
  std::vector<AggregateUpdate> Process(
      const std::vector<SubGroupUpdate>& updates);

  /// Incremental fast path: appends `additions` to the aggregate keyed by
  /// `key`, creating it when absent. O(sum of addition profile lengths).
  Result<AggregateUpdate> AddIncremental(
      SubGroupId key, const std::vector<flexoffer::FlexOffer>& additions);

  /// Replaces the membership of the aggregate keyed by `key` (rebuild),
  /// creating it when absent.
  Result<AggregateUpdate> Upsert(
      SubGroupId key, const std::vector<flexoffer::FlexOffer>& members);

  /// Deletes the aggregate keyed by `key`. Returns NotFound when absent.
  Result<AggregateUpdate> Delete(SubGroupId key);

  /// All live aggregates, keyed by AggregateId.
  const std::unordered_map<AggregateId, AggregatedFlexOffer>& aggregates()
      const {
    return aggregates_;
  }

  /// Looks up a live aggregate. Returns NotFound for unknown ids.
  Result<const AggregatedFlexOffer*> Find(AggregateId id) const;

  size_t num_aggregates() const { return aggregates_.size(); }

 private:
  AggregateId next_aggregate_id_ = 1;
  // Upstream key -> aggregate mapping, stable for the key's lifetime.
  std::unordered_map<SubGroupId, AggregateId> key_to_aggregate_;
  std::unordered_map<AggregateId, AggregatedFlexOffer> aggregates_;
};

}  // namespace mirabel::aggregation

#endif  // MIRABEL_AGGREGATION_N_TO_ONE_AGGREGATOR_H_
