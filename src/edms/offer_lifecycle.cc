#include "edms/offer_lifecycle.h"

#include <string>

namespace mirabel::edms {

using flexoffer::FlexOfferId;

std::string_view ToString(OfferState state) {
  switch (state) {
    case OfferState::kOffered:
      return "Offered";
    case OfferState::kAccepted:
      return "Accepted";
    case OfferState::kRejected:
      return "Rejected";
    case OfferState::kAggregated:
      return "Aggregated";
    case OfferState::kScheduled:
      return "Scheduled";
    case OfferState::kAssigned:
      return "Assigned";
    case OfferState::kExecuted:
      return "Executed";
    case OfferState::kExpired:
      return "Expired";
  }
  return "Unknown";
}

bool IsTerminal(OfferState state) {
  return state == OfferState::kRejected || state == OfferState::kExecuted ||
         state == OfferState::kExpired;
}

bool TransitionAllowed(OfferState from, OfferState to) {
  switch (from) {
    case OfferState::kOffered:
      return to == OfferState::kAccepted || to == OfferState::kRejected ||
             to == OfferState::kExpired;
    case OfferState::kAccepted:
      return to == OfferState::kAggregated || to == OfferState::kExpired;
    case OfferState::kAggregated:
      return to == OfferState::kScheduled || to == OfferState::kExpired;
    case OfferState::kScheduled:
      return to == OfferState::kAssigned || to == OfferState::kExpired;
    case OfferState::kAssigned:
      return to == OfferState::kExecuted || to == OfferState::kExpired;
    case OfferState::kRejected:
    case OfferState::kExecuted:
    case OfferState::kExpired:
      return false;
  }
  return false;
}

namespace {

Status NoLifecycle(FlexOfferId id) {
  return Status::NotFound("offer " + std::to_string(id) + " has no lifecycle");
}

}  // namespace

Status OfferLifecycle::Begin(FlexOfferId id, flexoffer::ActorId owner) {
  bool inserted =
      entries_.emplace(id, Entry{OfferState::kOffered, owner}).second;
  if (!inserted) {
    return Status::AlreadyExists("offer " + std::to_string(id) +
                                 " already has a lifecycle");
  }
  ++counts_[static_cast<int>(OfferState::kOffered)];
  return Status::OK();
}

Result<OfferState> OfferLifecycle::Transition(FlexOfferId id, OfferState to) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return NoLifecycle(id);
  OfferState from = it->second.state;
  if (!TransitionAllowed(from, to)) {
    return Status::FailedPrecondition(
        "illegal lifecycle transition " + std::string(ToString(from)) +
        " -> " + std::string(ToString(to)) + " for offer " +
        std::to_string(id));
  }
  it->second.state = to;
  --counts_[static_cast<int>(from)];
  ++counts_[static_cast<int>(to)];
  return from;
}

Result<OfferState> OfferLifecycle::StateOf(FlexOfferId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return NoLifecycle(id);
  return it->second.state;
}

Result<flexoffer::ActorId> OfferLifecycle::OwnerOf(FlexOfferId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return NoLifecycle(id);
  return it->second.owner;
}

size_t OfferLifecycle::CountInState(OfferState state) const {
  return counts_[static_cast<int>(state)];
}

}  // namespace mirabel::edms
