#ifndef MIRABEL_EDMS_OFFER_LIFECYCLE_H_
#define MIRABEL_EDMS_OFFER_LIFECYCLE_H_

#include <cstddef>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "flexoffer/flex_offer.h"

namespace mirabel::edms {

/// States of the flex-offer life cycle driven by the EDMS Control component
/// (paper §2/§3): an offer is issued, negotiated, aggregated into a macro
/// offer, scheduled, the schedule is assigned back to the owner, and the
/// owner executes it. Rejection, execution and expiry are terminal.
enum class OfferState {
  /// Issued, awaiting the negotiation decision.
  kOffered = 0,
  /// Negotiation agreed; the offer sits in the aggregation pipeline.
  kAccepted = 1,
  /// Negotiation rejected (terminal; the prosumer keeps its tariff).
  kRejected = 2,
  /// Claimed by a macro offer at a gate closure.
  kAggregated = 3,
  /// The macro offer containing it has a schedule.
  kScheduled = 4,
  /// The disaggregated member schedule was assigned to the owner.
  kAssigned = 5,
  /// The owner executed the assigned schedule (terminal).
  kExecuted = 6,
  /// Timed out anywhere before execution; the owner falls back to the open
  /// contract (terminal).
  kExpired = 7,
};

inline constexpr int kNumOfferStates = 8;

std::string_view ToString(OfferState state);

/// True for states with no outgoing transitions.
bool IsTerminal(OfferState state);

/// The legal transition relation:
///   kOffered    -> kAccepted | kRejected | kExpired
///   kAccepted   -> kAggregated | kExpired
///   kAggregated -> kScheduled | kExpired
///   kScheduled  -> kAssigned | kExpired
///   kAssigned   -> kExecuted | kExpired
/// Everything else — including self-transitions and any move out of a
/// terminal state — is illegal.
bool TransitionAllowed(OfferState from, OfferState to);

/// Tracks the lifecycle state and owner of every offer an engine has seen —
/// the engine's only per-offer record — and enforces the transition
/// relation: illegal moves return FailedPrecondition and leave the state
/// untouched.
class OfferLifecycle {
 public:
  /// Admits `id`, issued by `owner`, in kOffered; AlreadyExists for known
  /// ids.
  Status Begin(flexoffer::FlexOfferId id, flexoffer::ActorId owner);

  /// Moves `id` to `to`. NotFound for unknown ids, FailedPrecondition for
  /// illegal transitions. Returns the previous state on success.
  Result<OfferState> Transition(flexoffer::FlexOfferId id, OfferState to);

  /// Current state of `id`; NotFound when never admitted.
  Result<OfferState> StateOf(flexoffer::FlexOfferId id) const;

  /// Owner recorded by Begin(), in every state including the terminal ones;
  /// NotFound when never admitted.
  Result<flexoffer::ActorId> OwnerOf(flexoffer::FlexOfferId id) const;

  /// Number of tracked offers currently in `state`.
  size_t CountInState(OfferState state) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    OfferState state;
    flexoffer::ActorId owner;
  };
  std::unordered_map<flexoffer::FlexOfferId, Entry> entries_;
  size_t counts_[kNumOfferStates] = {};
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_OFFER_LIFECYCLE_H_
