// Full transition-table coverage of the flex-offer lifecycle state machine:
// every legal edge succeeds, every illegal edge is FailedPrecondition, the
// tracked counts stay consistent, and the owner recorded at admission stays
// readable in every state.
#include "edms/offer_lifecycle.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

namespace mirabel::edms {
namespace {

const OfferState kAllStates[] = {
    OfferState::kOffered,   OfferState::kAccepted, OfferState::kRejected,
    OfferState::kAggregated, OfferState::kScheduled, OfferState::kAssigned,
    OfferState::kExecuted,  OfferState::kExpired,
};

/// The specified relation, written out edge by edge (the implementation must
/// match this table, not the other way around).
const std::set<std::pair<OfferState, OfferState>> kLegalEdges = {
    {OfferState::kOffered, OfferState::kAccepted},
    {OfferState::kOffered, OfferState::kRejected},
    {OfferState::kOffered, OfferState::kExpired},
    {OfferState::kAccepted, OfferState::kAggregated},
    {OfferState::kAccepted, OfferState::kExpired},
    {OfferState::kAggregated, OfferState::kScheduled},
    {OfferState::kAggregated, OfferState::kExpired},
    {OfferState::kScheduled, OfferState::kAssigned},
    {OfferState::kScheduled, OfferState::kExpired},
    {OfferState::kAssigned, OfferState::kExecuted},
    {OfferState::kAssigned, OfferState::kExpired},
};

constexpr flexoffer::ActorId kOwner = 501;

/// Drives a fresh lifecycle instance into `state` via the happy path.
void DriveTo(OfferLifecycle& lc, flexoffer::FlexOfferId id, OfferState state) {
  ASSERT_TRUE(lc.Begin(id, kOwner).ok());
  std::vector<OfferState> path;
  switch (state) {
    case OfferState::kOffered:
      break;
    case OfferState::kRejected:
      path = {OfferState::kRejected};
      break;
    case OfferState::kExpired:
      path = {OfferState::kExpired};
      break;
    case OfferState::kExecuted:
      path = {OfferState::kAccepted, OfferState::kAggregated,
              OfferState::kScheduled, OfferState::kAssigned,
              OfferState::kExecuted};
      break;
    case OfferState::kAssigned:
      path = {OfferState::kAccepted, OfferState::kAggregated,
              OfferState::kScheduled, OfferState::kAssigned};
      break;
    case OfferState::kScheduled:
      path = {OfferState::kAccepted, OfferState::kAggregated,
              OfferState::kScheduled};
      break;
    case OfferState::kAggregated:
      path = {OfferState::kAccepted, OfferState::kAggregated};
      break;
    case OfferState::kAccepted:
      path = {OfferState::kAccepted};
      break;
  }
  for (OfferState next : path) {
    ASSERT_TRUE(lc.Transition(id, next).ok())
        << "driving to " << ToString(state) << " via " << ToString(next);
  }
  ASSERT_EQ(*lc.StateOf(id), state);
}

TEST(OfferLifecycleTest, FullTransitionTable) {
  for (OfferState from : kAllStates) {
    for (OfferState to : kAllStates) {
      bool legal = kLegalEdges.count({from, to}) != 0;
      EXPECT_EQ(TransitionAllowed(from, to), legal)
          << ToString(from) << " -> " << ToString(to);

      // And the stateful object enforces exactly the same relation.
      OfferLifecycle lc;
      DriveTo(lc, 1, from);
      Result<OfferState> r = lc.Transition(1, to);
      if (legal) {
        ASSERT_TRUE(r.ok()) << ToString(from) << " -> " << ToString(to);
        EXPECT_EQ(*r, from);  // returns the previous state
        EXPECT_EQ(*lc.StateOf(1), to);
      } else {
        ASSERT_FALSE(r.ok()) << ToString(from) << " -> " << ToString(to);
        EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_EQ(*lc.StateOf(1), from);  // state untouched
      }
    }
  }
}

TEST(OfferLifecycleTest, TerminalStatesHaveNoOutgoingEdges) {
  for (OfferState from : kAllStates) {
    bool has_edge = false;
    for (OfferState to : kAllStates) {
      has_edge = has_edge || TransitionAllowed(from, to);
    }
    EXPECT_EQ(IsTerminal(from), !has_edge) << ToString(from);
  }
}

TEST(OfferLifecycleTest, EveryNonTerminalStateCanExpire) {
  for (OfferState from : kAllStates) {
    if (IsTerminal(from)) continue;
    EXPECT_TRUE(TransitionAllowed(from, OfferState::kExpired))
        << ToString(from);
  }
}

TEST(OfferLifecycleTest, BeginRejectsDuplicates) {
  OfferLifecycle lc;
  ASSERT_TRUE(lc.Begin(7, kOwner).ok());
  Status dup = lc.Begin(7, kOwner + 1);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  // The rejected re-admission does not overwrite the recorded owner.
  EXPECT_EQ(*lc.OwnerOf(7), kOwner);
}

TEST(OfferLifecycleTest, BeginRecordsTheOwner) {
  OfferLifecycle lc;
  ASSERT_TRUE(lc.Begin(1, 501).ok());
  ASSERT_TRUE(lc.Begin(2, 502).ok());
  EXPECT_EQ(*lc.OwnerOf(1), 501u);
  EXPECT_EQ(*lc.OwnerOf(2), 502u);
}

TEST(OfferLifecycleTest, OwnerSurvivesEveryStateIncludingTerminal) {
  for (OfferState state : kAllStates) {
    OfferLifecycle lc;
    DriveTo(lc, 1, state);
    Result<flexoffer::ActorId> owner = lc.OwnerOf(1);
    ASSERT_TRUE(owner.ok()) << ToString(state);
    EXPECT_EQ(*owner, kOwner) << ToString(state);
  }
}

TEST(OfferLifecycleTest, UnknownOffersAreNotFound) {
  OfferLifecycle lc;
  EXPECT_EQ(lc.StateOf(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(lc.Transition(99, OfferState::kAccepted).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(lc.OwnerOf(99).status().code(), StatusCode::kNotFound);
}

TEST(OfferLifecycleTest, CountsTrackTransitions) {
  OfferLifecycle lc;
  ASSERT_TRUE(lc.Begin(1, kOwner).ok());
  ASSERT_TRUE(lc.Begin(2, kOwner).ok());
  ASSERT_TRUE(lc.Begin(3, kOwner).ok());
  EXPECT_EQ(lc.CountInState(OfferState::kOffered), 3u);
  ASSERT_TRUE(lc.Transition(1, OfferState::kAccepted).ok());
  ASSERT_TRUE(lc.Transition(2, OfferState::kRejected).ok());
  EXPECT_EQ(lc.CountInState(OfferState::kOffered), 1u);
  EXPECT_EQ(lc.CountInState(OfferState::kAccepted), 1u);
  EXPECT_EQ(lc.CountInState(OfferState::kRejected), 1u);
  EXPECT_EQ(lc.size(), 3u);

  // A failed transition must not disturb the counts.
  ASSERT_FALSE(lc.Transition(2, OfferState::kAccepted).ok());
  EXPECT_EQ(lc.CountInState(OfferState::kRejected), 1u);
  EXPECT_EQ(lc.CountInState(OfferState::kAccepted), 1u);
}

}  // namespace
}  // namespace mirabel::edms
