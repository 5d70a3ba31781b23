// End-to-end tests of the EdmsEngine facade: the full submit -> aggregate ->
// schedule -> disaggregate -> execute round trip, observed through the typed
// event stream, plus the forwarding (hierarchical) mode and the error paths.
#include "edms/edms_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "scheduling/robust_scheduler.h"
#include "scheduling/stochastic_evaluator.h"
#include "test_util.h"

namespace mirabel::edms {
namespace {

using flexoffer::FlexOffer;
using flexoffer::ScheduledFlexOffer;
using scheduling::ScenarioEnsemble;

EdmsEngine::Config DeterministicConfig() {
  EdmsEngine::Config cfg;
  cfg.actor = 100;
  cfg.negotiate = true;
  cfg.aggregation.params = aggregation::AggregationParams::P3();
  cfg.gate_period = 8;
  cfg.horizon = 96;
  // Iteration-bounded scheduling: bit-identical runs for a fixed seed.
  cfg.scheduler_budget_s = 0.0;
  cfg.scheduler_max_iterations = 40;
  cfg.seed = 77;
  cfg.baseline = std::make_shared<VectorBaselineProvider>(
      std::vector<double>(960, 5.0));
  return cfg;
}

std::vector<FlexOffer> ThreeOffers() {
  return {
      testutil::OwnedOffer(1, 501, /*assign_before=*/24, /*earliest=*/30,
                           /*latest=*/50, /*dur=*/4),
      testutil::OwnedOffer(2, 502, /*assign_before=*/24, /*earliest=*/30,
                           /*latest=*/50, /*dur=*/4),
      testutil::OwnedOffer(3, 503, /*assign_before=*/24, /*earliest=*/32,
                           /*latest=*/48, /*dur=*/4),
  };
}

/// Flattens an event into a comparable line (kind + ids + payload digest).
std::string Digest(const Event& event) {
  std::ostringstream os;
  os << EventName(event) << ":";
  if (const auto* e = std::get_if<OfferAccepted>(&event)) {
    os << e->offer << "@" << e->at << " price=" << e->agreed_price_eur;
  } else if (const auto* e = std::get_if<OfferRejected>(&event)) {
    os << e->offer << "@" << e->at;
  } else if (const auto* e = std::get_if<MacroPublished>(&event)) {
    os << e->macro.id << "@" << e->at << " members=" << e->member_count
       << " fwd=" << e->forwarded;
  } else if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
    os << e->schedule.offer_id << "@" << e->at
       << " start=" << e->schedule.start
       << " kwh=" << e->schedule.TotalEnergy();
  } else if (const auto* e = std::get_if<OfferExecuted>(&event)) {
    os << e->offer << "@" << e->at;
  } else if (const auto* e = std::get_if<OfferExpired>(&event)) {
    os << e->offer << "@" << e->at;
  }
  return os.str();
}

std::vector<std::string> RunRoundTrip(const EdmsEngine::Config& cfg) {
  EdmsEngine engine(cfg);
  std::vector<FlexOffer> offers = ThreeOffers();
  auto submitted = engine.SubmitOffers(offers, 0);
  EXPECT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_TRUE(engine.Advance(0).ok());
  std::vector<std::string> digests;
  for (const Event& e : engine.PollEvents()) digests.push_back(Digest(e));
  return digests;
}

TEST(EdmsEngineTest, RoundTripAssignsValidSchedules) {
  EdmsEngine engine(DeterministicConfig());
  std::vector<FlexOffer> offers = ThreeOffers();

  auto submitted = engine.SubmitOffers(offers, 0);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_EQ(*submitted, 3u);
  ASSERT_TRUE(engine.Advance(0).ok());

  int accepted = 0;
  int macros = 0;
  std::vector<ScheduledFlexOffer> schedules;
  for (const Event& event : engine.PollEvents()) {
    if (std::get_if<OfferAccepted>(&event) != nullptr) ++accepted;
    if (std::get_if<MacroPublished>(&event) != nullptr) ++macros;
    if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
      schedules.push_back(e->schedule);
    }
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_GE(macros, 1);
  ASSERT_EQ(schedules.size(), 3u);
  for (const ScheduledFlexOffer& s : schedules) {
    const FlexOffer& fo = offers[static_cast<size_t>(s.offer_id - 1)];
    EXPECT_TRUE(s.ValidateAgainst(fo).ok());
    EXPECT_EQ(*engine.lifecycle().StateOf(s.offer_id), OfferState::kAssigned);
  }
  EXPECT_EQ(engine.stats().offers_accepted, 3);
  EXPECT_EQ(engine.stats().micro_schedules_sent, 3);
  EXPECT_GT(engine.stats().scheduling_runs, 0);

  // Execution closes the lifecycle and emits OfferExecuted.
  ASSERT_TRUE(engine.RecordExecution(1, 40, 6.0).ok());
  EXPECT_EQ(*engine.lifecycle().StateOf(1), OfferState::kExecuted);
  std::vector<Event> events = engine.PollEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(EventName(events[0]), "OfferExecuted");
  // A second execution report is an illegal lifecycle move.
  EXPECT_EQ(engine.RecordExecution(1, 41, 6.0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EdmsEngineTest, EventStreamIsDeterministicUnderFixedSeed) {
  std::vector<std::string> a = RunRoundTrip(DeterministicConfig());
  std::vector<std::string> b = RunRoundTrip(DeterministicConfig());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(EdmsEngineTest, SeedChangesTheScheduleNotTheLifecycle) {
  EdmsEngine::Config cfg = DeterministicConfig();
  std::vector<std::string> a = RunRoundTrip(cfg);
  cfg.seed = 78;
  std::vector<std::string> b = RunRoundTrip(cfg);
  // Same number of events with the same kinds in the same order...
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].substr(0, a[i].find(':')), b[i].substr(0, b[i].find(':')));
  }
}

TEST(EdmsEngineTest, InvalidAndLowValueOffersAreRejected) {
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.negotiation.acceptance.min_value_eur = 1.0;
  EdmsEngine engine(cfg);

  // A rigid offer (no time or energy flexibility) fails negotiation.
  FlexOffer rigid = testutil::OwnedOffer(10, 501, 24, 30, 30, 4, 1.0, 1.0);
  // An invalid offer (empty profile) fails validation before negotiation.
  FlexOffer invalid;
  invalid.id = 11;
  invalid.owner = 502;

  std::vector<FlexOffer> offers = {rigid, invalid};
  auto submitted =
      engine.SubmitOffers(std::span<const FlexOffer>(offers), 0);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_EQ(*submitted, 0u);
  EXPECT_EQ(engine.stats().offers_rejected, 2);
  EXPECT_EQ(*engine.lifecycle().StateOf(10), OfferState::kRejected);
  EXPECT_EQ(*engine.lifecycle().StateOf(11), OfferState::kRejected);
  std::vector<Event> events = engine.PollEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(EventName(events[0]), "OfferRejected");
  EXPECT_EQ(EventName(events[1]), "OfferRejected");
}

TEST(EdmsEngineTest, DuplicateSubmissionIsAlreadyExists) {
  EdmsEngine engine(DeterministicConfig());
  FlexOffer fo = testutil::OwnedOffer(1, 501, 24, 30, 50);
  ASSERT_TRUE(engine.SubmitOffer(fo, 0).ok());
  EXPECT_EQ(engine.SubmitOffer(fo, 0).code(), StatusCode::kAlreadyExists);
}

TEST(EdmsEngineTest, StaleOffersExpireAtTheGate) {
  EdmsEngine engine(DeterministicConfig());
  // Deadline at slice 4, first gate fires at 12: too late.
  FlexOffer fo = testutil::OwnedOffer(5, 501, /*assign_before=*/4,
                                      /*earliest=*/6, /*latest=*/10);
  ASSERT_TRUE(engine.SubmitOffer(fo, 0).ok());
  (void)engine.PollEvents();
  ASSERT_TRUE(engine.Advance(12).ok());
  std::vector<Event> events = engine.PollEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(EventName(events[0]), "OfferExpired");
  EXPECT_EQ(*engine.lifecycle().StateOf(5), OfferState::kExpired);
  EXPECT_EQ(engine.stats().offers_expired_in_pipeline, 1);
  EXPECT_EQ(engine.stats().macros_scheduled, 0);
}

TEST(EdmsEngineTest, ForwardingModePublishesAndCompletesMacros) {
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.schedule_locally = false;
  EdmsEngine engine(cfg);
  std::vector<FlexOffer> offers = ThreeOffers();
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  ASSERT_TRUE(engine.Advance(0).ok());

  std::vector<FlexOffer> published;
  for (const Event& event : engine.PollEvents()) {
    if (const auto* e = std::get_if<MacroPublished>(&event)) {
      EXPECT_TRUE(e->forwarded);
      EXPECT_EQ(e->macro.owner, cfg.actor);
      published.push_back(e->macro);
    }
  }
  ASSERT_FALSE(published.empty());
  EXPECT_EQ(engine.stats().scheduling_runs, 0);

  // A schedule for an unknown macro is NotFound.
  ScheduledFlexOffer bogus;
  bogus.offer_id = 424242;
  EXPECT_EQ(engine.CompleteMacroSchedule(bogus, 1).code(),
            StatusCode::kNotFound);

  // Returning valid macro schedules disaggregates to all members.
  int assigned = 0;
  for (const FlexOffer& macro : published) {
    ScheduledFlexOffer s;
    s.offer_id = macro.id;
    s.start = macro.earliest_start;
    for (const auto& band : macro.profile) {
      s.energies_kwh.push_back(band.max_kwh);
    }
    ASSERT_TRUE(engine.CompleteMacroSchedule(s, 1).ok());
    for (const Event& event : engine.PollEvents()) {
      if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
        EXPECT_EQ(*engine.lifecycle().StateOf(e->schedule.offer_id),
                  OfferState::kAssigned);
        ++assigned;
      }
    }
  }
  EXPECT_EQ(assigned, 3);
}

/// Four offers with disjoint start windows, so whatever start the scheduler
/// picks, the schedules end in the order 2, 3, 4, 1 — not in id order.
std::vector<FlexOffer> StaggeredOffers() {
  return {
      testutil::OwnedOffer(1, 501, /*assign_before=*/24, /*earliest=*/70,
                           /*latest=*/78, /*dur=*/4),
      testutil::OwnedOffer(2, 502, /*assign_before=*/24, /*earliest=*/30,
                           /*latest=*/38, /*dur=*/4),
      testutil::OwnedOffer(3, 503, /*assign_before=*/24, /*earliest=*/44,
                           /*latest=*/52, /*dur=*/4),
      testutil::OwnedOffer(4, 504, /*assign_before=*/24, /*earliest=*/58,
                           /*latest=*/66, /*dur=*/4),
  };
}

/// Submits StaggeredOffers(), runs the first gate and returns each offer's
/// metering deadline (schedule end + execution_timeout_slices), by id.
std::map<flexoffer::FlexOfferId, flexoffer::TimeSlice> AssignStaggered(
    EdmsEngine& engine) {
  std::vector<FlexOffer> offers = StaggeredOffers();
  auto submitted = engine.SubmitOffers(offers, 0);
  EXPECT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_TRUE(engine.Advance(0).ok());
  std::map<flexoffer::FlexOfferId, flexoffer::TimeSlice> deadlines;
  for (const Event& event : engine.PollEvents()) {
    if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
      deadlines[e->schedule.offer_id] =
          e->schedule.start +
          static_cast<int64_t>(e->schedule.energies_kwh.size()) +
          engine.config().execution_timeout_slices;
    }
  }
  EXPECT_EQ(deadlines.size(), offers.size());
  return deadlines;
}

std::vector<flexoffer::FlexOfferId> ExpiredIds(
    const std::vector<Event>& events) {
  std::vector<flexoffer::FlexOfferId> ids;
  for (const Event& event : events) {
    const auto* e = std::get_if<OfferExpired>(&event);
    EXPECT_NE(e, nullptr) << "unexpected " << EventName(event);
    if (e != nullptr) ids.push_back(e->offer);
  }
  return ids;
}

TEST(EdmsEngineTest, UnmeteredOffersTimeOutOnceInDeadlineOrder) {
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.execution_timeout_slices = 6;
  EdmsEngine engine(cfg);
  std::map<flexoffer::FlexOfferId, flexoffer::TimeSlice> deadline =
      AssignStaggered(engine);
  ASSERT_EQ(deadline.size(), 4u);
  ASSERT_LT(deadline[2], deadline[3]);
  ASSERT_LT(deadline[3], deadline[4]);
  ASSERT_LT(deadline[4], deadline[1]);

  // Offer 3 is metered in time; the others never are.
  ASSERT_TRUE(engine.RecordExecution(3, deadline[3] - 6, 6.0).ok());
  ASSERT_EQ(engine.PollEvents().size(), 1u);

  // Nothing is due one slice before the earliest deadline.
  engine.ExpireDeadlines(deadline[2] - 1);
  EXPECT_TRUE(engine.PollEvents().empty());
  EXPECT_EQ(engine.stats().executions_timed_out, 0);

  // A deadline is due at its own slice, and only that offer expires.
  engine.ExpireDeadlines(deadline[2]);
  EXPECT_EQ(ExpiredIds(engine.PollEvents()),
            std::vector<flexoffer::FlexOfferId>{2});
  EXPECT_EQ(*engine.lifecycle().StateOf(2), OfferState::kExpired);
  EXPECT_EQ(*engine.lifecycle().StateOf(4), OfferState::kAssigned);

  // One late pass expires the rest in (deadline, id) order, never offer 3.
  engine.ExpireDeadlines(deadline[1] + 10);
  std::vector<Event> events = engine.PollEvents();
  EXPECT_EQ(ExpiredIds(events), (std::vector<flexoffer::FlexOfferId>{4, 1}));
  for (const Event& event : events) {
    const auto& e = std::get<OfferExpired>(event);
    EXPECT_EQ(e.owner, 500 + e.offer);
    EXPECT_EQ(e.at, deadline[1] + 10);
  }
  EXPECT_EQ(engine.stats().executions_timed_out, 3);
  EXPECT_EQ(*engine.lifecycle().StateOf(3), OfferState::kExecuted);

  // Exactly one terminal event each: later passes and gates emit nothing.
  engine.ExpireDeadlines(deadline[1] + 100);
  ASSERT_TRUE(engine.Advance(deadline[1] + 200).ok());
  EXPECT_TRUE(engine.PollEvents().empty());
  EXPECT_EQ(engine.stats().executions_timed_out, 3);

  // A late metering of a timed-out offer fails and emits nothing.
  EXPECT_EQ(engine.RecordExecution(2, deadline[1] + 300, 6.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.PollEvents().empty());
  EXPECT_EQ(engine.stats().offers_executed, 1);
}

TEST(EdmsEngineTest, ZeroExecutionTimeoutDisablesTheCheck) {
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.execution_timeout_slices = 0;
  EdmsEngine engine(cfg);
  std::map<flexoffer::FlexOfferId, flexoffer::TimeSlice> deadline =
      AssignStaggered(engine);
  ASSERT_EQ(deadline.size(), 4u);

  engine.ExpireDeadlines(deadline[1] + 1000);
  ASSERT_TRUE(engine.Advance(deadline[1] + 1000).ok());
  EXPECT_TRUE(engine.PollEvents().empty());
  EXPECT_EQ(engine.stats().executions_timed_out, 0);
  for (const auto& [id, unused] : deadline) {
    EXPECT_EQ(*engine.lifecycle().StateOf(id), OfferState::kAssigned);
  }
  // Metering still closes the lifecycle however late it arrives.
  EXPECT_TRUE(engine.RecordExecution(1, deadline[1] + 2000, 6.0).ok());
}

TEST(EdmsEngineTest, RecordExecutionErrorContract) {
  EdmsEngine engine(DeterministicConfig());
  // Offer 10 (empty profile) fails validation and is rejected; offer 1 is
  // accepted but not yet scheduled (no gate has run).
  FlexOffer invalid;
  invalid.id = 10;
  invalid.owner = 510;
  std::vector<FlexOffer> offers = {invalid, ThreeOffers()[0]};
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  ASSERT_EQ(*engine.lifecycle().StateOf(10), OfferState::kRejected);
  ASSERT_EQ(*engine.lifecycle().StateOf(1), OfferState::kAccepted);
  (void)engine.PollEvents();

  // An id the engine never admitted is NotFound.
  EXPECT_EQ(engine.RecordExecution(999, 40, 1.0).code(),
            StatusCode::kNotFound);
  // A known offer that is not kAssigned is FailedPrecondition: rejected...
  EXPECT_EQ(engine.RecordExecution(10, 40, 1.0).code(),
            StatusCode::kFailedPrecondition);
  // ...or still waiting for its schedule.
  EXPECT_EQ(engine.RecordExecution(1, 40, 1.0).code(),
            StatusCode::kFailedPrecondition);
  // None of the failures emitted an event or moved a lifecycle.
  EXPECT_TRUE(engine.PollEvents().empty());
  EXPECT_EQ(*engine.lifecycle().StateOf(10), OfferState::kRejected);
  EXPECT_EQ(*engine.lifecycle().StateOf(1), OfferState::kAccepted);
  EXPECT_EQ(engine.stats().offers_executed, 0);
}

TEST(EdmsEngineTest, GateHonoursThePeriod) {
  EdmsEngine engine(DeterministicConfig());  // gate_period = 8
  std::vector<FlexOffer> offers = ThreeOffers();
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  (void)engine.PollEvents();
  ASSERT_TRUE(engine.Advance(0).ok());
  int64_t runs_after_first = engine.stats().scheduling_runs;
  // Within the same period nothing fires; at +8 it may again.
  ASSERT_TRUE(engine.Advance(4).ok());
  EXPECT_EQ(engine.stats().scheduling_runs, runs_after_first);
}

/// Robust gates by composition: the scheduler factory returns a
/// RobustScheduler over a bootstrapped forecast-error ensemble spanning the
/// engine's horizon. `inner_runs` counts the wrapped candidate runs.
EdmsEngine::Config RobustConfig(std::shared_ptr<int> inner_runs) {
  EdmsEngine::Config cfg = DeterministicConfig();
  const std::vector<double> pool = {-2.5, -1.0, -0.25, 0.5, 1.25, 3.5};
  // 8 scenarios over the engine's horizon, bootstrapped under seed 11.
  auto ensemble = ScenarioEnsemble::FromResidualPool(pool, cfg.horizon, 8, 11);
  EXPECT_TRUE(ensemble.ok()) << ensemble.status();
  if (!ensemble.ok()) return cfg;
  EXPECT_FALSE(ensemble->IsDegenerate());
  cfg.scheduler_factory = [scenarios = *ensemble, inner_runs] {
    scheduling::RobustScheduler::Config robust;
    robust.ensemble = scenarios;
    robust.inner_factory = [inner_runs] {
      ++*inner_runs;
      return std::make_unique<scheduling::GreedyScheduler>();
    };
    return std::make_unique<scheduling::RobustScheduler>(std::move(robust));
  };
  return cfg;
}

TEST(EdmsEngineTest, RobustSchedulingComposesThroughTheFactory) {
  auto inner_runs = std::make_shared<int>(0);
  EdmsEngine engine(RobustConfig(inner_runs));
  std::vector<FlexOffer> offers = ThreeOffers();
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  ASSERT_TRUE(engine.Advance(0).ok());

  std::map<flexoffer::FlexOfferId, int> assigned;
  for (const Event& event : engine.PollEvents()) {
    if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
      const ScheduledFlexOffer& schedule = e->schedule;
      ++assigned[schedule.offer_id];
      const FlexOffer& fo = offers[static_cast<size_t>(schedule.offer_id - 1)];
      EXPECT_TRUE(schedule.ValidateAgainst(fo).ok());
    }
  }
  // Every claimed offer gets exactly one schedule.
  ASSERT_EQ(assigned.size(), offers.size());
  for (const auto& [id, count] : assigned) EXPECT_EQ(count, 1) << id;
  EXPECT_EQ(engine.stats().micro_schedules_sent, 3);
  // The wrapper ranked several inner candidates: the robust path ran.
  EXPECT_GE(*inner_runs, 2);

  // Same seed, same ensemble: identical event streams.
  std::vector<std::string> a = RunRoundTrip(RobustConfig(inner_runs));
  std::vector<std::string> b = RunRoundTrip(RobustConfig(inner_runs));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mirabel::edms
