// One repetition of an EDMS benchmark workload.
//
// Drives EdmsEngine or ShardedEdmsRuntime through their public calls as a
// closed loop with one client: at every simulated gate it submits the offers
// due, meters the schedules that ended, calls Advance() and drains
// PollEvents(); the next batch goes in only after the gate returns. Every
// workload caps scheduling by iterations (no time budget), so schedules and
// outcomes are bit-reproducible for a seed and wall time measures the code.
//
// Usage:
//   edms_bench --workload <name> --seed <n> [--trace 0|1] [--trace-out FILE]
//
// Prints one JSON object on stdout: the end-to-end metrics, the outcome
// fields that must repeat exactly for a seed, the correctness errors found,
// and with --trace 1 the per-layer metrics taken from spans around the
// public calls. Exits 1 when a check fails, 2 on bad arguments.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <numbers>
#include <numeric>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"
#include "edms/baseline_provider.h"
#include "edms/edms_engine.h"
#include "edms/scheduler_registry.h"
#include "edms/sharded_runtime.h"
#include "forecasting/forecaster.h"
#include "trace.h"

namespace edmsbench {
namespace {

using mirabel::Result;
using mirabel::Status;
using mirabel::Stopwatch;
using mirabel::edms::EdmsEngine;
using mirabel::edms::EngineStats;
using mirabel::edms::Event;
using mirabel::edms::ShardedEdmsRuntime;
using mirabel::flexoffer::FlexOffer;
using mirabel::flexoffer::kSlicesPerDay;
using mirabel::flexoffer::TimeSlice;

constexpr int kGatePeriod = 4;  // hourly gates at 15-minute slices
/// Set-up is repeated until this much time is spent (at least 3 times).
constexpr double kSetupSampleS = 0.25;
constexpr size_t kSetupMaxRepeats = 2000;

/// One benchmark workload. Sizes are per repetition.
struct Workload {
  const char* name;
  /// Days over which offers are created.
  int book_days;
  /// Gates run this many days past the last creation day.
  int wind_down_days;
  int64_t offers_per_day;
  /// Submit the whole book at slice 0 instead of at each offer's creation.
  bool burst;
  mirabel::aggregation::AggregationParams grouping;
  /// Greedy iteration cap per gate (the runtime divides it across shards).
  int max_iterations;
  /// Baseline from trained HWT forecasters instead of a generated curve.
  bool forecast_baseline;
  /// HWT estimator evaluation cap per forecaster (forecast workloads).
  int forecaster_evals;
  /// 0 drives one EdmsEngine; > 0 a ShardedEdmsRuntime with that many
  /// shards on its private pool, streaming intake.
  size_t shards;
};

// Sizes keep one repetition near 1 s on a 4-core host, so a run replays
// every gate many times and gates stay a few milliseconds long.
const Workload kWorkloads[] = {
    {.name = "dayahead_burst",
     .book_days = 2,
     .wind_down_days = 1,
     .offers_per_day = 40000,
     .burst = true,
     .grouping = mirabel::aggregation::AggregationParams::P2(),
     .max_iterations = 48,
     .forecast_baseline = false,
     .forecaster_evals = 0,
     .shards = 0},
    {.name = "intraday_soak",
     .book_days = 14,
     .wind_down_days = 1,
     .offers_per_day = 8000,
     .burst = false,
     .grouping = mirabel::aggregation::AggregationParams::P2(),
     .max_iterations = 48,
     .forecast_baseline = false,
     .forecaster_evals = 0,
     .shards = 0},
    {.name = "schedule_bound",
     .book_days = 4,
     .wind_down_days = 1,
     .offers_per_day = 3000,
     .burst = false,
     .grouping = mirabel::aggregation::AggregationParams::P0(),
     .max_iterations = 1000,
     .forecast_baseline = true,
     .forecaster_evals = 400,
     .shards = 0},
    {.name = "sharded_intraday",
     .book_days = 4,
     .wind_down_days = 1,
     .offers_per_day = 40000,
     .burst = false,
     .grouping = mirabel::aggregation::AggregationParams::P2(),
     .max_iterations = 48,
     .forecast_baseline = false,
     .forecaster_evals = 0,
     .shards = 3},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------- process

struct ProcMem {
  double rss_kb = 0.0;
  double hwm_kb = 0.0;
};

ProcMem ReadProcMem() {
  ProcMem mem;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) mem.rss_kb = std::atof(line.c_str() + 6);
    if (line.rfind("VmHWM:", 0) == 0) mem.hwm_kb = std::atof(line.c_str() + 6);
  }
  return mem;
}

/// CPU seconds of every thread of the process.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// RSS after returning the allocator's cached free pages to the system, so
/// allocator caching does not read as retention.
double TrimmedRssKb() {
  malloc_trim(0);
  return ReadProcMem().rss_kb;
}

// ------------------------------------------------------------- decorators

/// Layer counters the decorators fill; read after the run.
struct DecoratorCounters {
  std::atomic<int64_t> runs{0};
  std::atomic<int64_t> macros{0};
  std::atomic<int64_t> iterations{0};
  std::atomic<int64_t> baseline_calls{0};
};

/// Scheduler decorator installed through Config::scheduler_factory: a span
/// and counters around the registry scheduler's run.
class TimedScheduler : public mirabel::scheduling::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<mirabel::scheduling::Scheduler> inner,
                 Tracer* tracer, DecoratorCounters* counters)
      : inner_(std::move(inner)), tracer_(tracer), counters_(counters) {}

  std::string Name() const override { return inner_->Name(); }

  Result<mirabel::scheduling::SchedulingResult> Run(
      const mirabel::scheduling::SchedulingProblem& problem,
      const mirabel::scheduling::SchedulerOptions& options) override {
    ScopedSpan span(tracer_, "scheduling.run");
    return Count(problem.offers.size(), inner_->Run(problem, options));
  }

  Result<mirabel::scheduling::SchedulingResult> RunCompiled(
      const mirabel::scheduling::CompiledProblem& compiled,
      const mirabel::scheduling::SchedulerOptions& options) override {
    ScopedSpan span(tracer_, "scheduling.run");
    return Count(compiled.source->offers.size(),
                 inner_->RunCompiled(compiled, options));
  }

 private:
  Result<mirabel::scheduling::SchedulingResult> Count(
      size_t macros, Result<mirabel::scheduling::SchedulingResult> result) {
    counters_->runs.fetch_add(1);
    counters_->macros.fetch_add(static_cast<int64_t>(macros));
    if (result.ok()) counters_->iterations.fetch_add(result->iterations);
    return result;
  }

  std::unique_ptr<mirabel::scheduling::Scheduler> inner_;
  Tracer* tracer_;
  DecoratorCounters* counters_;
};

/// Baseline decorator installed through Config::baseline.
class TimedBaseline : public mirabel::edms::BaselineProvider {
 public:
  TimedBaseline(std::shared_ptr<mirabel::edms::BaselineProvider> inner,
                Tracer* tracer, DecoratorCounters* counters)
      : inner_(std::move(inner)), tracer_(tracer), counters_(counters) {}

  Result<std::vector<double>> Baseline(TimeSlice start, int length) override {
    ScopedSpan span(tracer_, "forecasting.baseline");
    counters_->baseline_calls.fetch_add(1);
    return inner_->Baseline(start, length);
  }

 private:
  std::shared_ptr<mirabel::edms::BaselineProvider> inner_;
  Tracer* tracer_;
  DecoratorCounters* counters_;
};

// ----------------------------------------------------------------- inputs

struct Inputs {
  /// Offers in submission order (creation time, then id).
  std::vector<FlexOffer> offers;
  /// Per-slice baseline curve (generated-baseline workloads).
  std::vector<double> baseline_kwh;
  /// Forecaster training series (forecast-baseline workloads).
  std::vector<double> demand_history;
  std::vector<double> supply_history;
};

/// Scale of the baseline imbalance: proportional to the flexible load one
/// gate schedules, so the scheduler has imbalance to absorb at every size.
double BaselineScaleKwh(const Workload& w) {
  return 0.02 * static_cast<double>(w.offers_per_day);
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  mirabel::datagen::FlexOfferWorkloadConfig gen;
  gen.count = w.offers_per_day * w.book_days;
  gen.seed = seed;
  gen.horizon_days = w.book_days;
  gen.num_owners = 3000;
  in.offers = mirabel::datagen::GenerateFlexOffers(gen);
  std::stable_sort(in.offers.begin(), in.offers.end(),
                   [](const FlexOffer& a, const FlexOffer& b) {
                     return a.creation_time < b.creation_time;
                   });

  const int days = w.book_days + w.wind_down_days + 2;
  if (w.forecast_baseline) {
    mirabel::datagen::DemandSeriesConfig demand;
    demand.periods_per_day = kSlicesPerDay;
    demand.days = 21;
    demand.base_load_mw = 2000.0;
    demand.daily_amplitude = 1200.0;
    demand.weekly_amplitude = 300.0;
    demand.annual_amplitude = 0.0;
    demand.noise_stddev = 60.0;
    demand.seed = 0xD1u;
    in.demand_history = mirabel::datagen::GenerateDemandSeries(demand);
    mirabel::datagen::WindSeriesConfig wind;
    wind.periods_per_day = kSlicesPerDay;
    wind.days = 21;
    wind.capacity_mw = 2000.0;
    wind.seed = 0xE2u;
    in.supply_history = mirabel::datagen::GenerateWindSeries(wind);
  } else {
    // Daily RES-surplus cycle plus AR(1) noise, in units of the per-gate
    // flexible load.
    mirabel::Rng rng(0xBA5Eu);
    const double scale = BaselineScaleKwh(w);
    double noise = 0.0;
    in.baseline_kwh.resize(static_cast<size_t>(days * kSlicesPerDay));
    for (size_t t = 0; t < in.baseline_kwh.size(); ++t) {
      noise = 0.8 * noise + rng.Gaussian(0.0, 0.05);
      const int slice_of_day =
          mirabel::flexoffer::SliceOfDay(static_cast<TimeSlice>(t));
      const double phase =
          2.0 * std::numbers::pi * (slice_of_day - 24) / kSlicesPerDay;
      in.baseline_kwh[t] = scale * (0.6 * std::sin(phase) - 0.2 + noise);
    }
  }
  return in;
}

// ----------------------------------------------------------------- target

struct Metering {
  mirabel::flexoffer::FlexOfferId id = 0;
  mirabel::flexoffer::ActorId owner = 0;
  double energy_kwh = 0.0;
};

/// Gauges read between gates in the traced run.
struct Gauges {
  int64_t live_offers = 0;
  int64_t lifecycle_entries = 0;
  int64_t pipeline_offers = 0;
  int64_t groups = 0;
  /// Offer-weighted sum of the pipeline's mean time-flexibility loss.
  double flex_loss_weighted = 0.0;
  int64_t flex_loss_offers = 0;
  int64_t flex_offer_facts = 0;
};

void AddEngineGauges(const EdmsEngine& engine, Gauges* g) {
  using mirabel::edms::OfferState;
  const auto& lc = engine.lifecycle();
  const int64_t terminal =
      static_cast<int64_t>(lc.CountInState(OfferState::kRejected) +
                           lc.CountInState(OfferState::kExecuted) +
                           lc.CountInState(OfferState::kExpired));
  g->lifecycle_entries += static_cast<int64_t>(lc.size());
  g->live_offers += static_cast<int64_t>(lc.size()) - terminal;
  const auto& pipe = engine.pipeline();
  g->pipeline_offers += static_cast<int64_t>(pipe.num_offers());
  g->groups += static_cast<int64_t>(pipe.num_groups());
  mirabel::aggregation::AggregationStats stats = pipe.Stats();
  g->flex_loss_weighted +=
      stats.avg_time_flexibility_loss * static_cast<double>(stats.offer_count);
  g->flex_loss_offers += static_cast<int64_t>(stats.offer_count);
  g->flex_offer_facts += static_cast<int64_t>(engine.store().num_flex_offers());
}

/// The system under test behind the closed loop: one engine, or the sharded
/// runtime.
class Target {
 public:
  virtual ~Target() = default;
  virtual Status Submit(std::span<const FlexOffer> offers, TimeSlice now) = 0;
  virtual Status Meter(std::span<const Metering> due, TimeSlice now) = 0;
  virtual Status Advance(TimeSlice now) = 0;
  virtual std::vector<Event> Poll() = 0;
  virtual EngineStats Stats() const = 0;
  virtual Gauges ReadGauges() const = 0;
  /// Span names of the four driven calls.
  struct SpanNames {
    const char* submit;
    const char* meter;
    const char* advance;
    const char* poll;
  };
  virtual SpanNames spans() const = 0;
};

class EngineTarget : public Target {
 public:
  explicit EngineTarget(const EdmsEngine::Config& config) : engine_(config) {}

  Status Submit(std::span<const FlexOffer> offers, TimeSlice now) override {
    return engine_.SubmitOffers(offers, now).status();
  }
  Status Meter(std::span<const Metering> due, TimeSlice now) override {
    for (const Metering& m : due) {
      Status st = engine_.RecordExecution(m.id, now, m.energy_kwh);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }
  Status Advance(TimeSlice now) override { return engine_.Advance(now); }
  std::vector<Event> Poll() override { return engine_.PollEvents(); }
  EngineStats Stats() const override { return engine_.stats(); }
  Gauges ReadGauges() const override {
    Gauges g;
    AddEngineGauges(engine_, &g);
    return g;
  }
  SpanNames spans() const override {
    return {"edms.submit", "edms.execute", "edms.advance", "edms.poll"};
  }

 private:
  EdmsEngine engine_;
};

class RuntimeTarget : public Target {
 public:
  explicit RuntimeTarget(const ShardedEdmsRuntime::Config& config)
      : runtime_(config) {}

  Status Submit(std::span<const FlexOffer> offers, TimeSlice now) override {
    Result<size_t> enqueued = runtime_.SubmitOffers(offers, now);
    if (!enqueued.ok()) return enqueued.status();
    if (*enqueued != offers.size()) {
      return Status::Internal("streaming intake enqueued " +
                              std::to_string(*enqueued) + " of " +
                              std::to_string(offers.size()));
    }
    return Status::OK();
  }
  Status Meter(std::span<const Metering> due, TimeSlice now) override {
    readings_.clear();
    for (const Metering& m : due) {
      readings_.push_back({m.owner, now, m.energy_kwh, m.id});
    }
    runtime_.RecordMeterReadings(readings_);
    return Status::OK();
  }
  Status Advance(TimeSlice now) override { return runtime_.Advance(now); }
  std::vector<Event> Poll() override { return runtime_.PollEvents(); }
  EngineStats Stats() const override { return runtime_.stats(); }
  Gauges ReadGauges() const override {
    Gauges g;
    for (size_t i = 0; i < runtime_.num_shards(); ++i) {
      AddEngineGauges(runtime_.shard(i), &g);
    }
    return g;
  }
  SpanNames spans() const override {
    return {"runtime.submit", "runtime.meter", "runtime.advance",
            "runtime.poll"};
  }

  ShardedEdmsRuntime& runtime() { return runtime_; }

 private:
  ShardedEdmsRuntime runtime_;
  std::vector<ShardedEdmsRuntime::MeterReading> readings_;
};

// ------------------------------------------------------------------ setup

/// What set-up builds: the target plus the forecasters it reads (which must
/// outlive it).
struct System {
  std::unique_ptr<mirabel::forecasting::Forecaster> demand;
  std::unique_ptr<mirabel::forecasting::Forecaster> supply;
  std::shared_ptr<mirabel::edms::ForecastBaselineProvider> forecast;
  /// Runtime only: final stats written when the runtime is destroyed.
  std::shared_ptr<EngineStats> final_stats;
  std::unique_ptr<Target> target;
};

Result<System> SetUp(const Workload& w, uint64_t seed, const Inputs& in,
                     Tracer* tracer, DecoratorCounters* counters) {
  System sys;
  EdmsEngine::Config engine;
  engine.actor = 100;
  engine.negotiate = true;
  // Offers must reach the BRP two gates before their assignment deadline to
  // be processed in time; later ones are rejected (paper §7 acceptance).
  engine.negotiation.acceptance.min_processing_slices = 2 * kGatePeriod;
  engine.aggregation.params = w.grouping;
  engine.gate_period = kGatePeriod;
  engine.horizon = kSlicesPerDay;
  engine.scheduler_budget_s = 0.0;
  engine.scheduler_max_iterations = w.max_iterations;
  engine.seed = seed;

  mirabel::edms::SchedulerFactory greedy;
  {
    auto found =
        mirabel::edms::SchedulerRegistry::Default().Find("GreedySearch");
    if (!found.ok()) return found.status();
    greedy = *found;
  }
  engine.scheduler_factory = greedy;

  std::shared_ptr<mirabel::edms::BaselineProvider> baseline;
  if (w.forecast_baseline) {
    ScopedSpan span(tracer, "forecasting.fit");
    mirabel::forecasting::ForecasterConfig fc;
    fc.seasonal_periods = {kSlicesPerDay, 7 * kSlicesPerDay};
    fc.initial_estimation = {/*time_budget_s=*/0.0, w.forecaster_evals, seed};
    sys.demand = std::make_unique<mirabel::forecasting::Forecaster>(fc);
    sys.supply = std::make_unique<mirabel::forecasting::Forecaster>(fc);
    Status st = sys.demand->Train(
        mirabel::forecasting::TimeSeries(in.demand_history, kSlicesPerDay));
    if (!st.ok()) return st;
    st = sys.supply->Train(
        mirabel::forecasting::TimeSeries(in.supply_history, kSlicesPerDay));
    if (!st.ok()) return st;
    // Net MW forecast mapped onto the per-gate flexible load.
    sys.forecast = std::make_shared<mirabel::edms::ForecastBaselineProvider>(
        sys.demand.get(), sys.supply.get(), /*origin=*/0,
        BaselineScaleKwh(w) / 1000.0);
    baseline = sys.forecast;
  } else {
    baseline = std::make_shared<mirabel::edms::VectorBaselineProvider>(
        in.baseline_kwh);
  }

  if (tracer != nullptr) {
    engine.scheduler_factory = [greedy, tracer, counters]() {
      return std::unique_ptr<mirabel::scheduling::Scheduler>(
          std::make_unique<TimedScheduler>(greedy(), tracer, counters));
    };
    baseline = std::make_shared<TimedBaseline>(baseline, tracer, counters);
  }
  engine.baseline = baseline;

  if (w.shards == 0) {
    sys.target = std::make_unique<EngineTarget>(engine);
  } else {
    ShardedEdmsRuntime::Config rc;
    rc.num_shards = w.shards;
    rc.engine = engine;
    rc.streaming_intake = true;
    sys.final_stats = std::make_shared<EngineStats>();
    rc.final_stats = sys.final_stats;
    sys.target = std::make_unique<RuntimeTarget>(rc);
  }
  return sys;
}

// ------------------------------------------------------------- reporting

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Least-squares slope of `v` against its index.
/// num / den, or 0 when den is 0.
double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The first `n` values of `v` (all of them when it is shorter).
std::vector<double> Head(const std::vector<double>& v, size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(n, v.size()))};
}

double Slope(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  if (v.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    double x = static_cast<double>(i);
    sx += x;
    sy += v[i];
    sxx += x * x;
    sxy += x * v[i];
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/// Builds the flat JSON report line.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    Append(&metrics_, "\"" + name + "\": {\"value\": " + Num(value) +
                          ", \"unit\": \"" + unit + "\"}");
  }
  void Layer(const std::string& name, double value, const char* unit) {
    Append(&layers_, "\"" + name + "\": {\"value\": " + Num(value) +
                         ", \"unit\": \"" + unit + "\"}");
  }
  void Field(const std::string& name, const std::string& json_value) {
    Append(&fields_, "\"" + name + "\": " + json_value);
  }
  void Error(const std::string& message) {
    std::string escaped;
    for (char c : message) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    Append(&errors_, "\"" + escaped + "\"");
    ++error_count_;
  }
  int64_t error_count() const { return error_count_; }

  static std::string Num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string Series(const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? ", " : "") + Num(v[i]);
    }
    return out + "]";
  }

  std::string Json() const {
    return "{" + fields_ + ", \"metrics\": {" + metrics_ + "}, \"layers\": {" +
           layers_ + "}, \"errors\": [" + errors_ + "]}";
  }

 private:
  static void Append(std::string* out, const std::string& item) {
    if (!out->empty()) *out += ", ";
    *out += item;
  }
  std::string fields_, metrics_, layers_, errors_;
  int64_t error_count_ = 0;
};

// -------------------------------------------------------------- the loop

/// Terminal outcome counts from the event stream.
struct Outcomes {
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t executed = 0;
  int64_t expired = 0;
  int64_t assigned = 0;
  int64_t macros = 0;
  int64_t events = 0;
};

struct PendingExecution {
  TimeSlice end = 0;
  Metering metering;
  bool operator>(const PendingExecution& o) const {
    return end != o.end ? end > o.end : metering.id > o.metering.id;
  }
};

/// What the closed loop observed.
struct LoopResult {
  Outcomes out;
  /// Terminal events seen per offer id (index 0 unused).
  std::vector<uint8_t> terminal_events;
  int64_t unknown_terminal = 0;
  /// FNV-1a over (kind, offer, slice) of the outcome events, in stream order.
  uint64_t digest = 1469598103934665603ULL;
  std::vector<double> gate_ms;
  /// Wall milliseconds of each gate's whole step, submit to drain.
  std::vector<double> step_ms;
  std::vector<double> day_wall_s;
  /// Wall seconds from the first submit to the final drain, without the
  /// traced run's gauge reads.
  double loop_s = 0.0;
  /// CPU seconds of all threads over the loop. Next to loop_s it tells host
  /// contention (both grow) from waiting (only wall time grows).
  double loop_cpu_s = 0.0;
  // Traced run only.
  std::vector<double> rss_per_day_mb;
  Gauges peak;
  double facts_per_live_max = 0.0;
  double flex_loss_weighted = 0.0;
  int64_t flex_loss_offers = 0;
  int64_t intake_depth_peak = 0;
};

/// Runs the closed loop over every gate of the workload; call failures go
/// to `report`. `tracer` is null in the untraced run.
LoopResult DriveLoop(const Workload& w, const Inputs& in, Target& target,
                     Tracer* tracer, Report* report) {
  LoopResult r;
  r.terminal_events.assign(in.offers.size() + 1, 0);
  const int64_t submitted = static_cast<int64_t>(in.offers.size());
  RuntimeTarget* runtime_target = dynamic_cast<RuntimeTarget*>(&target);
  const Target::SpanNames names = target.spans();
  // FNV-1a over (kind, offer, slice) of the outcome events, in stream order.
  auto mix = [&r](uint64_t kind, uint64_t id, TimeSlice at) {
    for (uint64_t v : {kind, id, static_cast<uint64_t>(at)}) {
      for (int i = 0; i < 8; ++i) {
        r.digest ^= (v >> (8 * i)) & 0xFF;
        r.digest *= 1099511628211ULL;
      }
    }
  };
  auto terminal = [&](mirabel::flexoffer::FlexOfferId id) {
    if (id == 0 || id > static_cast<uint64_t>(submitted)) {
      ++r.unknown_terminal;
    } else if (r.terminal_events[id] < 255) {
      ++r.terminal_events[id];
    }
  };
  std::priority_queue<PendingExecution, std::vector<PendingExecution>,
                      std::greater<>>
      pending;
  std::vector<Metering> due;

  // Per-gate and per-day measurements.
  double day_wall = 0.0;
  double sampling_s = 0.0;

  auto fail = [&](const char* call, TimeSlice now, const Status& st) {
    report->Error(std::string(call) + " at slice " + std::to_string(now) +
                 ": " + st.ToString());
  };

  const TimeSlice end_slice =
      static_cast<TimeSlice>(w.book_days + w.wind_down_days) * kSlicesPerDay;
  size_t next_offer = 0;
  int64_t gate = 0;
  Stopwatch loop_watch;
  const double cpu_start_s = ProcessCpuSeconds();
  for (TimeSlice now = 0; now < end_slice; now += kGatePeriod, ++gate) {
    if (tracer != nullptr) tracer->set_gate(gate);
    Stopwatch step_watch;

    // 1. Submit the offers due at this gate.
    size_t first = next_offer;
    while (next_offer < in.offers.size() &&
           (w.burst || in.offers[next_offer].creation_time <= now)) {
      ++next_offer;
    }
    if (next_offer > first) {
      ScopedSpan span(tracer, names.submit);
      Status st = target.Submit(
          std::span<const FlexOffer>(in.offers.data() + first,
                                     next_offer - first),
          now);
      if (!st.ok()) fail("submit", now, st);
    }
    if (tracer != nullptr && runtime_target != nullptr) {
      Stopwatch sample_watch;
      r.intake_depth_peak = std::max(
          r.intake_depth_peak,
          runtime_target->runtime().Snapshot().intake_depth_batches);
      sampling_s += sample_watch.ElapsedSeconds();
    }

    // 2. Meter the schedules that ended.
    due.clear();
    while (!pending.empty() && pending.top().end <= now) {
      due.push_back(pending.top().metering);
      pending.pop();
    }
    if (!due.empty()) {
      ScopedSpan span(tracer, names.meter);
      Status st = target.Meter(due, now);
      if (!st.ok()) fail("meter", now, st);
    }

    // 3. Close the gate.
    {
      ScopedSpan span(tracer, names.advance, /*as_parent=*/true);
      Stopwatch gate_watch;
      Status st = target.Advance(now);
      r.gate_ms.push_back(gate_watch.ElapsedMillis());
      if (!st.ok()) fail("advance", now, st);
    }

    // 4. Drain the events.
    std::vector<Event> events;
    {
      ScopedSpan span(tracer, names.poll);
      events = target.Poll();
    }
    r.out.events += static_cast<int64_t>(events.size());
    for (const Event& e : events) {
      using namespace mirabel::edms;
      if (std::holds_alternative<OfferAccepted>(e)) {
        ++r.out.accepted;
      } else if (const auto* x = std::get_if<OfferRejected>(&e)) {
        if (x->reason == RejectReason::kOverloaded) {
          ++r.out.shed;
        } else {
          ++r.out.rejected;
        }
        terminal(x->offer);
        mix(1, x->offer, x->at);
      } else if (std::holds_alternative<MacroPublished>(e)) {
        ++r.out.macros;
      } else if (const auto* x = std::get_if<ScheduleAssigned>(&e)) {
        ++r.out.assigned;
        const auto& s = x->schedule;
        double energy = 0.0;
        for (double kwh : s.energies_kwh) energy += kwh;
        pending.push(PendingExecution{
            s.start + static_cast<TimeSlice>(s.energies_kwh.size()),
            Metering{s.offer_id, x->owner, energy}});
        mix(2, s.offer_id, s.start);
      } else if (const auto* x = std::get_if<OfferExecuted>(&e)) {
        ++r.out.executed;
        terminal(x->offer);
        mix(3, x->offer, x->at);
      } else if (const auto* x = std::get_if<OfferExpired>(&e)) {
        ++r.out.expired;
        terminal(x->offer);
        mix(4, x->offer, x->at);
      }
    }
    const double step_s = step_watch.ElapsedSeconds();
    r.step_ms.push_back(1e3 * step_s);
    day_wall += step_s;

    // Gauges between gates (traced run only).
    const bool day_end = (now + kGatePeriod) % kSlicesPerDay == 0;
    if (tracer != nullptr) {
      Stopwatch sample_watch;
      Gauges g = target.ReadGauges();
      r.peak.live_offers = std::max(r.peak.live_offers, g.live_offers);
      r.peak.pipeline_offers =
          std::max(r.peak.pipeline_offers, g.pipeline_offers);
      r.peak.groups = std::max(r.peak.groups, g.groups);
      r.flex_loss_weighted += g.flex_loss_weighted;
      r.flex_loss_offers += g.flex_loss_offers;
      if (day_end) {
        if (g.live_offers > 0) {
          r.facts_per_live_max =
              std::max(r.facts_per_live_max,
                       static_cast<double>(g.flex_offer_facts) /
                           static_cast<double>(g.live_offers));
        }
        r.rss_per_day_mb.push_back(ReadProcMem().rss_kb / 1024.0);
      }
      sampling_s += sample_watch.ElapsedSeconds();
    }
    if (day_end) {
      r.day_wall_s.push_back(day_wall);
      day_wall = 0.0;
    }
  }
  r.loop_s = loop_watch.ElapsedSeconds() - sampling_s;
  r.loop_cpu_s = ProcessCpuSeconds() - cpu_start_s;
  return r;
}

void ExpectEq(Report* report, const char* what, int64_t got, int64_t want) {
  if (got != want) {
    report->Error(std::string(what) + ": " + std::to_string(got) + " != " +
                  std::to_string(want));
  }
}

/// Checks the outcome of the loop against the engine's own counters; every
/// mismatch becomes a report error. Returns the offers that completed.
int64_t CheckOutcomes(const LoopResult& r, const EngineStats& stats,
                      int64_t submitted, int64_t live_after_drain,
                      Report* report) {
  int64_t completed = 0;
  int64_t missing = 0;
  int64_t duplicated = 0;
  for (int64_t id = 1; id <= submitted; ++id) {
    if (r.terminal_events[static_cast<size_t>(id)] >= 1) ++completed;
    if (r.terminal_events[static_cast<size_t>(id)] == 0) ++missing;
    if (r.terminal_events[static_cast<size_t>(id)] > 1) ++duplicated;
  }
  ExpectEq(report, "offers without a terminal event", missing, 0);
  ExpectEq(report, "offers with several terminal events", duplicated, 0);
  ExpectEq(report, "terminal events for unknown ids", r.unknown_terminal, 0);
  ExpectEq(report, "OfferAccepted events vs offers_accepted", r.out.accepted,
            stats.offers_accepted);
  ExpectEq(report, "OfferRejected events vs offers_rejected", r.out.rejected,
            stats.offers_rejected);
  ExpectEq(report, "shed events vs offers_shed", r.out.shed, stats.offers_shed);
  ExpectEq(report, "OfferExecuted events vs offers_executed", r.out.executed,
            stats.offers_executed);
  ExpectEq(report, "OfferExpired events vs expiry counters", r.out.expired,
            stats.offers_expired_in_pipeline + stats.executions_timed_out);
  ExpectEq(report, "ScheduleAssigned events vs micro_schedules_sent",
           r.out.assigned,
            stats.micro_schedules_sent);
  ExpectEq(report, "MacroPublished events vs macros_scheduled", r.out.macros,
            stats.macros_scheduled);
  ExpectEq(report, "offers_received vs submitted",
            stats.offers_received + stats.offers_shed, submitted);
  ExpectEq(report, "received + shed vs terminal reasons",
            stats.offers_received + stats.offers_shed,
            stats.offers_rejected + stats.offers_executed +
                stats.offers_expired_in_pipeline + stats.executions_timed_out +
                stats.offers_shed + stats.offers_dropped_at_shutdown);
  ExpectEq(report, "live offers after the drain", live_after_drain, 0);
  ExpectEq(report, "metering failures", stats.metering_failures, 0);
  ExpectEq(report, "intake errors", stats.intake_errors, 0);
  ExpectEq(report, "execution timeouts of metered offers",
            stats.executions_timed_out, 0);
  return completed;
}

int Run(const Workload& w, uint64_t seed, bool traced,
        const std::string& trace_out) {
  Report report;
  report.Field("workload", "\"" + std::string(w.name) + "\"");
  report.Field("seed", std::to_string(seed));
  report.Field("trace", traced ? "1" : "0");

  const Inputs in = MakeInputs(w, seed);
  const int64_t submitted = static_cast<int64_t>(in.offers.size());

  // Set-up time is the median of repeated untraced set-ups: at least three,
  // and more while they take under kSetupSampleS in total, so microsecond
  // set-ups still read steadily. The driven system is built once more, with
  // the decorators when traced.
  std::unique_ptr<Tracer> tracer =
      traced ? std::make_unique<Tracer>() : nullptr;
  DecoratorCounters counters;
  std::vector<double> setup_times;
  Stopwatch setup_total;
  Status setup_status = Status::OK();
  while (setup_status.ok() &&
         (setup_times.size() < 3 ||
          (setup_total.ElapsedSeconds() < kSetupSampleS &&
           setup_times.size() < kSetupMaxRepeats))) {
    Stopwatch watch;
    Result<System> trial = SetUp(w, seed, in, nullptr, &counters);
    setup_times.push_back(watch.ElapsedSeconds());
    setup_status = trial.status();
    // `trial` is torn down here, outside the timed part.
  }
  Result<System> built =
      setup_status.ok() ? SetUp(w, seed, in, tracer.get(), &counters)
                        : Result<System>(setup_status);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  System sys = std::move(*built);
  Target& target = *sys.target;
  RuntimeTarget* runtime_target = dynamic_cast<RuntimeTarget*>(&target);
  const Target::SpanNames names = target.spans();
  const double rss_after_setup_kb = TrimmedRssKb();

  const LoopResult r = DriveLoop(w, in, target, tracer.get(), &report);
  report.Field("loop_wall_s", Report::Num(r.loop_s));
  report.Field("loop_cpu_s", Report::Num(r.loop_cpu_s));

  // ------------------------------------------------------------ checks
  const EngineStats stats = target.Stats();
  const Gauges final_gauges = target.ReadGauges();
  const double rss_end_kb = TrimmedRssKb();

  const int64_t completed =
      CheckOutcomes(r, stats, submitted, final_gauges.live_offers, &report);

  // Runtime-only readings, taken before the runtime is torn down.
  double pool_steals = 0.0;
  double shard_skew = 0.0;
  if (runtime_target != nullptr) {
    ShardedEdmsRuntime& runtime = runtime_target->runtime();
    if (runtime.pool()) {
      pool_steals = static_cast<double>(runtime.pool()->steals());
    }
    double max_received = 0.0;
    double sum_received = 0.0;
    for (size_t i = 0; i < runtime.num_shards(); ++i) {
      const double received =
          static_cast<double>(runtime.shard(i).stats().offers_received);
      max_received = std::max(max_received, received);
      sum_received += received;
    }
    shard_skew = Ratio(max_received * static_cast<double>(runtime.num_shards()),
                       sum_received);
  }
  const int64_t rebuilds = sys.forecast ? sys.forecast->rebuilds() : 0;
  const std::shared_ptr<EngineStats> final_stats = sys.final_stats;
  sys = System{};  // joins the runtime's workers
  const int64_t dropped =
      final_stats ? final_stats->offers_dropped_at_shutdown : 0;
  ExpectEq(&report, "offers dropped at shutdown", dropped, 0);
  const ProcMem mem_end = ReadProcMem();

  // ------------------------------------------------------ end-to-end
  const int64_t executed = stats.offers_executed;
  const double unserved =
      Ratio(static_cast<double>(submitted - executed),
            static_cast<double>(submitted));
  const double reduction =
      stats.imbalance_before_kwh - stats.imbalance_after_kwh;

  std::vector<double> sorted_gates = r.gate_ms;
  std::sort(sorted_gates.begin(), sorted_gates.end());
  const size_t n_gates = sorted_gates.size();
  // Highest percentile with at least ten gates beyond it.
  const size_t tail_index = n_gates > 10 ? n_gates - 11 : n_gates - 1;
  const double tail_pct =
      100.0 * Ratio(static_cast<double>(tail_index + 1),
                    static_cast<double>(n_gates));

  report.Field("offers_submitted", std::to_string(submitted));
  report.Field("outcomes",
               "{\"executed\": " + std::to_string(stats.offers_executed) +
                   ", \"expired_in_pipeline\": " +
                   std::to_string(stats.offers_expired_in_pipeline) +
                   ", \"execution_timeouts\": " +
                   std::to_string(stats.executions_timed_out) +
                   ", \"rejected\": " + std::to_string(stats.offers_rejected) +
                   ", \"shed\": " + std::to_string(stats.offers_shed) +
                   ", \"dropped\": " + std::to_string(dropped) +
                   ", \"schedule_cost_eur\": " +
                   Report::Num(stats.schedule_cost_eur) +
                   ", \"imbalance_reduction_kwh\": " + Report::Num(reduction) +
                   ", \"unserved_share\": " + Report::Num(unserved) +
                   ", \"event_digest\": \"" + std::to_string(r.digest) + "\"}");
  report.Field("gate_tail_percentile", Report::Num(tail_pct));
  report.Field("gates", std::to_string(n_gates));
  report.Field("completed", std::to_string(completed));
  // Per-gate series and the fastest set-up, for run.py's estimates across
  // repetitions of the same seed.
  report.Field("gate_ms", Report::Series(r.gate_ms));
  report.Field("step_ms", Report::Series(r.step_ms));
  report.Field("setup_best_s",
               Report::Num(*std::min_element(setup_times.begin(),
                                             setup_times.end())));

  report.Metric("completed_offers_per_s",
                static_cast<double>(completed) / r.loop_s, "offers/s");
  report.Metric("gate_p50_ms", Median(r.gate_ms), "ms");
  report.Metric("gate_tail_ms", sorted_gates[tail_index], "ms");
  report.Metric("peak_rss_mb", mem_end.hwm_kb / 1024.0, "MB");
  report.Metric("retained_kb_per_offer",
                Ratio(rss_end_kb - rss_after_setup_kb,
                      static_cast<double>(submitted)),
                "KB");
  report.Metric("setup_s", Median(setup_times), "s");
  report.Metric("imbalance_reduction_kwh", reduction, "kWh");
  report.Metric("schedule_cost_eur", stats.schedule_cost_eur, "EUR");
  report.Metric("unserved_share", unserved, "ratio");

  // -------------------------------------------------------- per-layer
  if (tracer) {
    const Tracer& t = *tracer;
    const LayerTime gate_t = t.Layer(names.advance);
    const LayerTime submit_t = t.Layer(names.submit);
    const LayerTime meter_t = t.Layer(names.meter);
    const LayerTime poll_t = t.Layer(names.poll);
    const LayerTime sched_t = t.Layer("scheduling.run");
    const LayerTime fit_t = t.Layer("forecasting.fit");
    const LayerTime base_t = t.Layer("forecasting.baseline");
    const bool engine = w.shards == 0;
    auto engine_only = [engine](double v) { return engine ? v : 0.0; };
    auto runtime_only = [engine](double v) { return engine ? 0.0 : v; };

    report.Layer("edms.gate_s", gate_t.total_s, "s");
    report.Layer("edms.gate_self_s", gate_t.self_s, "s");
    report.Layer("edms.gates", static_cast<double>(gate_t.count), "count");
    report.Layer("edms.submit_s", engine_only(submit_t.total_s), "s");
    report.Layer("edms.submit_us_per_offer",
                 engine_only(1e6 * submit_t.total_s /
                             static_cast<double>(submitted)),
                 "us");
    report.Layer("edms.execute_s", engine_only(meter_t.total_s), "s");
    report.Layer("edms.executions", static_cast<double>(r.out.executed),
                 "count");
    report.Layer("edms.poll_s", engine_only(poll_t.total_s), "s");
    report.Layer("edms.events", static_cast<double>(r.out.events), "count");
    report.Layer("edms.live_offers_peak",
                 static_cast<double>(r.peak.live_offers),
                 "count");
    report.Layer("edms.lifecycle_entries",
                 static_cast<double>(final_gauges.lifecycle_entries), "count");
    // Per-day series over the days that take arrivals (not the burst book).
    const std::vector<double> arrival_days =
        w.burst ? std::vector<double>{}
                : Head(r.day_wall_s, static_cast<size_t>(w.book_days));
    const double day_mean =
        Ratio(std::accumulate(arrival_days.begin(), arrival_days.end(), 0.0),
              static_cast<double>(arrival_days.size()));
    report.Layer("edms.day_wall_s",
                 arrival_days.empty() ? 0.0 : arrival_days.back(),
                 "s");
    report.Layer("edms.day_wall_slope_pct",
                 100.0 * Ratio(Slope(arrival_days), day_mean),
                 "%/day");

    std::vector<double> runs = t.Durations("scheduling.run");
    report.Layer("scheduling.run_s", sched_t.total_s, "s");
    report.Layer("scheduling.runs", static_cast<double>(counters.runs.load()),
                 "count");
    report.Layer("scheduling.run_p50_ms", 1e3 * Median(runs), "ms");
    report.Layer("scheduling.macros_per_run",
                 Ratio(static_cast<double>(counters.macros.load()),
                       static_cast<double>(counters.runs.load())),
                 "count");
    report.Layer("scheduling.iterations",
                 static_cast<double>(counters.iterations.load()), "count");
    report.Layer("scheduling.share_of_gate",
                 Ratio(t.CoveredSeconds(names.advance, "scheduling.run"),
                       gate_t.total_s),
                 "ratio");

    report.Layer("aggregation.macros",
                 static_cast<double>(stats.macros_scheduled), "count");
    report.Layer("aggregation.offers_per_macro",
                 Ratio(static_cast<double>(stats.micro_schedules_sent),
                       static_cast<double>(stats.macros_scheduled)),
                 "count");
    report.Layer("aggregation.pipeline_offers_peak",
                 static_cast<double>(r.peak.pipeline_offers), "count");
    report.Layer("aggregation.groups_peak", static_cast<double>(r.peak.groups),
                 "count");
    report.Layer("aggregation.time_flex_loss_slices",
                 Ratio(r.flex_loss_weighted,
                       static_cast<double>(r.flex_loss_offers)),
                 "slices");

    report.Layer("negotiation.accepted",
                 static_cast<double>(stats.offers_accepted), "count");
    report.Layer("negotiation.rejected",
                 static_cast<double>(stats.offers_rejected), "count");
    report.Layer("negotiation.payments_eur", stats.payments_eur, "EUR");

    report.Layer("storage.flex_offer_facts",
                 static_cast<double>(final_gauges.flex_offer_facts), "count");
    report.Layer("storage.facts_per_live_offer", r.facts_per_live_max, "ratio");

    report.Layer("forecasting.fit_s", fit_t.total_s, "s");
    report.Layer("forecasting.baseline_s", base_t.total_s, "s");
    report.Layer("forecasting.baseline_calls",
                 static_cast<double>(counters.baseline_calls.load()), "count");
    report.Layer("forecasting.cache_rebuilds", static_cast<double>(rebuilds),
                 "count");

    report.Layer("runtime.submit_s", runtime_only(submit_t.total_s), "s");
    report.Layer("runtime.advance_s", runtime_only(gate_t.total_s), "s");
    report.Layer("runtime.meter_s", runtime_only(meter_t.total_s), "s");
    report.Layer("runtime.poll_s", runtime_only(poll_t.total_s), "s");
    report.Layer("runtime.intake_depth_peak",
                 static_cast<double>(r.intake_depth_peak), "batches");
    report.Layer("runtime.pool_steals", pool_steals, "count");
    report.Layer("runtime.shard_skew", shard_skew, "ratio");
    report.Layer("runtime.metering_failures",
                 static_cast<double>(stats.metering_failures), "count");

    report.Layer("process.rss_after_setup_mb", rss_after_setup_kb / 1024.0,
                 "MB");
    report.Layer("process.rss_per_day_mb",
                 r.rss_per_day_mb.empty() ? 0.0 : r.rss_per_day_mb.back(),
                 "MB");
    report.Layer(
        "process.rss_slope_kb_per_day",
        1024.0 *
            Slope(Head(r.rss_per_day_mb, static_cast<size_t>(w.book_days))),
        "KB/day");

    report.Field("series", "{\"day_wall_s\": " + Report::Series(r.day_wall_s) +
                               ", \"rss_per_day_mb\": " +
                               Report::Series(r.rss_per_day_mb) + "}");
    if (!trace_out.empty() && !t.WriteJson(trace_out)) {
      report.Error("cannot write trace file " + trace_out);
    }
  }

  report.Field("failed", std::to_string(report.error_count()));
  std::printf("%s\n", report.Json().c_str());
  return report.error_count() == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: edms_bench --workload <name> --seed <n> "
               "[--trace 0|1] [--trace-out FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace edmsbench

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace") {
      traced = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return edmsbench::Usage();
    }
  }
  const edmsbench::Workload* w = edmsbench::FindWorkload(workload);
  if (w == nullptr || !have_seed || argc % 2 == 0) return edmsbench::Usage();
  return edmsbench::Run(*w, seed, traced, trace_out);
}
