#ifndef MIRABEL_EDMS_SHARDED_RUNTIME_H_
#define MIRABEL_EDMS_SHARDED_RUNTIME_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "edms/edms_engine.h"
#include "edms/runtime_snapshot.h"
#include "edms/shard_router.h"
#include "edms/worker_pool.h"

namespace mirabel::edms {

/// A partitioned EDMS runtime: N EdmsEngine shards behind one event stream,
/// scheduled on a (shareable) work-stealing WorkerPool.
///
/// The MIRABEL hierarchy absorbs flex-offers from thousands of prosumers per
/// BRP node (paper §2). One single-threaded engine serializes that whole
/// load; the runtime instead partitions prosumers across `num_shards`
/// independent engines (a pluggable ShardRouter maps owner -> shard, owner %
/// N by default) and runs every shard's intake and gate closures as tasks on
/// a per-shard WorkerPool::Strand. Strands keep each engine effectively
/// single-threaded (FIFO, one task at a time) while the pool floats them
/// between workers: an idle worker steals the strand of an overloaded shard
/// instead of idling behind its own, and several runtimes (multi-BRP
/// deployments) share one pool via Config::pool. Each shard streams its
/// events through a lock-free SPSC EventQueue; PollEvents() merges the
/// per-shard streams into one deterministically ordered output (ascending
/// emission slice, ties by shard index, per-shard emission order preserved).
///
/// Intake comes in two modes:
///  - Fork-join (default): SubmitOffers()/Advance() fan the work out to the
///    shard strands, wait for all of them, and return the combined result —
///    the caller observes exactly the single-engine API, and between calls
///    the strands are quiescent, which makes the accessors (stats(),
///    shard(), HasSeenOffer()) safe without locks.
///  - Streaming (Config::streaming_intake): SubmitOffers() pushes routed
///    batches into per-shard lock-free MPSC IntakeQueues and returns
///    immediately with the enqueued count; shard strand tasks drain the
///    queues into the engines, so intake proceeds concurrently with running
///    gates ("intake is never gated on a scheduling pass", paper §3) and
///    from any number of submitter threads. Acceptance/rejection surfaces
///    through the event stream instead of the return value; duplicate ids
///    are dropped at drain time. Advance() still joins (it is the control
///    loop's barrier); the accessors require quiescence — every submitter
///    stopped, then one FlushIntake()/Advance() — before they are safe.
///    Intake is bounded when Config::max_pending_batches_per_shard is set:
///    on overflow, SubmitOffers() sheds the overflowing sub-batches with
///    OfferRejected{kOverloaded} events (reject-with-event beats silent OOM
///    at millions of producers).
///
/// Mid-stream observability: Snapshot() returns coherent merged stats and
/// per-shard gauges (intake queue depth, strand task latency, last drain
/// slice) from ANY thread at ANY time — each shard strand republishes its
/// state through a seqlock slot after every task, so snapshots never require
/// quiescence. stats()/shard()/HasSeenOffer() remain the exact, quiescent
/// fast path (see the threading table in docs/architecture.md).
///
/// Every per-shard call — fork-join intake, gates, deadline passes, intake
/// flushes, metering batches, macro-schedule probes — goes through one
/// fan-out: inline on the caller thread when the runtime has no pool, else
/// posted on the strands of the shards that have work and joined.
///
/// Threading contract (see also docs/architecture.md): Advance(),
/// ExpireDeadlines(), FlushIntake(), CompleteMacroSchedule(),
/// RecordMeterReadings(), PollEvents() are single-caller (the control
/// thread). SubmitOffers() is additionally safe from concurrent producer
/// threads in streaming mode.
///
/// Offer ids must be unique per owner across the runtime (true for every
/// id scheme in the repo: owners mint their own namespaced ids). Duplicate
/// detection is per shard — the router keeps an owner's offers on one
/// shard, so resubmissions are still caught.
class ShardedEdmsRuntime {
 public:
  struct Config {
    /// Number of engine shards; 0 is treated as 1. With 1 shard (and no
    /// shared pool, no streaming) the runtime degenerates to a
    /// zero-overhead wrapper: no workers, every call runs inline on the
    /// caller thread against the one engine.
    size_t num_shards = 1;
    /// Owner -> shard placement; null resolves to OwnerModuloRouter().
    ShardRouter router;
    /// Template configuration applied to every shard. Per shard, the
    /// runtime derives: macro_id_lane/lanes (collision-free macro wire
    /// ids), the seed (offset per shard) and the scheduler budget — the
    /// template's time and iteration caps divided by num_shards, holding
    /// the *total* scheduling effort per gate closure constant across shard
    /// counts: N shards each solve a 1/N-sized problem with 1/N of the
    /// budget.
    EdmsEngine::Config engine;
    /// Worker pool to schedule the shard strands on. Null: the runtime
    /// creates a private pool with `num_shards` workers (the
    /// thread-per-shard footprint of the pre-pool runtime). Pass one pool
    /// handle to several runtimes to run a whole multi-BRP deployment on a
    /// fixed worker budget.
    std::shared_ptr<WorkerPool> pool;
    /// Enables streaming intake (see the class comment).
    bool streaming_intake = false;
    /// Streaming mode only: caps each shard's intake queue at this many
    /// pending batches (0 = unbounded, today's behavior). The bound is
    /// enforced approximately — producers racing SubmitOffers() can
    /// transiently overshoot by about the producer count — which is the
    /// right trade for a lock-free hot path; the guarantee is "bounded",
    /// not "exact". A sub-batch whose shard queue is full is dropped, with
    /// one OfferRejected{kOverloaded} event per shed offer (counted in
    /// EngineStats::offers_shed); the call still succeeds for the other
    /// shards' sub-batches.
    size_t max_pending_batches_per_shard = 0;
    /// Optional shutdown sink: when set, ~ShardedEdmsRuntime writes the
    /// final merged stats here after joining the strands, with
    /// offers_dropped_at_shutdown counting any offers still sitting
    /// undrained in shard intake queues — so offers can't vanish without a
    /// trace when a streaming runtime is torn down mid-stream.
    std::shared_ptr<EngineStats> final_stats;
  };

  explicit ShardedEdmsRuntime(const Config& config);
  ~ShardedEdmsRuntime();

  ShardedEdmsRuntime(const ShardedEdmsRuntime&) = delete;
  ShardedEdmsRuntime& operator=(const ShardedEdmsRuntime&) = delete;

  /// Fork-join mode: routes the batch to its shards, negotiates/admits each
  /// sub-batch on the shard's strand in parallel, and returns the total
  /// number accepted (or the first shard error; a duplicate id rejects its
  /// own shard's sub-batch).
  ///
  /// Streaming mode: enqueues the routed batches and returns the number
  /// *enqueued*; outcomes arrive as OfferAccepted/OfferRejected events and
  /// intake errors surface from the next Advance()/FlushIntake(). Safe to
  /// call from multiple threads concurrently, including while gates run.
  Result<size_t> SubmitOffers(std::span<const flexoffer::FlexOffer> offers,
                              flexoffer::TimeSlice now);

  /// Single-offer convenience over SubmitOffers().
  Status SubmitOffer(const flexoffer::FlexOffer& offer,
                     flexoffer::TimeSlice now);

  /// Advances every shard's control loop to `now` in parallel and joins;
  /// shards whose gate is due drain their pending intake first, then
  /// aggregate + schedule (or publish) their own partition. Returns the
  /// first deferred streaming-intake error, if any, before gate errors.
  Status Advance(flexoffer::TimeSlice now);

  /// Runs every shard's deadline-degradation pass
  /// (EdmsEngine::ExpireDeadlines) and joins, WITHOUT firing gates: expires
  /// stale pipeline offers, forwarded macros whose schedule never returned,
  /// and assigned offers with overdue execution confirmations. Wind-down
  /// phases call this so offers reach terminal lifecycle states even though
  /// no further gates open. Pending streaming intake is drained first so a
  /// late batch cannot be admitted after its deadline check.
  Status ExpireDeadlines(flexoffer::TimeSlice now);

  /// Drains every shard's pending streaming intake and joins, WITHOUT
  /// advancing gates; returns the first deferred intake error. A no-op in
  /// fork-join mode. After it returns (with no concurrent submitters) the
  /// accessors are safe and PollEvents() sees every enqueued outcome.
  Status FlushIntake();

  /// Delivers the schedule of a forwarded macro offer to the shard that
  /// published it. NotFound when no shard has such a macro pending.
  Status CompleteMacroSchedule(const flexoffer::ScheduledFlexOffer& schedule,
                               flexoffer::TimeSlice now);

  /// One metered reading on the bus hot path; `offer_id` != 0 additionally
  /// closes that offer's lifecycle (execution metering).
  struct MeterReading {
    flexoffer::ActorId actor = 0;
    flexoffer::TimeSlice slice = 0;
    double energy_kwh = 0.0;
    flexoffer::FlexOfferId offer_id = 0;
  };

  /// Batch metering, the one metering entry: routes each reading to its
  /// actor's shard (the shard that owns the actor's offers) and records all
  /// of them in one fork-join instead of a strand round trip per reading.
  /// Execution failures (unknown ids, re-metered offers) are tolerated —
  /// matching the bus adapter's tolerance of duplicate messages — but
  /// counted in EngineStats::metering_failures so they stay visible.
  void RecordMeterReadings(std::span<const MeterReading> readings);

  /// Drains every shard's event stream and returns one merged, ordered
  /// batch: ascending EventTime(), ties broken by shard index with each
  /// shard's emission order preserved. For a fixed workload the merged
  /// stream is deterministic regardless of worker interleaving. Safe to
  /// call while strand tasks run (it is the SPSC consumer side), but only
  /// from one thread.
  std::vector<Event> PollEvents();

  /// Shard stats summed with EngineStats::Merge(). Exact, but requires
  /// quiescence in streaming mode (see the class comment); for mid-stream
  /// reads use Snapshot().
  EngineStats stats() const;

  /// Lock-free mid-stream observability: merged stats plus per-shard gauges
  /// (intake queue depth, strand task latency, last drain slice), coherent
  /// per shard, callable from ANY thread at ANY time — concurrent
  /// producers, running gates, no quiescence needed. Each shard's slice is
  /// what its strand last published (after its most recent task), so the
  /// merged numbers can trail the engines by the tasks currently in flight;
  /// queue depths are read live.
  RuntimeSnapshot Snapshot() const;

  size_t num_shards() const { return shards_.size(); }
  /// The engine of shard `i` (read-only; requires quiescent strands).
  const EdmsEngine& shard(size_t i) const;
  /// The shard offers of `owner` route to.
  size_t ShardOf(flexoffer::ActorId owner) const;
  /// True when the shard `offer` routes to has already admitted its id
  /// (used by bus adapters to drop re-sent offers before batching).
  /// Requires quiescent strands.
  bool HasSeenOffer(const flexoffer::FlexOffer& offer) const;

  /// The pool the shard strands run on (the configured handle, or the
  /// runtime's private pool); null in the inline single-shard deployment.
  /// Share it with further runtimes via Config::pool.
  const std::shared_ptr<WorkerPool>& pool() const { return pool_; }

  const Config& config() const { return config_; }

 private:
  struct Shard;

  /// The one fan-out: runs `task(i)` for every shard `i` with
  /// `has_work(i)`, serialized with that shard's other tasks and folded
  /// into its task gauges — inline on the caller thread when the runtime
  /// has no pool, else posted on the shard strands in parallel and joined.
  /// Returns the first error in shard order; rethrows the first exception
  /// once every posted task has finished.
  Status FanOut(const std::function<bool(size_t)>& has_work,
                const std::function<Status(size_t)>& task);
  /// Strand context only: drains shard `i`'s intake queue into its engine.
  void DrainShardIntake(Shard& shard);
  /// Posts a fire-and-forget intake drain for shard `i`.
  void ScheduleIntakeDrain(size_t i);
  /// Strand context only: records one deferred intake error (counter +
  /// first-error-wins Status + capped logging).
  void NoteIntakeError(Shard& shard, const Status& status);
  /// Strand context only: folds `elapsed_s` into the shard's task gauges
  /// and republishes its snapshot slot.
  void FinishShardTask(Shard& shard, double elapsed_s);
  /// Sheds one routed sub-batch: counts it and queues the per-offer
  /// OfferRejected{kOverloaded} events for the next PollEvents(). Safe from
  /// any producer thread.
  void ShedBucket(std::vector<flexoffer::FlexOffer> bucket,
                  flexoffer::TimeSlice now);

  Config config_;
  /// Declared before shards_ so the strands (inside shards_) are destroyed
  /// while the pool is still alive.
  std::shared_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Offers shed by the bounded intake (runtime-level: shed offers never
  /// reach a shard engine). Added into stats()/Snapshot() merges.
  std::atomic<int64_t> shed_offers_{0};
  /// Pending OfferRejected{kOverloaded} events from producer-side sheds,
  /// merged into the next PollEvents() drain. Mutex-guarded: this is the
  /// overload slow path, not the hot path.
  std::mutex shed_events_mu_;
  std::vector<Event> shed_events_;
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_SHARDED_RUNTIME_H_
