#ifndef MIRABEL_EDMS_SCHEDULER_REGISTRY_H_
#define MIRABEL_EDMS_SCHEDULER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "scheduling/scheduler.h"

namespace mirabel::edms {

/// Creates a fresh scheduler instance per scheduling run (schedulers are
/// stateless between runs, but Run() is non-const, so each gate gets its
/// own).
using SchedulerFactory =
    std::function<std::unique_ptr<scheduling::Scheduler>()>;

/// Name-keyed scheduler factory registry. Replaces the stringly-typed
/// `std::string scheduler` config fields: engine/node/simulation configs hold
/// a SchedulerFactory resolved once — at the system edge where a name
/// genuinely originates (CLI flags, bench sweeps) — instead of re-parsing a
/// string at every gate closure. Custom schedulers plug in via Register().
class SchedulerRegistry {
 public:
  /// The process-wide registry, preloaded with the paper's algorithms plus
  /// the optimal-scheduling subsystem: "GreedySearch",
  /// "EvolutionaryAlgorithm", "Hybrid", "BranchAndBound", "Portfolio",
  /// "Robust". ExhaustiveScheduler is left out: it is the optimality
  /// oracle (optimality_study, the B&B tests construct it directly), and
  /// from a gate it could start a 10^8-combination sweep.
  static SchedulerRegistry& Default();

  /// Registers `factory` under `name`; AlreadyExists on duplicates.
  Status Register(const std::string& name, SchedulerFactory factory);

  /// The factory registered under `name`; NotFound otherwise.
  Result<SchedulerFactory> Find(const std::string& name) const;

  /// Convenience: Find(name) and invoke the factory.
  Result<std::unique_ptr<scheduling::Scheduler>> Create(
      const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, SchedulerFactory> factories_;
};

/// Factory for the system default (the paper's randomized greedy search).
/// Engine configs that leave `scheduler_factory` empty resolve to this.
SchedulerFactory DefaultSchedulerFactory();

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_SCHEDULER_REGISTRY_H_
