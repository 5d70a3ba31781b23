#include "common/stopwatch.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {

HybridScheduler::HybridScheduler() : HybridScheduler(Config()) {}

HybridScheduler::HybridScheduler(const Config& config) : config_(config) {}

Result<SchedulingResult> HybridScheduler::RunCompiled(
    const CompiledProblem& compiled, const SchedulerOptions& options) {
  Stopwatch watch;

  // Phase 1: one fast greedy construction seeds the population.
  GreedyScheduler greedy;
  SchedulerOptions greedy_options = options;
  if (options.time_budget_s > 0) {
    greedy_options.time_budget_s =
        config_.construction_share * options.time_budget_s;
  }
  if (options.max_iterations > 0) {
    greedy_options.max_iterations = std::max(
        1, static_cast<int>(config_.construction_share *
                            static_cast<double>(options.max_iterations)));
  }
  MIRABEL_ASSIGN_OR_RETURN(SchedulingResult constructed,
                           greedy.RunCompiled(compiled, greedy_options));

  // Phase 2: evolutionary refinement seeded with the greedy incumbent. The
  // EA's population initialisation already includes the all-earliest
  // baseline; we splice the greedy schedule in by evolving a copy of the
  // problem through a custom-seeded EA run.
  EvolutionaryScheduler::Config ea_config = config_.evolution;
  EvolutionaryScheduler ea(ea_config);
  SchedulerOptions ea_options = options;
  if (options.time_budget_s > 0) {
    // Keep the remainder strictly positive: 0.0 means "no time limit" to
    // the EA, so a construction phase that consumed the whole budget (plus
    // compile time) would otherwise hand phase 2 an unbounded run when no
    // iteration cap is set. An epsilon budget exhausts at the EA's first
    // gate sample, bounding phase 2 to its population initialisation.
    ea_options.time_budget_s =
        std::max(1e-6, options.time_budget_s - watch.ElapsedSeconds());
  }
  if (options.max_iterations > 0) {
    ea_options.max_iterations =
        std::max(1, options.max_iterations - constructed.iterations);
  }
  ea_options.seed = options.seed + 1;
  MIRABEL_ASSIGN_OR_RETURN(SchedulingResult refined,
                           ea.RunCompiled(compiled, ea_options));

  // Keep whichever schedule is better; stitch the traces together.
  SchedulingResult result;
  result.iterations = constructed.iterations + refined.iterations;
  if (refined.cost.total() < constructed.cost.total()) {
    result.schedule = refined.schedule;
    result.cost = refined.cost;
  } else {
    result.schedule = constructed.schedule;
    result.cost = constructed.cost;
  }
  result.trace = constructed.trace;
  double offset = constructed.trace.empty() ? 0.0 : constructed.trace.back().time_s;
  double floor_cost = constructed.cost.total();
  for (const CostTracePoint& p : refined.trace) {
    if (p.best_cost_eur < floor_cost) {
      result.trace.push_back({offset + p.time_s, p.best_cost_eur});
      floor_cost = p.best_cost_eur;
    }
  }
  return result;
}

}  // namespace mirabel::scheduling
