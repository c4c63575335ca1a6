#include "core/runner.h"

#include <stdexcept>
#include <utility>

#include "core/disperse_ring.h"
#include "core/gather_ring.h"
#include "core/known_k_full.h"
#include "core/known_k_logmem.h"
#include "core/rendezvous.h"
#include "core/unknown_relaxed.h"
#include "util/parallel.h"

namespace udring::core {

std::string_view to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::KnownKFull: return "known-k-full";
    case Algorithm::KnownNFull: return "known-n-full";
    case Algorithm::KnownKLogMem: return "known-k-logmem";
    case Algorithm::KnownKLogMemStrict: return "known-k-logmem-strict";
    case Algorithm::UnknownRelaxed: return "unknown-relaxed";
    case Algorithm::Rendezvous: return "rendezvous";
    case Algorithm::GatherRing: return "gather-ring";
    case Algorithm::DisperseRing: return "disperse-ring";
  }
  return "?";
}

sim::ProgramFactory make_program_factory(Algorithm algorithm, std::size_t k,
                                         std::size_t n,
                                         const ProblemSpec& problem) {
  switch (algorithm) {
    case Algorithm::KnownKFull:
      return [k](sim::AgentId) { return std::make_unique<KnownKFullAgent>(k); };
    case Algorithm::KnownNFull:
      return [n](sim::AgentId) { return std::make_unique<KnownNFullAgent>(n); };
    case Algorithm::KnownKLogMem:
      return [k](sim::AgentId) { return std::make_unique<KnownKLogMemAgent>(k); };
    case Algorithm::KnownKLogMemStrict:
      return [k](sim::AgentId) {
        return std::make_unique<KnownKLogMemAgent>(
            k, KnownKLogMemAgent::Options{.strict_paper = true});
      };
    case Algorithm::UnknownRelaxed:
      return [](sim::AgentId) { return std::make_unique<UnknownRelaxedAgent>(); };
    case Algorithm::Rendezvous:
      return [k](sim::AgentId) { return std::make_unique<RendezvousAgent>(k); };
    case Algorithm::GatherRing: {
      // g = 0 means total gathering; the agent realizes it as g = k, which
      // degenerates to exactly the rendezvous protocol.
      const std::size_t resolved_g = resolve_problem(algorithm, problem).gather_g;
      const std::size_t g = resolved_g == 0 ? k : resolved_g;
      return [k, g](sim::AgentId) {
        return std::make_unique<PartialGatherAgent>(k, g);
      };
    }
    case Algorithm::DisperseRing:
      return [k](sim::AgentId) { return std::make_unique<DisperseAgent>(k); };
  }
  throw std::invalid_argument("make_program_factory: unknown algorithm");
}

sim::Instance make_instance(Algorithm algorithm, const RunSpec& spec) {
  // A non-empty topology supersedes node_count; KnownNFull's knowledge of n
  // is the *virtual* ring size either way (that is the ring the agents walk).
  //
  // Walk order is required here: the goal oracles (check_positions_uniform's
  // gap arithmetic) and the schedule-trace replay contract both assume
  // virtual position order == walk order. Topology::closed_walk's explicit
  // successor permutations execute fine at the sim layer (build an
  // sim::Instance directly), but running one through the algorithm drivers
  // would silently mis-judge uniformity — reject it loudly instead.
  if (!spec.topology.empty() && !spec.topology.is_ring_order()) {
    throw std::invalid_argument(
        "make_instance: algorithm drivers require a ring-order topology "
        "(implicit successor); explicit closed walks run via sim::Instance");
  }
  sim::Topology topology =
      spec.topology.empty() ? sim::Topology::ring(spec.node_count)
                            : spec.topology;
  const std::size_t n = topology.size();
  return sim::Instance(
      std::move(topology), spec.homes,
      make_program_factory(algorithm, spec.homes.size(), n, spec.problem),
      spec.sim_options);
}

RunReport run_algorithm(Algorithm algorithm, const RunSpec& spec) {
  return RunContext{}.run(algorithm, spec);
}

sim::Scheduler& RunContext::scheduler(sim::SchedulerKind kind,
                                      std::uint64_t seed,
                                      std::size_t agent_count) {
  auto& slot = schedulers_[static_cast<std::size_t>(kind)];
  if (!slot) {
    slot = sim::make_scheduler(kind, seed, agent_count);
  } else {
    // Cached object: swap in this run's seed; ExecutionState::run will
    // reset() it, which re-derives all mutable state from the seed (the
    // pooled reuse contract in sim/scheduler.h).
    slot->reseed(seed);
  }
  return *slot;
}

const sim::GoalOracle& RunContext::oracle(Algorithm algorithm,
                                          const ProblemSpec& problem) {
  if (!oracle_ || oracle_algorithm_ != algorithm || oracle_problem_ != problem) {
    oracle_ = make_goal_oracle(algorithm, problem);
    oracle_algorithm_ = algorithm;
    oracle_problem_ = problem;
  }
  return *oracle_;
}

RunReport RunContext::run(Algorithm algorithm, const RunSpec& spec) {
  // The Instance lives in the context so state_ remains inspectable after
  // this returns (and the arena pointer never dangles between runs).
  instance_.emplace(make_instance(algorithm, spec));
  state_.reset(*instance_);
  sim::Scheduler& sched =
      scheduler(spec.scheduler, spec.seed, spec.homes.size());
  RunReport report;
  report.result = state_.run(sched);
  const sim::GoalOracle& goal_oracle = oracle(algorithm, spec.problem);
  report.problem = resolve_problem(algorithm, spec.problem);
  if (report.result.quiescent()) {
    const sim::CheckResult goal = goal_oracle.check_goal(state_);
    report.success = goal.ok;
    report.failure = goal.reason;
  } else {
    report.success = false;
    report.failure = "action limit reached (livelock or broken algorithm)";
  }
  const sim::Metrics& metrics = state_.metrics();
  report.total_moves = metrics.total_moves();
  report.makespan = metrics.makespan();
  report.scheduler_rounds = sched.rounds();
  report.max_memory_bits = metrics.max_memory_bits();
  report.moves_by_phase = metrics.moves_by_phase();
  report.final_positions = state_.staying_nodes();
  const sim::Topology& topology = state_.topology();
  if (topology.has_labels()) {
    report.final_labels.reserve(report.final_positions.size());
    for (const std::size_t v : report.final_positions) {
      report.final_labels.push_back(topology.label(v));
    }
  }
  return report;
}

std::vector<RunReport> run_many(Algorithm algorithm,
                                const std::vector<RunSpec>& specs,
                                std::size_t workers) {
  std::vector<RunReport> reports(specs.size());
  const std::size_t resolved = resolve_workers(specs.size(), workers);
  // One arena per worker, built before the pool starts; deque-free because
  // RunContext is neither copyable nor movable.
  std::vector<std::unique_ptr<RunContext>> contexts;
  contexts.reserve(resolved);
  for (std::size_t w = 0; w < resolved; ++w) {
    contexts.push_back(std::make_unique<RunContext>());
  }
  parallel_for_workers(specs.size(), resolved,
                       [&](std::size_t worker, std::size_t i) {
                         try {
                           reports[i] = contexts[worker]->run(algorithm, specs[i]);
                         } catch (const std::exception& error) {
                           reports[i] = RunReport{};
                           reports[i].success = false;
                           reports[i].failure =
                               std::string("exception: ") + error.what();
                         }
                       });
  return reports;
}

}  // namespace udring::core
