#include "core/problem.h"

#include <stdexcept>

#include "core/runner.h"

namespace udring::core {

std::string_view to_string(Problem problem) noexcept {
  switch (problem) {
    case Problem::Auto: return "auto";
    case Problem::Deploy: return "deploy";
    case Problem::Gather: return "gather";
    case Problem::Disperse: return "disperse";
  }
  return "?";
}

Problem problem_from_name(std::string_view name) {
  if (name == "auto") return Problem::Auto;
  if (name == "deploy") return Problem::Deploy;
  if (name == "gather") return Problem::Gather;
  if (name == "disperse") return Problem::Disperse;
  throw std::invalid_argument("unknown problem: " + std::string(name));
}

std::string to_string(const ProblemSpec& spec) {
  if (spec.kind == Problem::Gather && spec.gather_g != 0) {
    return "gather(g=" + std::to_string(spec.gather_g) + ")";
  }
  return std::string(to_string(spec.kind));
}

Problem natural_problem(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::KnownKFull:
    case Algorithm::KnownNFull:
    case Algorithm::KnownKLogMem:
    case Algorithm::KnownKLogMemStrict:
    case Algorithm::UnknownRelaxed:
      return Problem::Deploy;
    case Algorithm::Rendezvous:
    case Algorithm::GatherRing:
      return Problem::Gather;
    case Algorithm::DisperseRing:
      return Problem::Disperse;
  }
  return Problem::Deploy;
}

ProblemSpec resolve_problem(Algorithm algorithm,
                            const ProblemSpec& requested) noexcept {
  ProblemSpec resolved = requested;
  if (resolved.kind == Problem::Auto) {
    resolved.kind = natural_problem(algorithm);
    // Rendezvous natively gathers *everyone*; GatherRing keeps the spec's
    // group size (default 2).
    if (algorithm == Algorithm::Rendezvous) resolved.gather_g = 0;
  }
  if (resolved.kind != Problem::Gather) resolved.gather_g = 0;
  return resolved;
}

namespace {

/// Gathering-family goal: the configuration predicate (total gathering for
/// g = 0, g-partial gathering otherwise), with the unsolvability escape
/// hatch for UnsolvabilityAware programs — all agents proved the instance
/// unsolvable and halted at home is a correct outcome; a split verdict is
/// a bug.
class GatherOracle final : public sim::GoalOracle {
 public:
  explicit GatherOracle(std::size_t g) noexcept : g_(g) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return g_ == 0 ? "rendezvous" : "g-partial-gathering";
  }

  [[nodiscard]] sim::CheckResult check_goal(
      const sim::ExecutionState& sim) const override {
    bool all_unsolvable = true;
    bool any_unsolvable = false;
    for (sim::AgentId id = 0; id < sim.agent_count(); ++id) {
      const auto* aware =
          dynamic_cast<const UnsolvabilityAware*>(&sim.program(id));
      const bool unsolvable = aware != nullptr && aware->detected_unsolvable();
      all_unsolvable = all_unsolvable && unsolvable;
      any_unsolvable = any_unsolvable || unsolvable;
    }
    if (all_unsolvable && sim.agent_count() != 0) {
      return sim::CheckResult::pass();
    }
    if (any_unsolvable) {
      return sim::CheckResult::fail(
          g_ == 0 ? "agents disagree on solvability of the rendezvous instance"
                  : "agents disagree on solvability of the gathering instance");
    }
    return g_ == 0 ? sim::check_gathered(sim)
                   : sim::check_partial_gathering(sim, g_);
  }

 private:
  std::size_t g_;
};

}  // namespace

std::unique_ptr<sim::GoalOracle> make_goal_oracle(Algorithm algorithm,
                                                  const ProblemSpec& requested) {
  const ProblemSpec resolved = resolve_problem(algorithm, requested);
  switch (resolved.kind) {
    case Problem::Deploy:
      // UnknownRelaxed terminates in the suspended sense (Definition 2);
      // every other deployer halts (Definition 1).
      return std::make_unique<sim::UniformDeploymentOracle>(
          algorithm != Algorithm::UnknownRelaxed);
    case Problem::Gather:
      return std::make_unique<GatherOracle>(resolved.gather_g);
    case Problem::Disperse:
      return std::make_unique<sim::DispersionOracle>();
    case Problem::Auto:
      break;  // resolve_problem never returns Auto
  }
  throw std::invalid_argument("make_goal_oracle: unresolved problem");
}

}  // namespace udring::core
