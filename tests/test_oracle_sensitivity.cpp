// Oracle-sensitivity (mutation) tests: the Definition-1/2 checkers must
// *fail* deliberately broken algorithm variants. A test suite whose oracle
// passes everything proves nothing; each mutant here models a realistic
// implementation bug, and the matching oracle has to catch it.

#include <gtest/gtest.h>

#include <memory>

#include "core/distance_sequence.h"
#include "core/targets.h"
#include "sim/checker.h"
#include "sim/execution_state.h"
#include "sim/scheduler.h"
#include "support/test_agents.h"

namespace udring::core {
namespace {

// ---- mutants of Algorithm 1 ---------------------------------------------------

/// Base: a faithful Algorithm 1 whose deployment distance is produced by a
/// (possibly broken) policy hook.
class MutantAlgo1 : public sim::AgentProgram {
 public:
  explicit MutantAlgo1(std::size_t k) : k_(k) {}

  sim::Behavior run(sim::AgentContext& ctx) override {
    if (drop_token()) ctx.release_token();
    for (std::size_t j = 0; j < k_; ++j) {
      std::size_t dis = 0;
      do {
        co_await ctx.move();
        ++dis;
      } while (ctx.tokens_here() == 0);
      d_.push_back(dis);
    }
    const std::size_t total = deployment_distance();
    for (std::size_t i = 0; i < total; ++i) {
      co_await ctx.move();
    }
    co_return;
  }

  [[nodiscard]] std::string_view name() const override { return "mutant-algo1"; }

 protected:
  [[nodiscard]] virtual bool drop_token() const { return true; }

  /// Faithful policy; mutants override.
  [[nodiscard]] virtual std::size_t deployment_distance() const {
    const std::size_t rank = min_rotation(d_);
    std::size_t dis_base = 0;
    for (std::size_t i = 0; i < rank; ++i) dis_base += d_[i];
    const TargetPlan plan =
        make_target_plan(sum(d_), k_, symmetry_degree(d_));
    return dis_base + plan.offset(rank);
  }

  std::size_t k_;
  DistanceSeq d_;
};

/// Bug: clamped rank (a saturating decrement) — two agents compute the same
/// target offset and collide. (A pure cyclic shift of all ranks would still
/// be uniform; the bug must break the bijection, not rotate it.)
class RankCollisionMutant final : public MutantAlgo1 {
 public:
  using MutantAlgo1::MutantAlgo1;

 protected:
  std::size_t deployment_distance() const override {
    const std::size_t rank = min_rotation(d_);
    const std::size_t buggy_rank = rank > 0 ? rank - 1 : 0;  // 0 and 1 collide
    std::size_t dis_base = 0;
    for (std::size_t i = 0; i < rank; ++i) dis_base += d_[i];
    const TargetPlan plan = make_target_plan(sum(d_), k_, symmetry_degree(d_));
    return dis_base + plan.offset(buggy_rank);
  }
};

/// Bug: stops one node short of the target.
class OneShortMutant final : public MutantAlgo1 {
 public:
  using MutantAlgo1::MutantAlgo1;

 protected:
  std::size_t deployment_distance() const override {
    const std::size_t faithful = MutantAlgo1::deployment_distance();
    return faithful == 0 ? 0 : faithful - 1;
  }
};

/// Bug: every agent treats *itself* as the base (forgets the rotation
/// agreement entirely) — the deployment degenerates to "stay home", which
/// keeps whatever irregular spacing the start had. (Note a *consistent*
/// wrong choice — e.g. everyone using the max rotation — would still be
/// uniform; the dangerous bug is the one that destroys agreement.)
class SelfishBaseMutant final : public MutantAlgo1 {
 public:
  using MutantAlgo1::MutantAlgo1;

 protected:
  std::size_t deployment_distance() const override {
    return 0;  // "I am rank 0 at my own base node."
  }
};

/// Bug: forgets to drop the token (poisons *everyone's* measurement).
class NoTokenMutant final : public MutantAlgo1 {
 public:
  using MutantAlgo1::MutantAlgo1;

 protected:
  bool drop_token() const override { return false; }
};

/// Bug: never halts — walks forever after deployment (livelock).
class NeverHaltsMutant final : public sim::AgentProgram {
 public:
  sim::Behavior run(sim::AgentContext& ctx) override {
    ctx.release_token();
    for (;;) {
      co_await ctx.move();
    }
  }
  [[nodiscard]] std::string_view name() const override { return "never-halts"; }
};

template <typename Mutant>
sim::ProgramFactory mutant_factory(std::size_t k) {
  return [k](sim::AgentId) { return std::make_unique<Mutant>(k); };
}

struct Outcome {
  bool quiescent;
  bool uniform;
};

template <typename Mutant>
Outcome run_mutant(std::size_t n, std::vector<std::size_t> homes) {
  sim::SimOptions options;
  options.max_actions = 64 * n * homes.size() + 4096;
  const sim::Instance instance(n, std::move(homes), mutant_factory<Mutant>(4),
                               options);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  return {result.quiescent(),
          sim::UniformDeploymentOracle(true).check_goal(simulator).ok};
}

constexpr std::size_t kN = 16;
const std::vector<std::size_t> kHomes = {0, 1, 5, 7};

TEST(OracleSensitivity, FaithfulBaselinePasses) {
  const Outcome outcome = run_mutant<MutantAlgo1>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_TRUE(outcome.uniform) << "the un-mutated control must pass";
}

TEST(OracleSensitivity, RankCollisionIsCaught) {
  const Outcome outcome = run_mutant<RankCollisionMutant>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_FALSE(outcome.uniform) << "two agents share a target";
}

TEST(OracleSensitivity, StoppingOneShortIsCaught) {
  const Outcome outcome = run_mutant<OneShortMutant>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_FALSE(outcome.uniform) << "every gap shifts off the ⌊n/k⌋/⌈n/k⌉ grid";
}

TEST(OracleSensitivity, SelfishBaseIsCaught) {
  const Outcome outcome = run_mutant<SelfishBaseMutant>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_FALSE(outcome.uniform)
      << "staying home keeps the irregular start spacing";
}

TEST(OracleSensitivity, MissingTokenIsCaught) {
  // Without tokens the "move to next token node" walk spins until the
  // action limit: the run must NOT quiesce (and must not pass).
  const Outcome outcome = run_mutant<NoTokenMutant>(kN, kHomes);
  EXPECT_FALSE(outcome.quiescent && outcome.uniform);
}

TEST(OracleSensitivity, LivelockIsReportedAsActionLimit) {
  sim::SimOptions options;
  options.max_actions = 5000;
  const sim::Instance instance(
      kN, kHomes, test::every<NeverHaltsMutant>(), options);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  EXPECT_EQ(result.outcome, sim::RunResult::Outcome::ActionLimit);
  EXPECT_FALSE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);
}

TEST(OracleSensitivity, SuspendedIsNotHalted) {
  // An algorithm that parks in the Definition-2 state must fail the
  // Definition-1 oracle even at perfect positions — and vice versa. (The
  // distinction is the whole content of Theorem 5.)
  class SuspendAtTarget final : public sim::AgentProgram {
   public:
    sim::Behavior run(sim::AgentContext& ctx) override {
      ctx.release_token();
      for (int i = 0; i < 8; ++i) {
        co_await ctx.move();
      }
      co_await ctx.suspend();
      co_return;
    }
    [[nodiscard]] std::string_view name() const override { return "suspender"; }
  };
  const sim::Instance instance(16, {0, 8}, [](sim::AgentId) {
    return std::make_unique<SuspendAtTarget>();
  });
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  EXPECT_FALSE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);
  EXPECT_TRUE(sim::UniformDeploymentOracle(false).check_goal(simulator).ok);
}

}  // namespace
}  // namespace udring::core
