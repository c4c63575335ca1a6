// udring/core/runner.h
//
// One-call experiment drivers: build an Instance for an initial
// configuration, run a chosen algorithm under a chosen scheduler, check the
// appropriate correctness oracle, and collect the paper's three complexity
// measures. Tests, benches and examples all go through this layer.
//
// One run path: a RunContext owns a reusable sim::ExecutionState arena, the
// Instance of its current run and a per-kind scheduler cache, so a worker
// that executes thousands of runs performs O(k) allocations per run (agent
// programs + coroutine frames) instead of O(n). run_algorithm(spec) is one
// run on a fresh RunContext; run_many shards a spec list over
// util::parallel_for_workers with one RunContext per worker.
// exp::run_campaign and the src/explore fuzzer sit on the same machinery.
// A caller that steps the state itself builds the Instance with
// make_instance and holds it for as long as an ExecutionState points at it.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/problem.h"
#include "sim/checker.h"
#include "sim/execution_state.h"  // IWYU pragma: export
#include "sim/instance.h"         // IWYU pragma: export
#include "sim/scheduler.h"

namespace udring::core {

enum class Algorithm {
  KnownKFull,         ///< Algorithm 1  (§3.1)
  KnownNFull,         ///< Algorithm 1, knowledge of n instead of k (footnote 2)
  KnownKLogMem,       ///< Algorithms 2+3 (§3.2), hardened deployment
  KnownKLogMemStrict, ///< Algorithms 2+3, literal pseudocode (FIFO-dependent)
  UnknownRelaxed,     ///< Algorithms 4+5+6 (§4.2)
  Rendezvous,         ///< baseline (contrast experiments)
  GatherRing,         ///< g-partial gathering (companion problem family)
  DisperseRing,       ///< asynchronous dispersion (companion problem family)
};

[[nodiscard]] std::string_view to_string(Algorithm algorithm) noexcept;

/// Factory for `k` agents of the given algorithm on an n-ring. `n` is needed
/// only by the KnownNFull variant (0 is fine for all others); `problem`
/// supplies problem parameters to parameterized families (GatherRing reads
/// the resolved gathering group size g).
[[nodiscard]] sim::ProgramFactory make_program_factory(
    Algorithm algorithm, std::size_t k, std::size_t n = 0,
    const ProblemSpec& problem = {});

struct RunSpec {
  std::size_t node_count = 0;
  std::vector<std::size_t> homes;  ///< distinct home nodes; k = homes.size()
  /// The structure to execute on. Empty (default) = the plain unidirectional
  /// ring of `node_count` nodes. Non-empty = run natively on this topology
  /// (Euler-tour tree ring, Eulerian graph circuit, explicit closed walk);
  /// it supersedes node_count and `homes` are virtual positions on it.
  sim::Topology topology;
  sim::SchedulerKind scheduler = sim::SchedulerKind::RoundRobin;
  std::uint64_t seed = 1;
  sim::SimOptions sim_options;
  /// Which goal the run is judged against (and, for parameterized
  /// algorithm families, the problem parameters). Auto = the algorithm's
  /// natural problem — the pre-ProblemSpec behavior.
  ProblemSpec problem;
};

struct RunReport {
  sim::RunResult result;
  bool success = false;       ///< goal oracle for the resolved problem passed
  std::string failure;        ///< oracle failure reason (when !success)
  ProblemSpec problem;        ///< the *resolved* problem the oracle verified
  std::size_t total_moves = 0;
  std::uint64_t makespan = 0;            ///< causal ideal-time
  std::uint64_t scheduler_rounds = 0;    ///< lockstep rounds (synchronous only)
  std::size_t max_memory_bits = 0;
  std::vector<std::size_t> moves_by_phase;
  std::vector<std::size_t> final_positions;  ///< sorted staying positions
  /// final_positions mapped through the topology's labels — the underlying
  /// network node each deployed agent stands at. Empty for label-free
  /// topologies (the plain ring is its own network).
  std::vector<std::size_t> final_labels;
};

/// The Instance `spec` describes for `algorithm` — the immutable half of a
/// run, executable any number of times by any ExecutionState.
[[nodiscard]] sim::Instance make_instance(Algorithm algorithm,
                                          const RunSpec& spec);

/// Runs `algorithm` on the configuration described by `spec` and evaluates
/// the goal oracle of spec.problem (Auto = the algorithm's natural
/// problem: Definition 1 for the known-k algorithms, Definition 2 for the
/// relaxed algorithm, gathering for rendezvous/gather-ring — where a
/// correctly detected unsolvable instance also counts as success —
/// dispersion for disperse-ring). One run on a fresh RunContext.
[[nodiscard]] RunReport run_algorithm(Algorithm algorithm, const RunSpec& spec);

/// A reusable per-worker run arena: one pooled ExecutionState plus a cached
/// scheduler per SchedulerKind (reseed()ed for every run). Construct once,
/// call run() per spec; everything n-sized is recycled between runs.
///
/// Not thread-safe — one RunContext per worker thread is the intended shape
/// (see run_many). Between run() calls the state() holds the *finished*
/// configuration of the last run, so callers can inspect it before the next
/// run resets it.
class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Runs `algorithm` on `spec` in the pooled arena (see run_algorithm).
  [[nodiscard]] RunReport run(Algorithm algorithm, const RunSpec& spec);

  /// The pooled arena; valid after the first run() until the next one.
  [[nodiscard]] sim::ExecutionState& state() noexcept { return state_; }

  /// The cached scheduler for `kind`, reseeded and ready; creates it on
  /// first use. Exposed for drivers that step the state manually.
  [[nodiscard]] sim::Scheduler& scheduler(sim::SchedulerKind kind,
                                          std::uint64_t seed,
                                          std::size_t agent_count);

  /// The cached goal oracle for (algorithm, problem); rebuilt only when the
  /// pair changes, so a campaign sweeping one cell re-judges thousands of
  /// runs with zero oracle allocations.
  [[nodiscard]] const sim::GoalOracle& oracle(Algorithm algorithm,
                                              const ProblemSpec& problem);

 private:
  sim::ExecutionState state_;
  /// The Instance of the current/last run — kept alive so state_ stays
  /// inspectable after run() returns; emplaced in place per run.
  std::optional<sim::Instance> instance_;
  std::array<std::unique_ptr<sim::Scheduler>, sim::kSchedulerKindCount>
      schedulers_;
  /// The cached goal oracle and the (algorithm, problem) pair it judges.
  std::unique_ptr<sim::GoalOracle> oracle_;
  Algorithm oracle_algorithm_ = Algorithm::KnownKFull;
  ProblemSpec oracle_problem_;
};

/// Runs every spec through `algorithm` across a worker pool (0 = hardware
/// concurrency). Reports are index-aligned with `specs`; a spec that throws
/// yields a report with success = false and the exception text in `failure`.
/// One RunContext per worker.
[[nodiscard]] std::vector<RunReport> run_many(Algorithm algorithm,
                                              const std::vector<RunSpec>& specs,
                                              std::size_t workers = 0);

}  // namespace udring::core
