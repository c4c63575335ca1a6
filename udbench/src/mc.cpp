// mc-verify: mc::check, serial, default reductions, on a fixed instance set:
// known-k-full n=24/k=4, known-k-logmem n=16/k=4, unknown-relaxed n=12/k=3,
// gather-ring and disperse-ring n=12/k=4, each from uniform homes.
//
// The seed rotates every instance around the ring. Rotation is an
// isomorphism of the anonymous ring, so the inputs differ by seed while the
// state space to walk — and hence the cost of the batch — does not.
//
// mc::check is timed from outside per instance. Its inner layers are
// measured by unit probes: a schedule recorded from each instance is
// replayed through ExecutionState::step_agent, config_digest,
// SymmetryCanonicalizer::canonical_digest and GoalOracle::check_action, and
// the per-call costs are multiplied by McStats' exact counts to reconcile
// with the instance's wall time.

#include <algorithm>
#include <optional>

#include "bench.h"
#include "config/generators.h"
#include "core/problem.h"
#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "util/rng.h"

#if __has_include("mc/symmetry.h")
#include "mc/symmetry.h"
#define UDBENCH_HAVE_SYMMETRY 1
#else
#define UDBENCH_HAVE_SYMMETRY 0
#endif

namespace udbench {
namespace {

using udring::Rng;
using udring::fold64;
namespace core = udring::core;
namespace explore = udring::explore;
namespace mc = udring::mc;
namespace sim = udring::sim;

/// DPOR's cut count, or 0 where the checker has no DPOR.
std::size_t dpor_pruned(const auto& stats) {
  if constexpr (requires { stats.dpor_pruned; }) {
    return stats.dpor_pruned;
  } else {
    return 0;
  }
}

std::size_t sleep_pruned(const auto& stats) {
  if constexpr (requires { stats.sleep_pruned; }) {
    return stats.sleep_pruned;
  } else {
    return 0;
  }
}

bool same_stats(const mc::McStats& a, const mc::McStats& b) {
  return a.schedules == b.schedules && a.states_expanded == b.states_expanded &&
         a.states_deduped == b.states_deduped &&
         sleep_pruned(a) == sleep_pruned(b) && dpor_pruned(a) == dpor_pruned(b) &&
         a.replays == b.replays && a.total_actions == b.total_actions &&
         a.max_depth == b.max_depth;
}

std::vector<mc::CheckRequest> requests(Size size, std::uint64_t seed) {
  struct Cell {
    core::Algorithm algorithm;
    std::size_t n;
    std::size_t k;
  };
  const std::vector<Cell> cells =
      size == Size::Tiny
          ? std::vector<Cell>{{core::Algorithm::KnownKFull, 8, 3},
                              {core::Algorithm::KnownKLogMem, 8, 2},
                              {core::Algorithm::UnknownRelaxed, 6, 2},
                              {core::Algorithm::GatherRing, 6, 2},
                              {core::Algorithm::DisperseRing, 6, 2}}
          : std::vector<Cell>{{core::Algorithm::KnownKFull, 24, 4},
                              {core::Algorithm::KnownKLogMem, 16, 4},
                              {core::Algorithm::UnknownRelaxed, 12, 3},
                              {core::Algorithm::GatherRing, 12, 4},
                              {core::Algorithm::DisperseRing, 12, 4}};
  Rng rotations(seed);
  std::vector<mc::CheckRequest> out;
  for (const Cell& cell : cells) {
    mc::CheckRequest request;
    request.algorithm = cell.algorithm;
    request.node_count = cell.n;
    const std::size_t offset = static_cast<std::size_t>(rotations.below(cell.n));
    for (const std::size_t home : udring::gen::uniform_homes(cell.n, cell.k)) {
      request.homes.push_back((home + offset) % cell.n);
    }
    std::sort(request.homes.begin(), request.homes.end());
    out.push_back(std::move(request));
  }
  return out;
}

/// The instance mc::check walks for `request` (no event log, auto limit).
sim::Instance make_instance(const mc::CheckRequest& request) {
  core::RunSpec spec;
  spec.node_count = request.node_count;
  spec.homes = request.homes;
  spec.problem = request.problem;
  spec.sim_options.record_events = false;
  return core::make_instance(request.algorithm, spec);
}

class McVerify final : public Workload {
 public:
  explicit McVerify(const Args& args) : requests_(requests(args.size, args.seed)) {}

  /// mc::check of the first instance, cut by an action budget of one: the
  /// checker's own set-up and its first executed action.
  std::uint64_t set_up() override {
    mc::McOptions first;
    first.budget_actions = 1;
    const mc::ModelCheckReport report = mc::check(requests_.front(), first);
    // One action's stats are alike on every instance; the homes tell them apart.
    std::uint64_t digest = report.digest();
    for (const std::size_t home : requests_.front().homes) fold64(digest, home);
    return digest;
  }

  Batch run_batch() override {
    Batch batch;
    stats_.clear();
    digests_.clear();
    for (const mc::CheckRequest& request : requests_) {
      const mc::ModelCheckReport report = mc::check(request);
      ++batch.units;
      if (report.verdict != "verified") ++batch.failed_units;
      batch.steps += report.stats.total_actions;
      fold64(batch.digest, report.digest());
      stats_.push_back(report.stats);
      digests_.push_back(report.digest());
    }
    return batch;
  }

  TracedBatch traced_batch(Trace& trace, std::uint32_t batch_span,
                           Gates& gates) override {
    Layer& check = trace.layer("mc.check");
    if (traces_.empty()) record_traces();
    TracedBatch out;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const std::uint32_t span = trace.open_span("instance", batch_span, i);
      const std::uint64_t t0 = ticks();
      const mc::ModelCheckReport report = mc::check(requests_[i]);
      const std::uint64_t elapsed = ticks() - t0;
      check.add(elapsed);
      out.redrive_s += static_cast<double>(elapsed) * trace.ns_per_tick() * 1e-9;
      trace.close_span(span);
      gates.expect(i < stats_.size() && same_stats(report.stats, stats_[i]) &&
                       report.digest() == digests_[i],
                   "traced mc::check of instance " + std::to_string(i) +
                       " reports other McStats than the untraced run");

      // Probe the instance's per-call costs, then price its exact counts:
      // every action (replays included) is a step_agent; every edge the
      // walk takes ends in one check_action and one dedup key — the
      // canonical digest while the symmetry reduction exists, else the
      // config digest. Each edge reaches an expanded state, a dedup hit
      // or a complete schedule.
      const Probe p = probe(trace, i);
      const mc::McStats& s = report.stats;
      const double edges =
          static_cast<double>(s.states_expanded + s.states_deduped + s.schedules);
      const double key = UDBENCH_HAVE_SYMMETRY ? p.canon : p.digest;
      out.accounted_s +=
          (static_cast<double>(s.total_actions) * p.step + edges * (p.check + key)) *
          1e-9;
    }
    return out;
  }

  void layer_metrics(const Trace& trace, std::vector<Metric>& out) override {
    mc::McStats sum;
    std::size_t sleep = 0, dpor = 0;
    for (const mc::McStats& s : stats_) {
      sum.states_expanded += s.states_expanded;
      sum.states_deduped += s.states_deduped;
      sum.replays += s.replays;
      sum.total_actions += s.total_actions;
      sleep += sleep_pruned(s);
      dpor += dpor_pruned(s);
    }
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    const double expanded = count(sum.states_expanded);
    out.push_back({"mc.states_expanded", expanded, "count"});
    out.push_back({"mc.states_deduped", count(sum.states_deduped), "count"});
    out.push_back({"mc.sleep_pruned", count(sleep), "count"});
    out.push_back({"mc.dpor_pruned", count(dpor), "count"});
    out.push_back({"mc.replays", count(sum.replays), "count"});
    out.push_back({"mc.actions", count(sum.total_actions), "count"});
    out.push_back({"mc.actions_per_state", count(sum.total_actions) / expanded, "ratio"});
    out.push_back({"mc.dedup_hit_ratio",
                   count(sum.states_deduped) / (expanded + count(sum.states_deduped)),
                   "ratio"});
    out.push_back({"mc.dpor_cut_ratio", count(dpor) / (expanded + count(dpor)), "ratio"});
    // mc.check ran once per instance per traced batch.
    const Layer* check = trace.find("mc.check");
    const double check_s = trace.busy_ns("mc.check") * 1e-9;
    if (check != nullptr && check_s > 0) {
      const double batches =
          static_cast<double>(check->calls) / static_cast<double>(requests_.size());
      out.push_back({"mc.states_per_s", expanded * batches / check_s, "1/s"});
    }
    out.push_back({"mc.step_ns", trace.per_call_ns("mc.step"), "ns"});
    out.push_back({"mc.digest_ns", trace.per_call_ns("mc.digest"), "ns"});
    out.push_back({"mc.canon_ns", trace.per_call_ns("mc.canon"), "ns"});
    out.push_back({"mc.check_action_ns", trace.per_call_ns("mc.check_action"), "ns"});
    out.push_back({"sim.execute_ns", trace.per_call_ns("mc.step"), "ns"});
  }

  void final_checks(const Batch& batch, Gates& gates) override {
    gates.expect(batch.failed_units == 0, "an mc instance was not verified");
    gates.pinned["mc_digest"] = hex(batch.digest);
  }

 private:
  /// Mean ns per call of one instance's probed layers.
  struct Probe {
    double step = 0, digest = 0, canon = 0, check = 0;
  };

  /// Replays of each recorded schedule per probe: enough calls that the
  /// per-call means are stable.
  static constexpr std::size_t kProbeReplays = 8;

  void record_traces() {
    for (const mc::CheckRequest& request : requests_) {
      explore::RecordRequest record;
      record.algorithm = request.algorithm;
      record.problem = request.problem;
      record.node_count = request.node_count;
      record.homes = request.homes;
      record.kind = explore::ExploreSchedulerKind::Random;
      record.seed = 1;
      traces_.push_back(explore::record_trace(record).choices);
    }
  }

  Probe probe(Trace& trace, std::size_t i) {
    static constexpr const char* kLayers[] = {"mc.step", "mc.digest", "mc.canon",
                                              "mc.check_action"};
    Layer* layers[4];
    std::uint64_t calls_before[4];
    double busy_before[4];
    for (std::size_t l = 0; l < 4; ++l) {
      layers[l] = &trace.layer(kLayers[l]);
      calls_before[l] = layers[l]->calls;
      busy_before[l] = trace.busy_ns(kLayers[l]);
    }
    const sim::Instance& instance = instance_.emplace(make_instance(requests_[i]));
    const auto oracle =
        core::make_goal_oracle(requests_[i].algorithm, requests_[i].problem);
    std::vector<sim::AgentId> sorted;
    for (std::size_t replay = 0; replay < kProbeReplays; ++replay) {
      state_.reset(instance);
      std::size_t min_tokens = state_.total_tokens();
      for (const std::uint32_t choice : traces_[i]) {
        sorted.assign(state_.enabled().begin(), state_.enabled().end());
        std::sort(sorted.begin(), sorted.end());
        const sim::AgentId id = sorted.at(choice);
        const std::uint64_t t0 = ticks();
        state_.step_agent(id);
        const std::uint64_t t1 = ticks();
        sink_ += state_.config_digest();
        const std::uint64_t t2 = ticks();
#if UDBENCH_HAVE_SYMMETRY
        sink_ += canonicalizer_.canonical_digest(state_);
        const std::uint64_t t3 = ticks();
        layers[2]->add(t3 - t2);
#else
        const std::uint64_t t3 = t2;
#endif
        sink_ += oracle->check_action(state_, min_tokens).ok ? 1 : 0;
        const std::uint64_t t4 = ticks();
        min_tokens = state_.total_tokens();
        layers[0]->add(t1 - t0);
        layers[1]->add(t2 - t1);
        layers[3]->add(t4 - t3);
      }
    }
    double means[4];
    for (std::size_t l = 0; l < 4; ++l) {
      const auto calls = static_cast<double>(layers[l]->calls - calls_before[l]);
      means[l] = calls > 0 ? (trace.busy_ns(kLayers[l]) - busy_before[l]) / calls : 0;
    }
    return {means[0], means[1], means[2], means[3]};
  }

  std::vector<mc::CheckRequest> requests_;
  std::vector<mc::McStats> stats_;       ///< per instance, latest untraced batch
  std::vector<std::uint64_t> digests_;   ///< per instance, latest untraced batch
  std::vector<std::vector<std::uint32_t>> traces_;
  std::optional<sim::Instance> instance_;  ///< state_'s, until its next reset
  sim::ExecutionState state_;
#if UDBENCH_HAVE_SYMMETRY
  mc::SymmetryCanonicalizer canonicalizer_;
#endif
  std::uint64_t sink_ = 0;  ///< keeps probed results observable
};

}  // namespace

std::unique_ptr<Workload> make_mc_verify(const Args& args) {
  return std::make_unique<McVerify>(args);
}

}  // namespace udbench
