// tools/fuzz_explorer.cpp
//
// The schedule explorer's command-line face: fuzz, record, replay.
//
//   udring_fuzz                              # fuzz (budget from UDRING_FUZZ_BUDGET)
//   udring_fuzz --algorithm=known-k-logmem-strict --inject-non-fifo
//               --fault-min-phase=1 --nodes=12 --homes=0,1,3,6,7,10
//               --out=fuzz-artifacts             # rediscover the race
//   udring_fuzz --topology=tree --iterations=300     # fuzz on Euler-tour rings
//   udring_fuzz --record=trace.txt --algorithm=known-k-full --nodes=16
//               --agents=4 --sched=fifo-stress --seed=7
//   udring_fuzz --record=trace.txt --topology=graph --nodes=12 --agents=3
//   udring_fuzz --replay=trace.txt
//
// Fuzz mode exits 1 when a failure is found; each failure is shrunk to a
// minimal trace and written under --out so CI can upload it as an artifact
// and anyone can `udring_fuzz --replay=<file>` it locally. Replay mode exits
// 1 when the replay diverges from the recording — a digest mismatch, or an
// outcome that contradicts the trace's note (a recorded failure that fails
// identically exits 0) — so corpus files double as self-verifying
// regression inputs.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "explore/fuzz.h"
#include "explore/shrink.h"
#include "util/cli.h"
#include "util/io.h"

namespace {

using namespace udring;

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int replay_mode(const std::string& path) {
  const explore::ScheduleTrace trace =
      explore::ScheduleTrace::parse(read_file(path));
  const explore::ReplayOutcome outcome = explore::replay_trace(trace);
  std::cout << "replayed " << path << ": " << outcome.actions << " actions, digest "
            << outcome.digest << (outcome.failed ? " FAILED: " + outcome.reason
                                                 : " ok")
            << '\n';
  if (outcome.digest != trace.expected_digest) {
    std::cout << "DIGEST MISMATCH: recorded " << trace.expected_digest << '\n';
    return 1;
  }
  const bool expected_failure = trace.note != "ok" && !trace.note.empty();
  if (outcome.failed != expected_failure) {
    std::cout << "OUTCOME MISMATCH: trace note says '" << trace.note << "'\n";
    return 1;
  }
  return 0;
}

int record_mode(const std::string& path, core::Algorithm algorithm,
                core::ProblemSpec problem, explore::FuzzTopology topology,
                std::size_t n, std::size_t k,
                explore::ExploreSchedulerKind kind, std::uint64_t seed,
                const sim::FaultPlan& faults) {
  Rng rng(seed);
  explore::RecordRequest request;
  request.algorithm = algorithm;
  request.problem = problem;
  request.kind = kind;
  request.seed = seed;
  request.faults = faults;
  // --nodes sizes the underlying network for tree/graph; the recorded
  // instance is its Euler-tour virtual ring, so the trace replays
  // stand-alone.
  explore::DrawnInstance drawn = explore::draw_instance(topology, n, k, rng);
  request.node_count = drawn.node_count;
  request.homes = std::move(drawn.homes);
  request.topology = std::move(drawn.topology);
  const explore::ScheduleTrace trace = explore::record_trace(request);
  if (!write_text_file(path, trace.to_text())) {
    std::cerr << "udring_fuzz: cannot write " << path << '\n';
    return 2;
  }
  std::cout << "recorded " << path << ": " << trace.choices.size()
            << " choices, digest " << trace.expected_digest << ", outcome "
            << trace.note << '\n';
  return trace.note == "ok" ? 0 : 1;
}

int fuzz_mode(const explore::FuzzOptions& options, const std::string& out_dir) {
  const explore::FuzzReport report = explore::run_fuzz(options);
  std::cout << "fuzz: algorithm=" << core::to_string(options.algorithm)
            << " oracle=" << explore::to_string(options.oracle);
  // Budgets in the header line only when set, so fault-free CI logs diff
  // clean against historical runs.
  if (options.fault_crash_budget != 0) {
    std::cout << " crash-budget=" << options.fault_crash_budget;
  }
  if (options.fault_rewire_budget != 0) {
    std::cout << " rewire-budget=" << options.fault_rewire_budget;
  }
  std::cout << " iterations=" << report.iterations
            << " actions=" << report.total_actions
            << " failures=" << report.failures << " digest=" << report.digest
            << '\n';
  if (report.failures == 0) return 0;

  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  std::size_t written = 0;
  // Many failures shrink to the same minimal schedule: one artifact per
  // distinct shrunk trace, keyed on its text minus the provenance lines
  // (generator, seed) — instance, fault plan, choices and expected digest.
  std::set<std::string> distinct;
  for (const explore::FuzzFailure& failure : report.failure_samples) {
    std::cout << "  FAIL iteration " << failure.iteration << " @action "
              << failure.at_action << ": " << failure.reason << '\n';
    const explore::ShrinkResult shrunk = explore::shrink_trace(failure.trace);
    std::cout << "    shrunk " << shrunk.original_size << " -> "
              << shrunk.trace.choices.size() << " choices ("
              << shrunk.replays << " replays): " << shrunk.reason << '\n';
    explore::ScheduleTrace key = shrunk.trace;
    key.generator.clear();
    key.seed = 0;
    if (!distinct.insert(key.to_text()).second) {
      std::cout << "    same shrunk trace as an earlier failure\n";
      continue;
    }
    if (!out_dir.empty()) {
      std::ostringstream name;
      name << out_dir << "/shrunk-" << core::to_string(options.algorithm)
           << "-iter" << failure.iteration << ".trace";
      if (write_text_file(name.str(), shrunk.trace.to_text())) {
        std::cout << "    wrote " << name.str() << '\n';
        ++written;
      } else {
        std::cerr << "udring_fuzz: cannot write " << name.str() << '\n';
      }
    }
  }
  std::cout << report.failure_samples.size() << " sampled failures -> "
            << distinct.size() << " distinct shrunk traces\n";
  if (written != 0) {
    std::cout << "replay any artifact with: udring_fuzz --replay=<file>\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::string replay_path =
        cli.get("replay", "replay a trace file and verify its digest").value_or("");
    const std::string record_path =
        cli.get("record", "record one run to this trace file").value_or("");
    const std::string algorithm_name =
        cli.get("algorithm", "algorithm under test", "known-k-full")
            .value_or("known-k-full");
    const std::string problem_name =
        cli.get("problem",
                "goal oracle the runs are judged against: "
                "auto|deploy|gather|disperse (auto = the algorithm's natural "
                "problem)",
                "auto")
            .value_or("auto");
    const std::size_t gather_g =
        cli.get_size("gather-g", 2,
                     "group size g for --problem=gather (0 = total gathering)");
    const std::string sched_name =
        cli.get("sched",
                "scheduler for --record; fuzz pool restriction otherwise "
                "(empty = all kinds)",
                "")
            .value_or("");
    const std::string topology_name =
        cli.get("topology",
                "instance topology: ring|tree|graph (tree/graph fuzz and "
                "record on the Euler-tour virtual ring of a random network)",
                "ring")
            .value_or("ring");
    const std::size_t n = cli.get_size(
        "nodes", 16, "ring size (or underlying network size) for --record");
    const std::size_t k = cli.get_size("agents", 4, "agent count for --record");
    // A malformed or zero budget must not silently turn the CI fuzz gate
    // into a no-op pass; fall back to the default and say so.
    std::size_t default_budget = 200;
    if (const char* budget_env = std::getenv("UDRING_FUZZ_BUDGET")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(budget_env, &end, 10);
      if (end != budget_env && *end == '\0' && parsed > 0) {
        default_budget = static_cast<std::size_t>(parsed);
      } else {
        std::cerr << "udring_fuzz: ignoring invalid UDRING_FUZZ_BUDGET='"
                  << budget_env << "', using " << default_budget << '\n';
      }
    }
    explore::FuzzOptions options;
    options.iterations =
        cli.get_size("iterations", default_budget,
                     "fuzz budget (default: $UDRING_FUZZ_BUDGET or 200)");
    options.base_seed = cli.get_u64("seed", 1, "base seed");
    options.min_nodes = cli.get_size("min-nodes", 8, "minimum ring size");
    options.max_nodes = cli.get_size("max-nodes", 24, "maximum ring size");
    options.min_agents = cli.get_size("min-agents", 2, "minimum agent count");
    options.max_agents = cli.get_size("max-agents", 6, "maximum agent count");
    options.workers = cli.get_size("workers", 0, "worker threads (0 = all cores)");
    const std::string oracle_name =
        cli.get("oracle",
                "per-action invariant oracle: full (every in-transit "
                "agent's queue each action) | incremental (O(dirty) "
                "footprint revalidation + periodic full walk)",
                "full")
            .value_or("full");
    options.oracle_full_check_every = cli.get_size(
        "oracle-full-every", 1024,
        "incremental oracle: full walk every N actions (0 = never)");
    options.max_recorded_failures =
        cli.get_size("max-failures", 8, "failing traces to keep and shrink");
    options.faults.non_fifo = cli.get_flag(
        "inject-non-fifo",
        "TEST-ONLY: weaken the FIFO link guarantee (FaultPlan::non_fifo)");
    options.faults.non_fifo_min_phase = cli.get_size(
        "fault-min-phase", 0,
        "with --inject-non-fifo (rejected without it): allow overtaking "
        "only at/after this phase tag (FaultPlan::non_fifo_min_phase)");
    const std::string faults_spec =
        cli.get("faults",
                "per-iteration fault budgets, comma list of crash=N and "
                "rewire=N (e.g. --faults=crash=1,rewire=2); drawn faults land "
                "in each trace and replay byte-identically",
                "")
            .value_or("");
    if (!faults_spec.empty()) {
      std::istringstream list(faults_spec);
      for (std::string item; std::getline(list, item, ',');) {
        const std::size_t eq = item.find('=');
        const std::string key = item.substr(0, eq);
        if (eq == std::string::npos || (key != "crash" && key != "rewire")) {
          throw std::invalid_argument("--faults: bad token '" + item +
                                      "' (want crash=N or rewire=N)");
        }
        const std::size_t value =
            static_cast<std::size_t>(std::stoull(item.substr(eq + 1)));
        (key == "crash" ? options.fault_crash_budget
                        : options.fault_rewire_budget) = value;
      }
    }
    const std::string homes_csv =
        cli.get("homes",
                "comma-separated home nodes: fuzz this fixed instance "
                "(with --nodes) instead of drawing sizes",
                "")
            .value_or("");
    if (!homes_csv.empty()) {
      options.fixed_nodes = n;
      std::istringstream list(homes_csv);
      for (std::string item; std::getline(list, item, ',');) {
        options.fixed_homes.push_back(
            static_cast<std::size_t>(std::stoull(item)));
      }
    }
    const std::string out_dir =
        cli.get("out", "directory for shrunk failing traces", "").value_or("");

    cli.reject_unknown_flags();
    if (cli.wants_help()) {
      cli.print_help(
          "udring schedule explorer: fuzz adversarial schedules, record and "
          "replay executions");
      return 0;
    }
    if (!replay_path.empty()) return replay_mode(replay_path);

    options.algorithm = explore::algorithm_from_name(algorithm_name);
    options.problem.kind = core::problem_from_name(problem_name);
    if (options.problem.kind == core::Problem::Gather) {
      options.problem.gather_g = gather_g;
    } else if (options.problem.kind != core::Problem::Auto) {
      options.problem.gather_g = 0;  // the parameter belongs to gather only
    }
    options.topology = explore::fuzz_topology_from_name(topology_name);
    options.oracle = explore::oracle_mode_from_name(oracle_name);
    if (!record_path.empty()) {
      return record_mode(record_path, options.algorithm, options.problem,
                         options.topology, n, k,
                         explore::explore_scheduler_from_name(
                             sched_name.empty() ? "round-robin" : sched_name),
                         options.base_seed, options.faults);
    }
    if (!sched_name.empty()) {
      options.schedulers = {explore::explore_scheduler_from_name(sched_name)};
    }
    return fuzz_mode(options, out_dir);
  } catch (const std::exception& error) {
    std::cerr << "udring_fuzz: " << error.what() << '\n';
    return 2;
  }
}
