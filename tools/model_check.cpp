// tools/model_check.cpp
//
// The exhaustive model checker's command-line face.
//
//   udring_mc --algo=known-k-full --n=6 --k=2                 # one instance
//   udring_mc --algo=known-k-logmem --topology=tree --n=4 --k=2
//   udring_mc --algo=known-k-logmem-strict --n=12 --homes=0,1,3,6,7,10
//             --inject-non-fifo --fault-min-phase=1 --budget=2000000
//             --out=mc-artifacts                  # rediscover the race
//   udring_mc --algo=known-k-full --n=8 --k=2 --grid --seeds=3  # grid cells
//
// Exit codes: 0 = verified over all schedules (every cell), 1 = violation
// found (the counterexample trace is printed and, with --out, written where
// CI uploads it; replay it with `udring_fuzz --replay=<file>`), 3 = budget
// exhausted before the tree was closed (no verdict), 2 = usage error.

#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "util/cli.h"
#include "util/io.h"

namespace {

using namespace udring;

void print_report(const mc::ModelCheckReport& report) {
  const mc::McStats& s = report.stats;
  std::cout << "verdict: " << report.verdict
            << (report.complete ? " (complete)" : " (incomplete)") << '\n'
            << "schedules explored: " << s.schedules
            << "   states expanded: " << s.states_expanded
            << "   deduped: " << s.states_deduped
            << "   sleep-pruned: " << s.sleep_pruned
            << "   dpor-pruned: " << s.dpor_pruned << '\n'
            << "actions: " << s.total_actions << "   replays: " << s.replays
            << "   max depth: " << s.max_depth << "   shards: " << s.shards
            << '\n';
}

int emit_counterexample(const mc::ModelCheckReport& report,
                        const std::string& out_dir, const std::string& tag) {
  std::cout << "VIOLATION: " << report.failure_reason << '\n';
  if (!report.counterexample) return 1;
  std::cout << "counterexample: " << report.counterexample->choices.size()
            << " choices, digest " << report.counterexample->expected_digest
            << '\n';
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/mc-counterexample-" + tag + ".trace";
    if (write_text_file(path, report.counterexample->to_text())) {
      std::cout << "wrote " << path
                << "  (replay with: udring_fuzz --replay=" << path << ")\n";
    } else {
      std::cerr << "udring_mc: cannot write " << path << '\n';
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::string algo_name =
        cli.get("algo", "algorithm under verification", "known-k-full")
            .value_or("known-k-full");
    const std::string problem_name =
        cli.get("problem",
                "goal oracle the instance is verified against: "
                "auto|deploy|gather|disperse (auto = the algorithm's natural "
                "problem)",
                "auto")
            .value_or("auto");
    const std::size_t gather_g =
        cli.get_size("gather-g", 2,
                     "group size g for --problem=gather (0 = total gathering)");
    const std::string topology_name =
        cli.get("topology",
                "instance topology: ring|tree|graph (tree/graph check the "
                "Euler-tour virtual ring of a random --seed network)",
                "ring")
            .value_or("ring");
    const std::size_t n = cli.get_size(
        "n", 6, "ring size (or underlying network size for tree/graph)");
    const std::size_t k = cli.get_size("k", 2, "agent count");
    const std::string homes_csv =
        cli.get("homes", "comma-separated home nodes (overrides the --seed draw)",
                "")
            .value_or("");
    const std::uint64_t seed =
        cli.get_u64("seed", 1, "seed for the instance draw (homes / network)");
    const std::size_t budget = cli.get_size(
        "budget", 0,
        "action budget, replays included (0 = walk the tree to exhaustion)");
    const std::size_t workers = cli.get_size(
        "workers", 0,
        "worker threads for the --shared-visited closure walk (0 = all "
        "cores; the default tree walk is serial)");
    const bool no_dedup =
        cli.get_flag("no-dedup", "disable visited-state deduplication");
    const bool no_sleep =
        cli.get_flag("no-sleep", "disable sleep-set independence pruning");
    const bool no_dpor = cli.get_flag(
        "no-dpor", "disable dynamic partial-order reduction (backtrack sets)");
    const bool shared_visited = cli.get_flag(
        "shared-visited",
        "run the parallel closure walk: a BFS phase cuts at least 16 shards, "
        "which race over one lock-free visited set on --workers threads "
        "(disables sleep sets + "
        "DPOR; counts stay worker-independent; a violation is re-checked "
        "with the serial tree walk)");
    const std::size_t shared_capacity = cli.get_size(
        "shared-visited-capacity", 0,
        "slot count for --shared-visited (0 = auto, 2^22 = 32 MiB, "
        "allocated per check; an undersized table reports budget-exhausted)");
    sim::FaultPlan non_fifo;
    non_fifo.non_fifo = cli.get_flag(
        "inject-non-fifo",
        "TEST-ONLY: weaken the FIFO link guarantee (FaultPlan::non_fifo)");
    non_fifo.non_fifo_min_phase = cli.get_size(
        "fault-min-phase", 0,
        "with --inject-non-fifo (rejected without it): allow overtaking "
        "only at/after this phase tag (FaultPlan::non_fifo_min_phase)");
    const std::string fault_budget_spec =
        cli.get("fault-budget",
                "enumerate bounded fault plans on top of every schedule: "
                "comma list of crash=N and rewire=N "
                "(e.g. --fault-budget=crash=1,rewire=2)",
                "")
            .value_or("");
    const std::size_t fault_max_action = cli.get_size(
        "fault-max-action", 8,
        "latest action index enumerated fault events may fire at");
    const std::size_t max_actions = cli.get_size(
        "max-actions", 0, "per-schedule action cap (0 = simulator auto limit)");
    const bool grid_mode = cli.get_flag(
        "grid", "check a campaign grid cell-by-cell (--seeds instances of "
                "(n, k)) instead of one instance");
    const std::size_t seeds =
        cli.get_size("seeds", 1, "instances per cell in --grid mode");
    const std::string out_dir =
        cli.get("out", "directory for counterexample traces", "").value_or("");
    cli.reject_unknown_flags();
    if (cli.wants_help()) {
      cli.print_help(
          "udring exhaustive model checker: walks every schedule of a small "
          "instance and proves the goal, or emits a replayable "
          "counterexample. Default: the serial tree walk (DFS + sleep sets + "
          "DPOR backtrack sets + visited-state dedup over the replay choice "
          "tree). --shared-visited: the parallel closure walk over one "
          "lock-free visited set");
      return 0;
    }

    mc::FaultBudget fault_budget;
    fault_budget.max_fault_action = fault_max_action;
    if (!fault_budget_spec.empty()) {
      std::istringstream list(fault_budget_spec);
      for (std::string item; std::getline(list, item, ',');) {
        const std::size_t eq = item.find('=');
        const std::string key = item.substr(0, eq);
        if (eq == std::string::npos || (key != "crash" && key != "rewire")) {
          throw std::invalid_argument("--fault-budget: bad token '" + item +
                                      "' (want crash=N or rewire=N)");
        }
        const std::size_t value =
            static_cast<std::size_t>(std::stoull(item.substr(eq + 1)));
        (key == "crash" ? fault_budget.crashes : fault_budget.rewires) = value;
      }
    }

    mc::McOptions options;
    options.dedup_states = !no_dedup;
    options.sleep_sets = !no_sleep;
    options.dpor = !no_dpor;
    options.shared_visited = shared_visited;
    options.shared_visited_capacity = shared_capacity;
    options.budget_actions = budget;
    options.workers = workers;

    const core::Algorithm algorithm = explore::algorithm_from_name(algo_name);
    core::ProblemSpec problem;
    problem.kind = core::problem_from_name(problem_name);
    if (problem.kind == core::Problem::Gather) {
      problem.gather_g = gather_g;
    } else if (problem.kind != core::Problem::Auto) {
      problem.gather_g = 0;  // the parameter belongs to gather only
    }
    const explore::FuzzTopology topology =
        explore::fuzz_topology_from_name(topology_name);

    if (grid_mode) {
      if (topology != explore::FuzzTopology::Ring) {
        std::cerr << "udring_mc: --grid supports --topology=ring only\n";
        return 2;
      }
      if (!fault_budget.empty()) {
        // Budget enumeration multiplies the walk per instance; on a grid that
        // silently explodes — require the single-instance mode.
        std::cerr << "udring_mc: --fault-budget cannot be combined with "
                     "--grid (check one instance at a time)\n";
        return 2;
      }
      if (!homes_csv.empty()) {
        // Grid cells draw their homes from the campaign substream; silently
        // dropping an explicit --homes would report "verified" for
        // instances the caller never named.
        std::cerr << "udring_mc: --homes cannot be combined with --grid\n";
        return 2;
      }
      exp::CampaignGrid grid;
      grid.algorithms = {algorithm};
      grid.problems = {problem};
      grid.node_counts = {n};
      grid.agent_counts = {k};
      grid.seeds = seeds;
      grid.base_seed = seed;
      grid.sim_options.faults = non_fifo;
      grid.sim_options.max_actions = max_actions;
      const mc::GridReport report = mc::check_grid(grid, options);
      std::cout << report.summary();
      if (report.violations != 0) {
        int status = 0;
        for (const mc::GridCell& cell : report.cells) {
          if (cell.report.ok) continue;
          status = emit_counterexample(
              cell.report, out_dir,
              std::string(core::to_string(cell.algorithm)) + "-rep" +
                  std::to_string(cell.repetition));
        }
        return status;
      }
      return report.all_verified() ? 0 : 3;
    }

    Rng rng(seed);
    mc::CheckRequest request;
    request.algorithm = algorithm;
    request.problem = problem;
    request.faults = non_fifo;
    request.max_actions = max_actions;
    if (!homes_csv.empty()) {
      if (topology != explore::FuzzTopology::Ring) {
        // Fixed homes name ring nodes; silently checking a plain ring while
        // the caller asked for tree/graph would verify the wrong instance.
        std::cerr << "udring_mc: --homes only supports --topology=ring\n";
        return 2;
      }
      request.node_count = n;
      std::istringstream list(homes_csv);
      for (std::string item; std::getline(list, item, ',');) {
        request.homes.push_back(static_cast<std::size_t>(std::stoull(item)));
      }
    } else {
      explore::DrawnInstance drawn = explore::draw_instance(topology, n, k, rng);
      request.node_count = drawn.node_count;
      request.homes = std::move(drawn.homes);
      request.topology = std::move(drawn.topology);
    }

    std::cout << "model-check " << core::to_string(algorithm) << " n="
              << request.node_count << " k=" << request.homes.size()
              << " topology="
              << (request.topology.empty() ? "ring" : request.topology.name());
    if (problem.kind != core::Problem::Auto) {
      std::cout << " problem=" << core::to_string(problem);
    }
    std::cout << (non_fifo.non_fifo ? " +non-fifo-fault" : "");
    if (!fault_budget.empty()) {
      std::cout << " fault-budget=crash:" << fault_budget.crashes
                << "+rewire:" << fault_budget.rewires << "@<="
                << fault_budget.max_fault_action;
    }
    std::cout << '\n';
    const mc::ModelCheckReport report =
        fault_budget.empty() ? mc::check(request, options)
                             : mc::check_with_faults(request, fault_budget,
                                                     options);
    print_report(report);
    if (!report.ok) {
      return emit_counterexample(report, out_dir,
                                 std::string(core::to_string(algorithm)));
    }
    return report.complete ? 0 : 3;
  } catch (const std::exception& error) {
    std::cerr << "udring_mc: " << error.what() << '\n';
    return 2;
  }
}
