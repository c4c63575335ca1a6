// udbench — measures one udring workload and checks its outputs.
//
//   udbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--size full|tiny] [--spans PATH] [--scratch DIR]
//
// Untraced (--trace 0): repeats the workload's batch until --seconds have
// passed, setting the workload up from scratch a few times before each
// batch, and reports the end-to-end metrics as medians over set-ups and
// batches.
// Traced (--trace 1): alternates an untraced batch with a traced re-drive of
// the same work and reports the per-layer metrics, the reconciliation
// residual and the tracing overhead. Either way the last stdout line is one
// JSON object for udbench/run.py, which adds the pinned-digest gate and
// prints the benchmark's result line.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

namespace udbench {
namespace {

constexpr std::uint64_t kEngineGridDigest = 0x562ec13da3b6353aULL;

/// Set-ups on fresh workload objects before each untraced batch. Spread
/// over the run like the batches, they see the same mix of machine states
/// the batches do.
constexpr std::size_t kSetupsPerBatch = 16;

/// Every per-layer metric, in BENCHMARK.json's order. A traced run prints
/// all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"exp.admit_ms", "ms"},
      {"config.draw_homes_ns", "ns"},
      {"core.setup_ns", "ns"},
      {"sim.draw_ns", "ns"},
      {"sim.execute_ns", "ns"},
      {"sim.goal_ns", "ns"},
      {"sim.check_action_ns", "ns"},
      {"explore.pick_ns", "ns"},
      {"explore.iteration_ms.p50", "ms"},
      {"explore.iteration_ms.p99", "ms"},
      {"exp.sketch_add_ns", "ns"},
      {"exp.block_ms.p50", "ms"},
      {"exp.block_ms.p99", "ms"},
      {"util.parallel_efficiency", "ratio"},
      {"exp.encode_us", "us"},
      {"exp.decode_us", "us"},
      {"exp.write_ms", "ms"},
      {"exp.shard_bytes", "bytes"},
      {"exp.merge_ms", "ms"},
      {"mc.states_expanded", "count"},
      {"mc.states_deduped", "count"},
      {"mc.sleep_pruned", "count"},
      {"mc.dpor_pruned", "count"},
      {"mc.replays", "count"},
      {"mc.actions", "count"},
      {"mc.actions_per_state", "ratio"},
      {"mc.dedup_hit_ratio", "ratio"},
      {"mc.dpor_cut_ratio", "ratio"},
      {"mc.states_per_s", "1/s"},
      {"mc.step_ns", "ns"},
      {"mc.digest_ns", "ns"},
      {"mc.canon_ns", "ns"},
      {"mc.check_action_ns", "ns"},
      {"sim.actions", "count"},
      {"trace.residual_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return list;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "udbench: " << why << "\n"
            << "usage: udbench --workload campaign-sweep|campaign-checkpointed|"
               "fuzz-checked|mc-verify [--seed N] [--seconds S] [--trace 0|1]"
               " [--size full|tiny] [--spans PATH] [--scratch DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size takes full or tiny");
        args.size = value == "tiny" ? Size::Tiny : Size::Full;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else if (flag == "--scratch") {
        args.scratch_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  args.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  if (args.scratch_dir.empty()) args.scratch_dir = ".";
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "campaign-sweep") return make_campaign_sweep(args);
  if (args.workload == "campaign-checkpointed") {
    return make_campaign_checkpointed(args);
  }
  if (args.workload == "fuzz-checked") return make_fuzz_checked(args);
  if (args.workload == "mc-verify") return make_mc_verify(args);
  usage("unknown workload " + args.workload);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image, from /proc/self/status. Not
/// getrusage: its ru_maxrss keeps the launching process's peak across exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  std::ostringstream text;
  text.precision(17);
  text << value;
  return text.str();
}

/// The machine context recorded with every result.
std::string context_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << json_escape(cpu) << "\", \"compiler\": \""
      << json_escape(UDBENCH_COMPILER) << "\", \"build_type\": \""
      << UDBENCH_BUILD_TYPE << "\", \"lto\": " << (UDBENCH_LTO ? "true" : "false")
      << ", \"loadavg\": [" << load[0] << ", " << load[1] << ", " << load[2]
      << "]}";
  return out.str();
}

struct Timed {
  Batch batch;
  double wall_s = 0;
  double cpu_s = 0;
};

Timed timed_batch(Workload& workload) {
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = steady_ns();
  Timed out;
  out.batch = workload.run_batch();
  out.wall_s = static_cast<double>(steady_ns() - t0) * 1e-9;
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

int run(const Args& args) {
  const std::string context = context_json();
  std::cout << "context " << context << '\n';

  // Set-up: the workload's first top-level public call on a fresh object,
  // cut at its first unit of work (Workload::set_up). One sample is the
  // mean of kSetupsPerBatch set-ups in a row, which is long enough to time
  // steadily; setup_s is the median of the samples.
  Gates gates;
  std::vector<double> setups;
  const std::unique_ptr<Workload> workload = make_workload(args);
  const std::uint64_t first_unit = workload->set_up();
  gates.pinned["setup_digest"] = hex(first_unit);

  // One untraced batch first: caches fill and lazy set-up finishes before
  // anything is timed. Its digest is the one every later batch must repeat.
  const Batch warm = workload->run_batch();
  std::size_t attempted = warm.units;
  std::size_t failed_units = warm.failed_units;

  std::vector<Timed> untraced;
  std::vector<TracedBatch> traced;
  std::optional<Trace> trace;
  if (args.trace) trace.emplace();
  const std::uint64_t deadline =
      steady_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::size_t min_batches = args.trace ? 1 : 3;
  while (untraced.size() < min_batches || steady_ns() < deadline) {
    if (!args.trace) {
      std::vector<std::unique_ptr<Workload>> fresh;
      for (std::size_t i = 0; i < kSetupsPerBatch; ++i) {
        fresh.push_back(make_workload(args));
      }
      std::array<std::uint64_t, kSetupsPerBatch> digests{};
      const std::uint64_t t0 = steady_ns();
      for (std::size_t i = 0; i < kSetupsPerBatch; ++i) digests[i] = fresh[i]->set_up();
      setups.push_back(static_cast<double>(steady_ns() - t0) * 1e-9 /
                       static_cast<double>(kSetupsPerBatch));
      for (const std::uint64_t digest : digests) {
        gates.expect(digest == first_unit, "set-up " + hex(digest) +
                                               " differs from the first set-up's " +
                                               hex(first_unit));
      }
    }
    untraced.push_back(timed_batch(*workload));
    const Batch& batch = untraced.back().batch;
    attempted += batch.units;
    failed_units += batch.failed_units;
    gates.expect(batch.digest == warm.digest,
                 "batch digest " + hex(batch.digest) +
                     " differs from the first batch's " + hex(warm.digest));
    if (args.trace) {
      const std::uint32_t span =
          trace->open_span("batch", 0, static_cast<std::uint64_t>(traced.size()));
      traced.push_back(workload->traced_batch(*trace, span, gates));
      trace->close_span(span);
    }
  }
  // Peak memory of set-ups and batches, before the end-of-run checks.
  const double peak_rss = peak_rss_mib();
  workload->final_checks(warm, gates);
  gates.expect(engine_grid_digest() == kEngineGridDigest,
               "engine-grid contract digest is not " + hex(kEngineGridDigest));

  std::vector<Metric> metrics;
  std::vector<double> wall, cpu, units_rate, steps_rate;
  for (const Timed& t : untraced) {
    wall.push_back(t.wall_s);
    cpu.push_back(t.cpu_s);
    units_rate.push_back(static_cast<double>(t.batch.units) / t.wall_s);
    steps_rate.push_back(static_cast<double>(t.batch.steps) / t.wall_s);
  }
  if (!args.trace) {
    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"wall_s", median(wall), "s"});
    metrics.push_back({"cpu_s", median(cpu), "s"});
    metrics.push_back({"scenarios_per_s", median(units_rate), "1/s"});
    metrics.push_back({"checked_steps_per_s", median(steps_rate), "1/s"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});
  } else {
    trace->finish();
    std::vector<Metric> layers;
    workload->layer_metrics(*trace, layers);
    std::vector<double> redrive, accounted;
    for (const TracedBatch& t : traced) {
      redrive.push_back(t.redrive_s);
      accounted.push_back(t.accounted_s);
    }
    const double base = median(wall);
    layers.push_back({"sim.actions", static_cast<double>(warm.steps), "count"});
    layers.push_back(
        {"trace.residual_pct", (base - median(accounted)) / base * 100.0, "%"});
    layers.push_back(
        {"trace.overhead_pct", (median(redrive) - base) / base * 100.0, "%"});
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto found = std::find_if(layers.begin(), layers.end(),
                                      [&](const Metric& m) { return m.name == name; });
      metrics.push_back({name, found == layers.end() ? 0.0 : found->value, unit});
    }
    if (!args.spans_path.empty() && !trace->write_spans(args.spans_path)) {
      std::cerr << "udbench: cannot write spans to " << args.spans_path << '\n';
    }
  }

  for (const std::string& failure : gates.failures) {
    std::cout << "gate FAILED: " << failure << '\n';
  }
  const std::size_t failed = failed_units + gates.failures.size();
  attempted += gates.checks;
  std::cout << "batches " << untraced.size() << " untraced, " << traced.size()
            << " traced; units " << attempted - gates.checks << ", checks "
            << gates.checks << '\n';
  std::cout << "fail_ratio " << json_number(static_cast<double>(failed) /
                                            static_cast<double>(attempted))
            << " ratio\n";
  for (const Metric& m : metrics) {
    std::cout << m.name << ' ' << json_number(m.value) << ' ' << m.unit << '\n';
  }

  std::ostringstream line;
  line << "{\"workload\": \"" << args.workload << "\", \"correct\": "
       << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"pinned\": {";
  bool first = true;
  for (const auto& [key, value] : gates.pinned) {
    line << (first ? "" : ", ") << '"' << key << "\": \"" << value << '"';
    first = false;
  }
  line << "}, \"metrics\": {";
  first = true;
  for (const Metric& m : metrics) {
    line << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  line << "}, \"context\": " << context << '}';
  std::cout << line.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace udbench

int main(int argc, char** argv) {
  const std::string build_type = UDBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::cerr << "udbench: refusing to measure a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    return udbench::run(udbench::parse(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "udbench: " << error.what() << '\n';
    return 1;
  }
}
