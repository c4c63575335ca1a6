// udbench/src/bench.h
//
// Shared pieces of the udring benchmark binary: the workload interface the
// measuring loop in main.cpp drives, the outside-in trace (per-layer call
// counts and busy time, plus one span per unit of work), and small helpers.
//
// Every layer is timed from outside: the traced run re-drives a workload's
// work through the public functions of each module and wraps each call in a
// cycle-counter span. Nothing inside src/ is instrumented.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace udbench {

/// Work-set size: Full is the benchmark, Tiny is its self-test.
enum class Size { Full, Tiny };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::Full;
  std::string spans_path;   ///< where the traced run writes its spans
  std::string scratch_dir;  ///< checkpoint files (campaign-checkpointed)
  std::size_t workers = 1;  ///< threads of the parallel workload: min(4, nproc)
};

[[nodiscard]] inline std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The span clock: the time-stamp counter where there is one (a few ns per
/// read), steady_clock elsewhere. Converted to ns by Trace::ns_per_tick.
[[nodiscard]] inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return steady_ns();
#endif
}

/// Calls of one layer: how many, and their summed busy time in ticks.
struct Layer {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;
  void add(std::uint64_t elapsed) noexcept {
    ++calls;
    ticks += elapsed;
  }
};

/// One unit of work (scenario, fuzz iteration, mc instance, checkpoint
/// block) or one batch. Spans of one batch share its id as `parent`.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a batch (root) span
  std::string name;
  std::uint64_t unit = 0;    ///< scenario index / iteration / instance / block
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory trace of the traced run: per-layer counters, unit spans and
/// per-unit durations for percentiles. Written out once, at the end.
class Trace {
 public:
  Trace();

  [[nodiscard]] Layer& layer(const std::string& name) { return layers_[name]; }
  [[nodiscard]] const Layer* find(const std::string& name) const;

  /// Busy time of `name` in ns with the calibrated cost of an empty span
  /// removed from every call.
  [[nodiscard]] double busy_ns(const std::string& name) const;
  /// Summed busy_ns of several layers, in seconds.
  [[nodiscard]] double busy_s(std::initializer_list<const char*> names) const;
  /// Mean ns per call (0 when the layer saw no calls).
  [[nodiscard]] double per_call_ns(const std::string& name) const;

  std::uint32_t open_span(std::string name, std::uint32_t parent,
                          std::uint64_t unit);
  void close_span(std::uint32_t id);

  /// Per-unit wall samples of a named distribution, in ns.
  void sample(const std::string& name, double ns) { samples_[name].push_back(ns); }
  [[nodiscard]] double quantile_ns(const std::string& name, double q) const;

  /// Re-derives the tick rate over the whole trace so far (call once the
  /// traced work is done).
  void finish();
  [[nodiscard]] double ns_per_tick() const noexcept { return ns_per_tick_; }

  /// Writes every span as one JSON line; false on an IO error.
  [[nodiscard]] bool write_spans(const std::string& path) const;

 private:
  std::map<std::string, Layer> layers_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<Span> spans_;
  std::uint64_t start_ticks_ = 0;
  std::uint64_t start_ns_ = 0;
  double ns_per_tick_ = 1.0;
  double null_span_ticks_ = 0;  ///< median cost of an empty span
};

/// What one untraced batch did: its units of work, how many of them failed,
/// the simulator actions it executed and its digest (equal in every batch
/// of a run, and across runs at one seed).
struct Batch {
  std::size_t units = 0;
  std::size_t failed_units = 0;
  std::uint64_t steps = 0;
  std::uint64_t digest = 0;
};

/// What one traced batch measured: the wall time of the traced re-drive of
/// the batch's work (reference passes and unit probes excluded), and the
/// time its leaf layers account for — Σ over layers of busy time per call ×
/// calls, measured or (mc) estimated from unit probes.
struct TracedBatch {
  double redrive_s = 0;
  double accounted_s = 0;
};

/// One named result value with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The correctness record of a run: every check made, and which failed.
struct Gates {
  std::size_t checks = 0;
  std::vector<std::string> failures;
  /// Values compared against udbench/pins.json at the default seed.
  std::map<std::string, std::string> pinned;

  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

/// A workload as the measuring loop sees it. One object lives for the whole
/// run; batches are independent and deterministic in (size, seed).
class Workload {
 public:
  virtual ~Workload() = default;

  /// The workload's set-up: its first top-level public call, from a fresh
  /// object, cut at the first unit of work: the engine's own set-up
  /// (admission, run context, arena, visited table) plus one unit. Timed as
  /// `setup_s`. Returns a digest of what that unit produced: one seed, one
  /// digest.
  virtual std::uint64_t set_up() = 0;

  /// One untraced batch through the workload's top-level public call.
  virtual Batch run_batch() = 0;

  /// One traced batch: re-drives the same work through the public
  /// functions of each layer, recording into `trace`, and checks that it
  /// reproduces the untraced batch unit by unit.
  virtual TracedBatch traced_batch(Trace& trace, std::uint32_t batch_span,
                                   Gates& gates) = 0;

  /// Per-layer metrics from the accumulated trace (traced runs only).
  virtual void layer_metrics(const Trace& trace, std::vector<Metric>& out) = 0;

  /// End-of-run correctness checks beyond the per-batch ones.
  virtual void final_checks(const Batch& batch, Gates& gates) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_campaign_sweep(const Args& args);
[[nodiscard]] std::unique_ptr<Workload> make_campaign_checkpointed(const Args& args);
[[nodiscard]] std::unique_ptr<Workload> make_fuzz_checked(const Args& args);
[[nodiscard]] std::unique_ptr<Workload> make_mc_verify(const Args& args);

/// Digest of the repo's engine grid (bench_campaign_engine's 1568-scenario
/// sweep), the behavioural contract ROADMAP pins.
[[nodiscard]] std::uint64_t engine_grid_digest();

/// Lower-case hex of a 64-bit digest, as the repo's CLIs print them.
[[nodiscard]] std::string hex(std::uint64_t value);

[[nodiscard]] double median(std::vector<double> values);

}  // namespace udbench
