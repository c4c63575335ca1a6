#include "exp/shard.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/binio.h"
#include "util/io.h"
#include "util/rng.h"

namespace udring::exp {

namespace {

/// Domain salt for grid_fingerprint — its own constant so the fingerprint,
/// the result digest (kDigestSalt) and the Rng substream derivation can
/// never collide even on identical folded values.
constexpr std::uint64_t kFingerprintSalt = 0x5d4a12df00d5ee3bULL;

void fold_cell_key(std::uint64_t& state, const CellKey& key) {
  fold64(state, static_cast<std::uint64_t>(key.algorithm));
  fold64(state, static_cast<std::uint64_t>(key.family));
  fold64(state, static_cast<std::uint64_t>(key.scheduler));
  fold64(state, key.node_count);
  fold64(state, key.agent_count);
  fold64(state, key.symmetry);
  fold64(state, static_cast<std::uint64_t>(key.problem.kind));
  fold64(state, key.problem.gather_g);
  key.fault.fold_into(state);
}

/// Domain salt for the trailing checksum — distinct from every digest salt.
constexpr std::uint64_t kChecksumSalt = 0x75d53c3e9a0b6f21ULL;

/// The UDS3 trailer: a splitmix fold over the byte length and every byte
/// of header + payload, eight little-endian bytes per fold. Each fold is a
/// bijection of the running state for a fixed word, so any change confined
/// to one word (every single-bit flip) changes the result.
[[nodiscard]] std::uint64_t shard_checksum(std::string_view bytes) {
  std::uint64_t state = kChecksumSalt;
  fold64(state, bytes.size());
  BinaryReader words(bytes);
  while (words.remaining() >= 8) fold64(state, words.u64());
  std::uint64_t tail = 0;
  for (unsigned shift = 0; !words.at_end(); shift += 8) {
    tail |= static_cast<std::uint64_t>(words.u8()) << shift;
  }
  fold64(state, tail);
  return state;
}

[[noreturn]] void fail(const std::string& context, const std::string& what) {
  throw std::runtime_error((context.empty() ? std::string("shard")
                                            : "shard '" + context + "'") +
                           ": " + what);
}

// ---- encoding -------------------------------------------------------------

void encode_cell_key(BinaryWriter& out, const CellKey& key) {
  out.u8(static_cast<std::uint8_t>(key.algorithm));
  out.u8(static_cast<std::uint8_t>(key.family));
  out.u8(static_cast<std::uint8_t>(key.scheduler));
  out.u64(key.node_count);
  out.u64(key.agent_count);
  out.u64(key.symmetry);
  out.u8(static_cast<std::uint8_t>(key.problem.kind));
  out.u64(key.problem.gather_g);
  const sim::FaultPlan& plan = key.fault;
  out.u64(plan.crashes.size());
  for (const sim::CrashFault& crash : plan.crashes) {
    out.u64(crash.agent);
    out.u64(crash.at_action);
  }
  out.u8(plan.non_fifo ? 1 : 0);
  out.u64(plan.non_fifo_min_phase);
  out.u64(plan.non_fifo_until_action);
  out.u64(plan.drop_count);
  out.u64(plan.drop_from_action);
  out.u64(plan.dup_count);
  out.u64(plan.dup_from_action);
  out.u64(plan.rewire_at.size());
  for (const std::size_t at : plan.rewire_at) out.u64(at);
}

void encode_sketch(BinaryWriter& out, const QuantileSketch& sketch) {
  // An empty sketch's stored minimum is the uint64 sentinel (min() masks it
  // to 0 for reporting); from_entries validates against the raw form.
  out.u64(sketch.empty() ? std::numeric_limits<std::uint64_t>::max()
                         : sketch.min());
  out.u64(sketch.max());
  out.u64(sketch.entries().size());
  for (const QuantileSketch::Entry& entry : sketch.entries()) {
    out.u16(entry.bucket);
    out.u64(entry.count);
  }
}

void encode_samples(BinaryWriter& out, const FailureSamples& samples) {
  out.u64(samples.size());
  for (const auto& [index, text] : samples) {
    out.u64(index);
    out.str(text);
  }
}

// ---- decoding (every field validated: a corrupt or hand-edited shard file
// must fail the merge loudly, never fold garbage into a sweep) -------------

constexpr std::uint64_t kAlgorithmCount =
    static_cast<std::uint64_t>(core::Algorithm::DisperseRing) + 1;
constexpr std::uint64_t kConfigFamilyCount =
    static_cast<std::uint64_t>(ConfigFamily::Uniform) + 1;
constexpr std::uint64_t kProblemCount =
    static_cast<std::uint64_t>(core::Problem::Disperse) + 1;

/// Guards a count prefix against the bytes that must back it, so a corrupt
/// length cannot drive a multi-gigabyte reserve before the reader trips on
/// truncation.
std::size_t checked_count(BinaryReader& in, const std::string& context,
                          std::uint64_t count, std::size_t min_entry_bytes,
                          const char* what) {
  if (count > in.remaining() / min_entry_bytes) {
    fail(context, std::string(what) + " count " + std::to_string(count) +
                      " exceeds the bytes that could back it");
  }
  return static_cast<std::size_t>(count);
}

CellKey decode_cell_key(BinaryReader& in, const std::string& context) {
  CellKey key{};
  const std::uint8_t algorithm = in.u8();
  const std::uint8_t family = in.u8();
  const std::uint8_t scheduler = in.u8();
  if (algorithm >= kAlgorithmCount) fail(context, "unknown algorithm value");
  if (family >= kConfigFamilyCount) fail(context, "unknown family value");
  if (scheduler >= sim::kSchedulerKindCount) {
    fail(context, "unknown scheduler value");
  }
  key.algorithm = static_cast<core::Algorithm>(algorithm);
  key.family = static_cast<ConfigFamily>(family);
  key.scheduler = static_cast<sim::SchedulerKind>(scheduler);
  key.node_count = static_cast<std::size_t>(in.u64());
  key.agent_count = static_cast<std::size_t>(in.u64());
  key.symmetry = static_cast<std::size_t>(in.u64());
  const std::uint8_t problem = in.u8();
  if (problem >= kProblemCount) fail(context, "unknown problem value");
  key.problem.kind = static_cast<core::Problem>(problem);
  key.problem.gather_g = static_cast<std::size_t>(in.u64());
  sim::FaultPlan& plan = key.fault;
  const std::size_t crash_count =
      checked_count(in, context, in.u64(), 16, "crash fault");
  plan.crashes.reserve(crash_count);
  for (std::size_t i = 0; i < crash_count; ++i) {
    sim::CrashFault crash;
    crash.agent = static_cast<sim::AgentId>(in.u64());
    crash.at_action = static_cast<std::size_t>(in.u64());
    plan.crashes.push_back(crash);
  }
  const std::uint8_t non_fifo = in.u8();
  if (non_fifo > 1) fail(context, "bad fault non-FIFO flag");
  plan.non_fifo = non_fifo != 0;
  plan.non_fifo_min_phase = static_cast<std::size_t>(in.u64());
  plan.non_fifo_until_action = static_cast<std::size_t>(in.u64());
  plan.drop_count = static_cast<std::size_t>(in.u64());
  plan.drop_from_action = static_cast<std::size_t>(in.u64());
  plan.dup_count = static_cast<std::size_t>(in.u64());
  plan.dup_from_action = static_cast<std::size_t>(in.u64());
  const std::size_t rewire_count =
      checked_count(in, context, in.u64(), 8, "rewire point");
  plan.rewire_at.reserve(rewire_count);
  for (std::size_t i = 0; i < rewire_count; ++i) {
    plan.rewire_at.push_back(static_cast<std::size_t>(in.u64()));
  }
  // Cell keys store plans in the canonical form expand_cells writes; a plan
  // validate() rejects (or a non-normalized one) cannot have come from this
  // encoder.
  try {
    plan.validate(key.node_count, key.agent_count);
  } catch (const std::invalid_argument& error) {
    fail(context, std::string("invalid cell fault plan: ") + error.what());
  }
  return key;
}

QuantileSketch decode_sketch(BinaryReader& in, const std::string& context) {
  const std::uint64_t min_value = in.u64();
  const std::uint64_t max_value = in.u64();
  const std::size_t count =
      checked_count(in, context, in.u64(), 10, "sketch entry");
  std::vector<QuantileSketch::Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    QuantileSketch::Entry entry;
    entry.bucket = in.u16();
    entry.count = in.u64();
    entries.push_back(entry);
  }
  try {
    return QuantileSketch::from_entries(std::move(entries), min_value,
                                        max_value);
  } catch (const std::invalid_argument& error) {
    fail(context, std::string("invalid sketch state: ") + error.what());
  }
}

FailureSamples decode_samples(BinaryReader& in, const std::string& context) {
  const std::size_t count =
      checked_count(in, context, in.u64(), 16, "failure sample");
  FailureSamples samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index = static_cast<std::size_t>(in.u64());
    if (!samples.empty() && index <= samples.back().first) {
      fail(context, "failure samples not strictly ascending by index");
    }
    samples.emplace_back(index, in.str());
  }
  return samples;
}

CellStats decode_cell_stats(BinaryReader& in, const std::string& context) {
  CellStats stats;
  stats.runs = static_cast<std::size_t>(in.u64());
  stats.successes = static_cast<std::size_t>(in.u64());
  stats.moves_sum = in.u64();
  stats.makespan_sum = in.u64();
  stats.memory_bits_sum = in.u64();
  stats.actions_sum = in.u64();
  if (stats.successes > stats.runs) fail(context, "successes exceed runs");
  stats.failure_samples = decode_samples(in, context);
  stats.moves_sketch = decode_sketch(in, context);
  stats.makespan_sketch = decode_sketch(in, context);
  if (stats.moves_sketch.total() != stats.runs ||
      stats.makespan_sketch.total() != stats.runs) {
    fail(context, "sketch totals disagree with the cell's run count");
  }
  return stats;
}

}  // namespace

std::uint64_t grid_fingerprint(const CampaignGrid& grid,
                               const CampaignOptions& options) {
  // Everything a merge must agree on, nothing a merge may ignore: the
  // admitted expansion already folds the whole grid (axes, feasibility
  // skips, a binding memory budget), and the scenarios themselves are a pure
  // function of (cell, repetition, base_seed, sim options). Workers and
  // checkpoint cadence are deliberately absent — they choose how the
  // sweep runs, never what it computes.
  const AdmittedExpansion admitted = admit_cells(grid, options);
  std::uint64_t state = kFingerprintSalt;
  fold64(state, admitted.cells.size());
  for (const CellKey& key : admitted.cells) fold_cell_key(state, key);
  fold64(state, admitted.cells_skipped);
  fold64(state, admitted.scenarios_skipped);
  fold64(state, grid.seeds);
  fold64(state, grid.base_seed);
  fold64(state, grid.sim_options.record_events ? 1 : 0);
  fold64(state, grid.sim_options.max_actions);
  grid.sim_options.faults.fold_into(state);
  fold64(state, options.max_recorded_failures);
  fold64(state, options.max_failures_per_cell);
  fold64(state, options.memory_budget_bytes);
  return state;
}

std::string encode_shard(const ShardFile& shard) {
  BinaryWriter out;
  out.u32(ShardFile::kMagic);
  out.u32(ShardFile::kVersion);
  out.u64(shard.fingerprint);
  out.u64(shard.scenario_total);
  out.u64(shard.range_begin);
  out.u64(shard.range_end);
  out.u64(shard.max_failures_per_cell);
  out.u64(shard.max_recorded_failures);
  out.u64(shard.cells_skipped);
  out.u64(shard.scenarios_skipped);
  out.u64(shard.skipped_cell_samples.size());
  for (const CellKey& key : shard.skipped_cell_samples) {
    encode_cell_key(out, key);
  }
  out.u64(shard.aggregate.scenario_hash);
  out.u64(shard.aggregate.failures);
  encode_samples(out, shard.aggregate.failure_samples);
  out.u64(shard.aggregate.cells.size());
  for (const auto& [key, stats] : shard.aggregate.cells) {
    encode_cell_key(out, key);
    out.u64(stats.runs);
    out.u64(stats.successes);
    out.u64(stats.moves_sum);
    out.u64(stats.makespan_sum);
    out.u64(stats.memory_bits_sum);
    out.u64(stats.actions_sum);
    encode_samples(out, stats.failure_samples);
    encode_sketch(out, stats.moves_sketch);
    encode_sketch(out, stats.makespan_sketch);
  }
  out.u64(shard_checksum(out.bytes()));
  return out.take();
}

ShardFile decode_shard(std::string_view bytes, const std::string& context) {
  BinaryReader header(bytes, context);
  const std::uint32_t magic = header.u32();
  const std::uint32_t version = header.u32();
  // The low three bytes spell "UDS" in every version; the fourth is the
  // version digit, so an older file reports its version, not "bad magic".
  if ((magic ^ ShardFile::kMagic) & 0x00ffffffu) {
    fail(context, "bad magic (not a shard file)");
  }
  if (magic != ShardFile::kMagic || version != ShardFile::kVersion) {
    fail(context, "unsupported shard version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(ShardFile::kVersion) + ")");
  }
  if (bytes.size() < 16) fail(context, "truncated (no checksum)");
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  BinaryReader trailer(bytes.substr(body.size()), context);
  if (trailer.u64() != shard_checksum(body)) {
    fail(context, "checksum mismatch (corrupt or truncated file)");
  }
  BinaryReader in(body.substr(8), context);
  ShardFile shard;
  shard.fingerprint = in.u64();
  shard.scenario_total = in.u64();
  shard.range_begin = in.u64();
  shard.range_end = in.u64();
  shard.max_failures_per_cell = in.u64();
  shard.max_recorded_failures = in.u64();
  shard.cells_skipped = in.u64();
  shard.scenarios_skipped = in.u64();
  if (shard.range_begin > shard.range_end ||
      shard.range_end > shard.scenario_total) {
    fail(context, "scenario range [" + std::to_string(shard.range_begin) +
                      ", " + std::to_string(shard.range_end) +
                      ") is inconsistent with a total of " +
                      std::to_string(shard.scenario_total));
  }
  const std::size_t skipped =
      checked_count(in, context, in.u64(), 28, "skipped-cell sample");
  shard.skipped_cell_samples.reserve(skipped);
  for (std::size_t i = 0; i < skipped; ++i) {
    shard.skipped_cell_samples.push_back(decode_cell_key(in, context));
  }
  shard.aggregate.scenario_hash = in.u64();
  shard.aggregate.failures = static_cast<std::size_t>(in.u64());
  shard.aggregate.failure_samples = decode_samples(in, context);
  const std::size_t cell_count =
      checked_count(in, context, in.u64(), 76, "cell");
  std::uint64_t runs_covered = 0;
  for (std::size_t i = 0; i < cell_count; ++i) {
    CellKey key = decode_cell_key(in, context);
    if (!shard.aggregate.cells.empty() &&
        !(shard.aggregate.cells.rbegin()->first < key)) {
      fail(context, "cells not strictly ascending by key");
    }
    CellStats stats = decode_cell_stats(in, context);
    runs_covered += stats.runs;
    shard.aggregate.cells.emplace_hint(shard.aggregate.cells.end(),
                                       std::move(key), std::move(stats));
  }
  if (runs_covered != shard.range_end - shard.range_begin) {
    fail(context, "cell run counts sum to " + std::to_string(runs_covered) +
                      " but the covered range holds " +
                      std::to_string(shard.range_end - shard.range_begin) +
                      " scenarios");
  }
  in.expect_end();
  return shard;
}

void write_shard_file(const std::string& path, const ShardFile& shard) {
  if (!write_binary_file_atomic(path, encode_shard(shard))) {
    throw std::runtime_error("shard: failed to write '" + path +
                             "' (directory missing or disk full?)");
  }
}

ShardFile load_shard_file(const std::string& path) {
  const std::optional<std::string> bytes = read_binary_file(path);
  if (!bytes) {
    throw std::runtime_error("shard: cannot read '" + path + "'");
  }
  return decode_shard(*bytes, path);
}

ShardFile run_campaign_shard(const CampaignGrid& grid,
                             const CampaignOptions& options,
                             std::size_t shard_index,
                             std::size_t shard_count) {
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument(
        "run_campaign_shard: shard index " + std::to_string(shard_index) +
        " out of range for " + std::to_string(shard_count) + " shards");
  }
  const AdmittedExpansion admitted = admit_cells(grid, options);
  const std::size_t total = admitted.cells.size() * grid.seeds;
  // [i·S/N, (i+1)·S/N): the standard exact tiling — every scenario lands in
  // exactly one shard, sizes differ by at most one scenario.
  const std::size_t begin = shard_index * total / shard_count;
  const std::size_t end = (shard_index + 1) * total / shard_count;

  ShardFile shard;
  shard.fingerprint = grid_fingerprint(grid, options);
  shard.scenario_total = total;
  shard.range_begin = begin;
  shard.range_end = begin;  // advances with the watermark
  shard.max_failures_per_cell = options.max_failures_per_cell;
  shard.max_recorded_failures = options.max_recorded_failures;
  shard.cells_skipped = admitted.cells_skipped;
  shard.scenarios_skipped = admitted.scenarios_skipped;
  shard.skipped_cell_samples = admitted.skipped_cell_samples;

  std::size_t watermark = begin;
  const bool durable = !options.checkpoint_path.empty();
  if (durable) {
    // Resume: an existing checkpoint must be OUR checkpoint — same grid and
    // options (fingerprint), same shard slice — or resuming would silently
    // fold someone else's scenarios into this sweep.
    if (const std::optional<std::string> bytes =
            read_binary_file(options.checkpoint_path)) {
      ShardFile saved = decode_shard(*bytes, options.checkpoint_path);
      if (saved.fingerprint != shard.fingerprint) {
        throw std::runtime_error(
            "shard: checkpoint '" + options.checkpoint_path +
            "' belongs to a different grid/options (fingerprint mismatch); "
            "delete it or point the resume at the original sweep");
      }
      if (saved.scenario_total != total || saved.range_begin != begin ||
          saved.range_end > end) {
        throw std::runtime_error(
            "shard: checkpoint '" + options.checkpoint_path + "' covers [" +
            std::to_string(saved.range_begin) + ", " +
            std::to_string(saved.range_end) +
            ") which is not a prefix of this shard's range [" +
            std::to_string(begin) + ", " + std::to_string(end) + ")");
      }
      watermark = static_cast<std::size_t>(saved.range_end);
      shard.range_end = watermark;
      shard.aggregate = std::move(saved.aggregate);
    }
  }

  // Watermark blocks are just another partition of [begin, end): each block
  // folds through the same run_campaign_range engine and the same
  // commutative merge, so the final bytes cannot depend on where (or how
  // often) the checkpoints landed — or on a kill between two of them.
  const std::size_t block = options.checkpoint_every_scenarios == 0
                                ? (end > watermark ? end - watermark : 1)
                                : options.checkpoint_every_scenarios;
  std::size_t checkpoint_writes = 0;
  while (watermark < end) {
    const std::size_t next = std::min(end, watermark + block);
    run_campaign_range(grid, options, watermark, next, shard.aggregate);
    watermark = next;
    shard.range_end = watermark;
    if (durable) {
      write_shard_file(options.checkpoint_path, shard);
      ++checkpoint_writes;
      if (options.checkpoint_abort_after != 0 &&
          checkpoint_writes >= options.checkpoint_abort_after &&
          watermark < end) {
        throw CampaignAborted(
            "campaign aborted by checkpoint_abort_after with " +
                std::to_string(end - watermark) + " scenarios remaining " +
                "(checkpoint '" + options.checkpoint_path + "' is durable)",
            watermark - begin);
      }
    }
  }
  if (durable && checkpoint_writes == 0) {
    // Empty (or fully-resumed) shard: still leave a complete file behind —
    // the caller asked for durable output.
    write_shard_file(options.checkpoint_path, shard);
  }
  return shard;
}

CampaignResult merge_shards(std::vector<ShardFile> shards, bool allow_partial) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shards: no shard files given");
  }
  std::sort(shards.begin(), shards.end(),
            [](const ShardFile& a, const ShardFile& b) {
              return a.range_begin != b.range_begin
                         ? a.range_begin < b.range_begin
                         : a.range_end < b.range_end;
            });
  const ShardFile& first = shards.front();
  for (const ShardFile& shard : shards) {
    if (shard.fingerprint != first.fingerprint) {
      throw std::runtime_error(
          "merge_shards: fingerprint mismatch — the shards come from "
          "different grids or different result-affecting options and cannot "
          "be merged");
    }
    if (shard.scenario_total != first.scenario_total ||
        shard.max_failures_per_cell != first.max_failures_per_cell ||
        shard.max_recorded_failures != first.max_recorded_failures) {
      throw std::runtime_error(
          "merge_shards: shard headers disagree on scenario total or sample "
          "caps despite matching fingerprints (corrupt shard set)");
    }
  }
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    covered += shards[i].range_end - shards[i].range_begin;
    if (i + 1 < shards.size() &&
        shards[i].range_end > shards[i + 1].range_begin) {
      // Never merge through an overlap: the duplicated scenarios would be
      // double-counted in every sum, sketch and failure sample.
      throw std::runtime_error(
          "merge_shards: shard ranges [" +
          std::to_string(shards[i].range_begin) + ", " +
          std::to_string(shards[i].range_end) + ") and [" +
          std::to_string(shards[i + 1].range_begin) + ", " +
          std::to_string(shards[i + 1].range_end) +
          ") overlap — the same scenarios were submitted twice");
    }
  }
  if (!allow_partial && covered != first.scenario_total) {
    throw std::runtime_error(
        "merge_shards: shards cover " + std::to_string(covered) + " of " +
        std::to_string(first.scenario_total) +
        " scenarios (gap or missing shard); pass allow_partial to merge a "
        "partial sweep anyway");
  }

  CampaignAccumulator merged;
  for (ShardFile& shard : shards) {
    // Ascending range order (the sort above): the folds are commutative so
    // any order would do, but a deterministic one keeps even hypothetical
    // order-sensitive future fields reproducible.
    merge_accumulators(merged, std::move(shard.aggregate),
                       static_cast<std::size_t>(first.max_failures_per_cell),
                       static_cast<std::size_t>(first.max_recorded_failures));
  }

  CampaignResult result;
  result.streamed = true;
  result.scenario_count = static_cast<std::size_t>(covered);
  result.cells_skipped = static_cast<std::size_t>(first.cells_skipped);
  result.scenarios_skipped = static_cast<std::size_t>(first.scenarios_skipped);
  result.skipped_cell_samples = shards.front().skipped_cell_samples;
  finalize_streaming_result(result, std::move(merged));
  return result;
}

}  // namespace udring::exp
