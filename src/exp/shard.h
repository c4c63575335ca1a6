// udring/exp/shard.h
//
// Durable sharded campaigns: a versioned binary shard-file format plus the
// checkpoint/resume and multi-process primitives built on it.
//
// The streaming campaign path made per-cell accumulation exact and
// commutative precisely so partial CellAccumulators merge byte-identically
// — this header takes that property across process (and machine)
// boundaries. A ShardFile is one serialized CampaignAccumulator plus the
// provenance needed to merge it safely:
//
//   - a grid FINGERPRINT: a digest of the grid's full cell expansion, the
//     seed/repetition plan, the sim options, and every CampaignOption that
//     affects results (sample caps, memory budget). Two shard files merge
//     only if their fingerprints match — merging sweeps of different grids
//     (or the same grid under different caps) would silently mix
//     incomparable numbers.
//   - the covered SCENARIO RANGE [range_begin, range_end) of the admitted
//     expansion, so the merger can reject overlapping ranges (a
//     double-submitted shard would double-count every run and failure
//     sample) and detect gaps.
//   - skip bookkeeping (cells dropped by a binding memory budget), which is
//     a function of (grid, options) and therefore identical across shards.
//
// Determinism contract, end to end: run_campaign_streaming(grid, o) ==
// merge of run_campaign_shard over ANY contiguous partition of the admitted
// expansion == resume-from-any-checkpoint — byte for byte, pinned against
// CampaignResult::digest(). The argument is the same one the in-process
// engine already makes: every fold (integer sums, quantile-sketch bucket
// adds, wrapping scenario hash, lowest-index sample selection) is
// commutative and associative, so shard/checkpoint boundaries are just
// another partition of the scenario set. merge_shards still merges in
// ascending range order (= shard index) so even a hypothetical
// order-sensitive future field would stay deterministic.
//
// All integers little-endian fixed-width (util/binio.h); files written
// atomically (write-temp + rename) so a reader never observes a torn file.
//
// UDS3 layout: u32 magic "UDS3", u32 version 3, the header and payload
// fields in ShardFile member order, then a u64 CHECKSUM — a splitmix fold
// (util/rng.h fold64) over the total length and every preceding byte, eight
// little-endian bytes per fold. decode_shard verifies it before parsing a
// single field, so a flipped bit or a torn tail is a named error, never a
// silently different campaign. A UDS2 file fails with "unsupported shard
// version 2".

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign.h"

namespace udring::exp {

/// One serialized partial campaign: header + provenance + aggregate.
struct ShardFile {
  /// "UDS3" little-endian; bumped in lockstep with kVersion on layout change.
  /// v2: cell keys carry the fault-axis plan (sim::FaultPlan).
  /// v3: a trailing checksum; older versions are rejected by name.
  static constexpr std::uint32_t kMagic = 0x33534455u;
  static constexpr std::uint32_t kVersion = 3;

  /// Digest of grid expansion + result-affecting options (grid_fingerprint).
  std::uint64_t fingerprint = 0;
  /// Scenario count of the full admitted expansion this shard is a slice of.
  std::uint64_t scenario_total = 0;
  /// Covered contiguous range [range_begin, range_end) of that expansion.
  std::uint64_t range_begin = 0;
  std::uint64_t range_end = 0;
  /// The sample caps the aggregate was folded under (also inside the
  /// fingerprint; stored plainly so merge_shards can bound its own folds
  /// without re-deriving options).
  std::uint64_t max_failures_per_cell = 0;
  std::uint64_t max_recorded_failures = 0;
  /// Memory-budget skip bookkeeping — a function of (grid, options), so
  /// identical in every shard of a sweep (the fingerprint guarantees it).
  std::uint64_t cells_skipped = 0;
  std::uint64_t scenarios_skipped = 0;
  std::vector<CellKey> skipped_cell_samples;
  /// The folded scenarios of [range_begin, range_end).
  CampaignAccumulator aggregate;
};

/// Fingerprint of everything that must match for two partial folds to be
/// mergeable: the admitted cell expansion (every CellKey, in order), seeds,
/// base_seed, the sim options, the sample caps and the memory budget.
/// Deliberately excludes workers / checkpoint options — they
/// change how fast a shard runs, never what it computes.
[[nodiscard]] std::uint64_t grid_fingerprint(const CampaignGrid& grid,
                                             const CampaignOptions& options);

/// Serializes to the versioned binary layout.
[[nodiscard]] std::string encode_shard(const ShardFile& shard);

/// Parses and validates a shard image. `context` names the source (file
/// path) in error messages. Throws std::runtime_error on a bad magic,
/// unsupported version, checksum mismatch, truncation, trailing bytes, or
/// any structurally invalid field (unknown enum value, unsorted/duplicate
/// cells, inconsistent sketch state, range_begin > range_end, range beyond
/// scenario_total).
[[nodiscard]] ShardFile decode_shard(std::string_view bytes,
                                     const std::string& context = {});

/// Atomically writes `shard` to `path` (write-temp + rename, see
/// util/io.h). Throws std::runtime_error when any IO step fails — a
/// checkpoint that silently failed to persist is worse than a crash.
void write_shard_file(const std::string& path, const ShardFile& shard);

/// Reads and decodes `path`. Throws std::runtime_error when the file is
/// missing, unreadable, or fails decode_shard validation.
[[nodiscard]] ShardFile load_shard_file(const std::string& path);

/// Runs contiguous slice `shard_index` of `shard_count` equal slices of the
/// grid's admitted expansion ([i·S/N, (i+1)·S/N) — the slices tile the
/// expansion exactly) and returns the folded shard. Honors
/// options.checkpoint_path / checkpoint_every_scenarios for durable
/// per-shard progress: the checkpoint file is this shard's own ShardFile at
/// a watermark, resumed on restart after fingerprint + range validation.
/// This is the worker side of the multi-process driver: N processes running
/// shards 0..N-1 and merging produce the same bytes as one process.
[[nodiscard]] ShardFile run_campaign_shard(const CampaignGrid& grid,
                                           const CampaignOptions& options,
                                           std::size_t shard_index,
                                           std::size_t shard_count);

/// Folds shard files into the final CampaignResult (streamed form; digest/
/// cells/failure samples byte-identical to the single-process run when the
/// shards tile the expansion). Validation, all fail-loud:
///   - at least one shard; all fingerprints, totals and caps identical
///   - ranges must not overlap — an overlapping pair (double-submitted
///     shard) would double-count runs and failure samples, so it is an
///     error naming both ranges, never a quiet merge
///   - unless `allow_partial`, the ranges must tile [0, scenario_total)
///     exactly (no gaps); with it, gaps merge and scenario_count reflects
///     only the covered scenarios
/// Cell sums merge with saturation checks (std::overflow_error on wrap).
/// Shards merge in ascending range order regardless of argument order.
[[nodiscard]] CampaignResult merge_shards(std::vector<ShardFile> shards,
                                          bool allow_partial = false);

}  // namespace udring::exp
