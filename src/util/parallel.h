// udring/util/parallel.h
//
// The repo's one sharding primitive. Campaigns, the schedule fuzzer and the
// batch drivers all parallelize the same way: N independent index-owned
// tasks, atomic work stealing, order-sensitive folding *after* the join —
// which is what makes every sharded artifact byte-identical at any worker
// count. Living in util/ (below core/), it is usable by every layer.

#pragma once

#include <cstddef>
#include <functional>

namespace udring {

/// Resolves a worker-count request against a task count: 0 means hardware
/// concurrency; the result is clamped to [1, max(count, 1)]. This is the
/// sizing rule every pooled driver uses to build its per-worker state
/// *before* launching (the pool must exist before the first task runs).
[[nodiscard]] std::size_t resolve_workers(std::size_t count,
                                          std::size_t workers) noexcept;

/// Calls fn(worker, i) for every i in [0, count) across resolve_workers()
/// threads with atomic work stealing. `worker` identifies the executing
/// thread (0 ≤ worker < returned count) and is stable for that thread's
/// whole pass — it is the index into per-worker pooled state (ExecutionState
/// arenas, scheduler caches). fn must be safe to call concurrently on
/// distinct indices and should write only to index-owned or worker-owned
/// state; determinism then comes for free by folding results in index order
/// after this returns. If fn throws, the pool stops early and the first
/// exception is rethrown on the calling thread after the join. Returns the
/// worker count actually used.
std::size_t parallel_for_workers(
    std::size_t count, std::size_t workers,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// Worker-oblivious form: calls fn(i) for every i in [0, count). Same
/// contract as parallel_for_workers otherwise.
std::size_t parallel_for_index(std::size_t count, std::size_t workers,
                               const std::function<void(std::size_t)>& fn);

}  // namespace udring
