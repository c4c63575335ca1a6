// udring/viz/ascii_ring.h
//
// ASCII rendering of ring configurations for the example binaries and for
// human-readable failure dumps in tests. Renders a snapshot as a linearized
// ring:
//
//   node   0    1    2    3   ...
//   token  ●    ●    ·    ●
//   agents A0>  ·    A2s  A1h
//
// with per-agent glyphs: '>' in transit toward the node, 's' staying,
// 'w' waiting, 'z' suspended, 'h' halted.

#pragma once

#include <iosfwd>
#include <string>

#include "sim/execution_state.h"

namespace udring::viz {

/// Multi-line rendering of the snapshot. `columns` caps nodes per row.
[[nodiscard]] std::string render(const sim::Snapshot& snapshot,
                                 std::size_t columns = 24);

/// Convenience: snapshot + render.
[[nodiscard]] std::string render(const sim::ExecutionState& simulator,
                                 std::size_t columns = 24);

/// One-line gap summary, e.g. "gaps: 3 3 3 4 (⌊n/k⌋=3, ⌈n/k⌉=4)".
[[nodiscard]] std::string gap_summary(const sim::ExecutionState& simulator);

}  // namespace udring::viz
