// Tests for viz/ascii_ring.h: the renderer used by examples and failure
// dumps must show tokens, agents and statuses at the right nodes.

#include "viz/ascii_ring.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/scheduler.h"
#include "support/test_agents.h"

namespace udring::viz {
namespace {

using test::SuspenderAgent;
using test::WalkerAgent;

TEST(AsciiRing, ShowsTokensAndHaltedAgents) {
  const sim::Instance instance(6, {1, 4}, test::every<WalkerAgent>(2, true));
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  const std::string art = render(simulator);
  // Tokens remain at homes 1 and 4; agents halted at 3 and 0.
  EXPECT_NE(art.find("A0h"), std::string::npos);
  EXPECT_NE(art.find("A1h"), std::string::npos);
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find("node"), std::string::npos);
}

TEST(AsciiRing, ShowsSuspendedGlyph) {
  const sim::Instance instance(4, {0}, test::every<SuspenderAgent>());
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  EXPECT_NE(render(simulator).find("A0z"), std::string::npos);
}

TEST(AsciiRing, WrapsLongRingsIntoRows) {
  const sim::Instance instance(30, {0}, test::every<WalkerAgent>(0));
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  const std::string art = render(simulator, 10);
  // Three row groups → "node" appears three times.
  std::size_t count = 0;
  for (std::size_t pos = art.find("node"); pos != std::string::npos;
       pos = art.find("node", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(GapSummary, ListsGapsAndBounds) {
  const sim::Instance instance(8, {0, 4}, test::every<WalkerAgent>(0));
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  const std::string summary = gap_summary(simulator);
  EXPECT_NE(summary.find("gaps: 4 4"), std::string::npos) << summary;
  EXPECT_NE(summary.find("floor=4"), std::string::npos) << summary;
}

}  // namespace
}  // namespace udring::viz
