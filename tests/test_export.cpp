// Tests for sim/export.h: the JSON writer must produce well-formed, complete
// output that round-trips the observable state.

#include "sim/export.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/scheduler.h"
#include "support/test_agents.h"

namespace udring::sim {
namespace {

using test::SuspenderAgent;
using test::WalkerAgent;

// A tiny structural validator: balanced braces/brackets outside strings,
// no trailing commas before closers.
void expect_well_formed(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  char previous = '\0';
  for (const char c : json) {
    if (in_string) {
      if (c == '"' && previous != '\\') in_string = false;
    } else {
      if (c == '"') in_string = true;
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        ASSERT_NE(previous, ',') << "trailing comma in: " << json;
        --depth;
      }
      ASSERT_GE(depth, 0);
    }
    previous = c;
  }
  EXPECT_EQ(depth, 0) << json;
  EXPECT_FALSE(in_string);
}

/// A walker that drops its token and halts 4 nodes on, beside a suspender.
Instance walker_and_suspender() {
  return Instance(8, {0, 4}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<WalkerAgent>(4, true);
    return std::make_unique<SuspenderAgent>();
  });
}

TEST(Export, SnapshotJsonIsWellFormedAndComplete) {
  const Instance instance = walker_and_suspender();
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  const std::string json = to_json(sim.snapshot());
  expect_well_formed(json);
  EXPECT_NE(json.find("\"node_count\":8"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"halted\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"suspended\""), std::string::npos);
  EXPECT_NE(json.find("\"tokens\":[1,0,0,0,0,0,0,0]"), std::string::npos);
}

TEST(Export, MetricsJsonCarriesTotals) {
  const Instance instance = walker_and_suspender();
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  const std::string json = to_json(sim.metrics());
  expect_well_formed(json);
  EXPECT_NE(json.find("\"total_moves\":4"), std::string::npos);
  EXPECT_NE(json.find("\"agents\":[{"), std::string::npos);
}

TEST(Export, SimulatorJsonCombinesEverything) {
  const Instance instance = walker_and_suspender();
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  const std::string json = to_json(sim);
  expect_well_formed(json);
  EXPECT_NE(json.find("\"quiescent\":true"), std::string::npos);
  EXPECT_NE(json.find("\"all_halted\":false"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot\":{"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
}

TEST(Export, EmptyPhasesAndQueuesSerialize) {
  const Instance instance(3, {1}, test::every<WalkerAgent>(0));
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  const std::string json = to_json(sim);
  expect_well_formed(json);
  EXPECT_NE(json.find("\"queues\":[[],[],[]]"), std::string::npos);
}

}  // namespace
}  // namespace udring::sim
