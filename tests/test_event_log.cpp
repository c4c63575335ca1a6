// Tests for sim/event_log.h: recording, filtering, formatting, and the
// trace's consistency with the metrics.

#include "sim/event_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "sim/execution_state.h"
#include "sim/scheduler.h"
#include "support/test_agents.h"

namespace udring::sim {
namespace {

using test::MessengerAgent;
using test::SuspenderAgent;
using test::WalkerAgent;

TEST(EventLog, DisabledByDefaultRecordsNothing) {
  EventLog log;
  log.record({1, EventKind::Arrive, 0, 0, 1, 0});
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, EnabledRecordsInOrder) {
  EventLog log;
  log.set_enabled(true);
  log.record({1, EventKind::Arrive, 0, 3, 1, 0});
  log.record({2, EventKind::Depart, 0, 3, 1, 0});
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].kind, EventKind::Arrive);
  EXPECT_EQ(log.events()[1].kind, EventKind::Depart);
  log.clear();
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, FiltersByKindAndAgent) {
  EventLog log;
  log.set_enabled(true);
  log.record({1, EventKind::Arrive, 0, 0, 1, 0});
  log.record({2, EventKind::Arrive, 1, 4, 1, 0});
  log.record({3, EventKind::TokenDrop, 0, 0, 1, 0});
  EXPECT_EQ(log.of_kind(EventKind::Arrive).size(), 2u);
  EXPECT_EQ(log.of_kind(EventKind::Halt).size(), 0u);
  EXPECT_EQ(log.of_agent(0).size(), 2u);
  EXPECT_EQ(log.of_agent(1).size(), 1u);
}

TEST(EventLog, KindNamesAreDistinct) {
  std::set<std::string_view> names;
  for (const EventKind kind :
       {EventKind::Arrive, EventKind::Depart, EventKind::StayPut,
        EventKind::EnterWait, EventKind::EnterSuspend, EventKind::Halt,
        EventKind::TokenDrop, EventKind::Broadcast, EventKind::Wake}) {
    names.insert(to_string(kind));
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(EventLog, StreamFormatIsReadable) {
  std::ostringstream out;
  out << Event{7, EventKind::Broadcast, 2, 5, 11, 3};
  const std::string text = out.str();
  EXPECT_NE(text.find("#7"), std::string::npos);
  EXPECT_NE(text.find("agent 2"), std::string::npos);
  EXPECT_NE(text.find("broadcast"), std::string::npos);
  EXPECT_NE(text.find("@node 5"), std::string::npos);
  EXPECT_NE(text.find("(3)"), std::string::npos) << "receiver count shown";
}

TEST(EventLog, TraceIsConsistentWithMetrics) {
  SimOptions options;
  options.record_events = true;
  const Instance instance(
      10, {0, 5}, test::every<WalkerAgent>(7, true), options);
  ExecutionState sim(instance);
  test::run_round_robin(sim);

  // Departures per agent == recorded moves; arrivals == departures + the
  // initial buffer arrival; tokens == k; halts == k.
  for (AgentId id = 0; id < 2; ++id) {
    std::size_t departs = 0, arrives = 0;
    for (const Event& event : sim.log().of_agent(id)) {
      if (event.kind == EventKind::Depart) ++departs;
      if (event.kind == EventKind::Arrive) ++arrives;
    }
    EXPECT_EQ(departs, sim.metrics().agent(id).moves);
    EXPECT_EQ(arrives, departs + 1);
  }
  EXPECT_EQ(sim.log().of_kind(EventKind::TokenDrop).size(), 2u);
  EXPECT_EQ(sim.log().of_kind(EventKind::Halt).size(), 2u);
}

TEST(EventLog, BroadcastAndWakeAppearInCausalOrder) {
  SimOptions options;
  options.record_events = true;
  const Instance instance(
      6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<SuspenderAgent>();
        return std::make_unique<MessengerAgent>(3, "hi");
      }, options);
  ExecutionState sim(instance);
  test::run_round_robin(sim);

  const auto broadcasts = sim.log().of_kind(EventKind::Broadcast);
  const auto wakes = sim.log().of_kind(EventKind::Wake);
  ASSERT_EQ(broadcasts.size(), 1u);
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_LE(broadcasts[0].action_index, wakes[0].action_index);
  EXPECT_EQ(wakes[0].agent, 0u);
  EXPECT_EQ(wakes[0].detail, 1u) << "sender id recorded";
}

TEST(EventLogDigest, SensitiveToEveryFieldAndOrder) {
  // The digest is the record/replay equality check: identical logs agree,
  // and any reordering or single-field change must be visible.
  EventLog a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  const Event first{1, EventKind::Arrive, 0, 3, 1, 0};
  const Event second{2, EventKind::TokenDrop, 1, 5, 2, 0};
  a.record(first);
  a.record(second);
  b.record(first);
  b.record(second);
  EXPECT_EQ(a.digest(), b.digest());

  EventLog swapped;
  swapped.set_enabled(true);
  swapped.record(second);
  swapped.record(first);
  EXPECT_NE(a.digest(), swapped.digest());

  EventLog tweaked;
  tweaked.set_enabled(true);
  tweaked.record(first);
  Event changed = second;
  changed.causal_ts += 1;
  tweaked.record(changed);
  EXPECT_NE(a.digest(), tweaked.digest());

  EXPECT_NE(EventLog{}.digest(), a.digest());
  EXPECT_EQ(EventLog{}.digest(), EventLog{}.digest());
}

}  // namespace
}  // namespace udring::sim
