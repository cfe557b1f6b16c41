// Tests for materialized views (the §XII future-work extension): standing
// queries seeded through the directed-pull path and kept current by
// node-side event triggers.

#include <gtest/gtest.h>

#include "harness/testbed.hpp"

namespace focus::core {
namespace {

struct ViewFixture : ::testing::Test {
  ViewFixture() {
    harness::TestbedConfig config;
    config.num_nodes = 16;
    config.seed = 61;
    config.agent.dynamics.frozen = true;
    bed = std::make_unique<harness::Testbed>(config);
    bed->start();
    [&] { ASSERT_TRUE(bed->settle()); }();
  }

  /// Subscribe and run until the view is seeded.
  std::uint64_t subscribe(Query query) {
    std::uint64_t view_id = 0;
    bed->client().subscribe_view(
        std::move(query),
        [&](std::uint64_t id, Result<std::vector<ResultEntry>> seeded) {
          ASSERT_TRUE(seeded.ok());
          view_id = id;
          initial = std::move(seeded).take();
        },
        [&](const ViewUpdate& update) { updates.push_back(update); });
    const SimTime deadline = bed->now() + 10 * kSecond;
    while (view_id == 0 && bed->now() < deadline) {
      bed->run_for(10 * kMillisecond);
    }
    return view_id;
  }

  std::set<NodeId> expected_matches(const Query& q) const {
    std::set<NodeId> out;
    for (std::size_t i = 0; i < bed->num_agents(); ++i) {
      if (q.matches(bed->agent(i).resources().state())) {
        out.insert(bed->agent(i).node());
      }
    }
    return out;
  }

  std::unique_ptr<harness::Testbed> bed;
  std::vector<ResultEntry> initial;
  std::vector<ViewUpdate> updates;
};

TEST_F(ViewFixture, SeededWithCurrentMatches) {
  Query q;
  q.where_at_least("ram_mb", 8192);
  const std::uint64_t id = subscribe(q);
  ASSERT_NE(id, 0u);

  std::set<NodeId> seeded;
  for (const auto& entry : initial) seeded.insert(entry.node);
  EXPECT_EQ(seeded, expected_matches(q));
  EXPECT_EQ(bed->service().views().view_count(), 1u);
}

TEST_F(ViewFixture, StateChangeTriggersEnterAndLeave) {
  Query q;
  q.where_at_least("ram_mb", 8192);
  const std::uint64_t id = subscribe(q);
  ASSERT_NE(id, 0u);

  // Pick a node currently below the threshold; raise it above.
  agent::NodeManager* riser = nullptr;
  for (std::size_t i = 0; i < bed->num_agents(); ++i) {
    if (*bed->agent(i).resources().state().dynamic_value("ram_mb") < 8192) {
      riser = &bed->agent(i);
      break;
    }
  }
  ASSERT_NE(riser, nullptr);
  riser->resources().set_value("ram_mb", 9000);
  bed->run_for(3 * kSecond);  // next poll fires the event trigger

  ASSERT_EQ(updates.size(), 1u);
  EXPECT_TRUE(updates[0].entered);
  EXPECT_EQ(updates[0].entry.node, riser->node());
  EXPECT_EQ(updates[0].view_id, id);

  // Now drop it back out.
  riser->resources().set_value("ram_mb", 1000);
  bed->run_for(3 * kSecond);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_FALSE(updates[1].entered);
  EXPECT_EQ(updates[1].entry.node, riser->node());

  // The service-side member set tracks both transitions.
  const auto members = bed->service().views().members_of(id);
  for (const auto& entry : members) EXPECT_NE(entry.node, riser->node());
}

TEST_F(ViewFixture, NoSpuriousUpdatesWithoutChanges) {
  Query q;
  q.where_at_least("ram_mb", 8192);
  ASSERT_NE(subscribe(q), 0u);
  bed->run_for(20 * kSecond);  // frozen values: nothing may fire
  EXPECT_TRUE(updates.empty());
}

TEST_F(ViewFixture, UnsubscribeStopsUpdates) {
  Query q;
  q.where_at_least("ram_mb", 8192);
  const std::uint64_t id = subscribe(q);
  ASSERT_NE(id, 0u);

  bed->client().unsubscribe_view(id);
  bed->run_for(2 * kSecond);
  EXPECT_EQ(bed->service().views().view_count(), 0u);

  bed->agent(0).resources().set_value("ram_mb", 16000);
  bed->run_for(3 * kSecond);
  EXPECT_TRUE(updates.empty());
  // Node-side predicates were withdrawn: no events are even sent.
  EXPECT_EQ(bed->agent(0).stats().view_events_sent, 0u);
}

TEST_F(ViewFixture, LateJoinerGetsPredicatesInstalled) {
  Query q;
  q.where_at_least("ram_mb", 8192);
  ASSERT_NE(subscribe(q), 0u);
  const std::size_t before = initial.size();

  // A brand-new node registers after the view exists, already matching.
  auto& simulator = bed->simulator();
  auto& transport = bed->transport();
  const NodeId id{5000};
  bed->topology().place(id, Region::Ohio);
  agent::AgentConfig agent_config = bed->config().agent;
  agent::NodeManager late(simulator, transport, id, Region::Ohio,
                          bed->service().south_addr(),
                          bed->config().service.schema, agent_config, Rng(5));
  late.resources().set_value("ram_mb", 12000);
  late.start();
  bed->run_for(5 * kSecond);

  ASSERT_GE(updates.size(), 1u);
  bool saw_late_joiner = false;
  for (const auto& update : updates) {
    if (update.entry.node == id && update.entered) saw_late_joiner = true;
  }
  EXPECT_TRUE(saw_late_joiner);
  EXPECT_EQ(bed->service().views().members_of(1).size(), before + 1);
  late.stop();
}

TEST_F(ViewFixture, MultipleViewsIndependent) {
  Query big_ram;
  big_ram.where_at_least("ram_mb", 8192);
  Query idle;
  idle.where_at_most("cpu_usage", 25);

  std::uint64_t ram_view = 0, idle_view = 0;
  std::vector<ViewUpdate> ram_updates, idle_updates;
  bed->client().subscribe_view(
      big_ram, [&](std::uint64_t id, auto) { ram_view = id; },
      [&](const ViewUpdate& u) { ram_updates.push_back(u); });
  bed->client().subscribe_view(
      idle, [&](std::uint64_t id, auto) { idle_view = id; },
      [&](const ViewUpdate& u) { idle_updates.push_back(u); });
  bed->run_for(5 * kSecond);
  ASSERT_NE(ram_view, 0u);
  ASSERT_NE(idle_view, 0u);
  EXPECT_NE(ram_view, idle_view);

  // A cpu change affects only the idle view.
  auto& agent = bed->agent(0);
  agent.resources().set_value(
      "cpu_usage",
      *agent.resources().state().dynamic_value("cpu_usage") <= 25 ? 90.0 : 10.0);
  bed->run_for(3 * kSecond);
  EXPECT_TRUE(ram_updates.empty());
  EXPECT_EQ(idle_updates.size(), 1u);
}

TEST_F(ViewFixture, MissingUpdateCallbackIsSkipped) {
  // on_update is optional like on_ready: a subscriber that only wants the
  // seed must not crash at the first membership change.
  Query q;
  q.where_at_least("ram_mb", 8192);
  std::uint64_t view_id = 0;
  bed->client().subscribe_view(
      q, [&](std::uint64_t id, auto) { view_id = id; }, {});
  bed->run_for(5 * kSecond);
  ASSERT_NE(view_id, 0u);

  agent::NodeManager* riser = nullptr;
  for (std::size_t i = 0; i < bed->num_agents(); ++i) {
    if (*bed->agent(i).resources().state().dynamic_value("ram_mb") < 8192) {
      riser = &bed->agent(i);
      break;
    }
  }
  ASSERT_NE(riser, nullptr);
  riser->resources().set_value("ram_mb", 9000);
  bed->run_for(3 * kSecond);
  EXPECT_EQ(bed->client().stats().view_updates, 1u);
}

TEST(Views, SeedDuringStoreOutageWithdrawsTheView) {
  // A static-only view is seeded by a store scan. With every replica down
  // the scan fails; the view must not be acked ready with whatever node
  // events raced the seed — the subscriber sees Unavailable and the
  // predicate is withdrawn.
  harness::TestbedConfig config;
  config.num_nodes = 12;
  config.seed = 47;
  config.agent.dynamics.frozen = true;
  harness::Testbed bed(config);
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    bed.agent(i).resources().set_static({{"arch", i % 3 == 0 ? "arm" : "x86"}});
  }
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_static("arch", "x86");
  struct Ready {
    bool fired = false;
    std::uint64_t view_id = 0;
    Result<std::vector<ResultEntry>> initial = std::vector<ResultEntry>{};
  };
  const auto subscribe = [&](Ready& ready, std::vector<ViewUpdate>& updates) {
    bed.client().subscribe_view(
        q,
        [&ready](std::uint64_t id, Result<std::vector<ResultEntry>> seeded) {
          ready.fired = true;
          ready.view_id = id;
          ready.initial = std::move(seeded);
        },
        [&updates](const ViewUpdate& update) { updates.push_back(update); });
    bed.run_for(5 * kSecond);
  };

  // Store up: the seed finds the 8 x86 nodes.
  Ready healthy;
  std::vector<ViewUpdate> healthy_updates;
  subscribe(healthy, healthy_updates);
  ASSERT_TRUE(healthy.fired);
  ASSERT_TRUE(healthy.initial.ok());
  EXPECT_EQ(healthy.initial.value().size(), 8u);

  for (int i = 0; i < bed.store().config().replicas; ++i) {
    bed.store().set_replica_down(i, true);
  }
  Ready outage;
  std::vector<ViewUpdate> outage_updates;
  subscribe(outage, outage_updates);
  ASSERT_TRUE(outage.fired);
  ASSERT_FALSE(outage.initial.ok());
  EXPECT_EQ(outage.initial.error().code, Errc::Unavailable);
  EXPECT_TRUE(outage_updates.empty());
  const ViewManager& views = bed.service().views();
  EXPECT_EQ(views.view_count(), 1u);  // only the healthy view survives
  EXPECT_TRUE(views.members_of(outage.view_id).empty());
}

TEST_F(ViewFixture, EventTriggerCostScalesWithChurnNotReads) {
  // The extension's selling point: once materialized, reading the view is
  // free and keeping it fresh costs only transition events.
  Query q;
  q.where_at_least("ram_mb", 8192);
  ASSERT_NE(subscribe(q), 0u);

  const auto before = bed->server_stats();
  std::uint64_t events_before = 0;
  for (std::size_t i = 0; i < bed->num_agents(); ++i) {
    events_before += bed->agent(i).stats().view_events_sent;
  }
  bed->run_for(30 * kSecond);  // frozen fleet: zero churn
  const auto delta = bed->server_stats() - before;
  // Steady-state server traffic is just reports/registrations upkeep — far
  // below what 30 s of repeated polling queries would cost.
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < bed->num_agents(); ++i) {
    events += bed->agent(i).stats().view_events_sent;
  }
  EXPECT_EQ(events, events_before);  // no churn => no event triggers
  EXPECT_LT(static_cast<double>(delta.bytes_total()) / 30.0 / 1024.0, 10.0);
}

}  // namespace
}  // namespace focus::core
