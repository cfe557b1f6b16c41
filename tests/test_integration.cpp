// System-level integration tests: dynamics under churn, node failures,
// message loss, geo-splitting end to end, soundness under load, and the
// delta-report extension.

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/testbed.hpp"
#include "trace/replayer.hpp"

namespace focus {
namespace {

using core::Query;

TEST(Integration, QueriesStaySoundUnderContinuousChurn) {
  harness::TestbedConfig config;
  config.num_nodes = 48;
  config.seed = 41;
  config.agent.dynamics.volatility = 0.05;  // brisk value movement
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  Rng rng(5);
  std::size_t non_empty = 0;
  for (int round = 0; round < 15; ++round) {
    bed.run_for(2 * kSecond);
    Query q = harness::make_placement_query(rng, /*limit=*/0);
    auto result = bed.query_and_wait(q);
    ASSERT_TRUE(result.ok());
    if (!result.value().entries.empty()) ++non_empty;
    // Soundness bound: every returned node matched at *some* instant close
    // to the response (values drift while the query is in flight, so check
    // against a widened envelope: each term bound relaxed by one poll step).
    for (const auto& entry : result.value().entries) {
      const auto& state =
          bed.agent(entry.node.value - harness::kAgentBase).resources().state();
      for (const auto& term : q.terms) {
        const auto* schema = config.service.schema.find(term.attr);
        ASSERT_NE(schema, nullptr);
        const double slack =
            3 * config.agent.dynamics.volatility *
            (schema->max_value - schema->min_value);
        const double v = *state.dynamic_value(term.attr);
        EXPECT_GE(v, term.lower - slack) << term.attr;
        EXPECT_LE(v, term.upper + slack) << term.attr;
      }
    }
  }
  EXPECT_GT(non_empty, 10u);  // the fleet is big enough that most queries hit
}

TEST(Integration, ChurnMovesNodesBetweenGroups) {
  harness::TestbedConfig config;
  config.num_nodes = 32;
  config.seed = 42;
  config.agent.dynamics.volatility = 0.05;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  bed.run_for(60 * kSecond);

  std::size_t moves = 0;
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    moves += bed.agent(i).stats().group_moves;
  }
  EXPECT_GT(moves, 10u);

  // Group views remain coherent: every agent's membership matches its value.
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    for (const auto& [attr, membership] : bed.agent(i).p2p().memberships()) {
      const double v = *bed.agent(i).resources().state().dynamic_value(attr);
      // Allow one in-flight move per attribute.
      if (!membership.range.contains(v)) {
        EXPECT_GT(bed.agent(i).stats().group_moves, 0u);
      }
    }
  }
}

TEST(Integration, NodeCrashEventuallyDisappearsFromResults) {
  harness::TestbedConfig config;
  config.num_nodes = 24;
  config.seed = 43;
  config.agent.dynamics.frozen = true;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  const NodeId victim = bed.agent(5).node();
  bed.transport().set_node_down(victim, true);
  // Failure detection (suspicion timeout) + next reports must purge it.
  bed.run_for(30 * kSecond);

  Query q;
  q.where_at_least("ram_mb", 0);
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().contains(victim));
  EXPECT_EQ(result.value().entries.size(), 23u);
}

TEST(Integration, ToleratesModerateMessageLoss) {
  harness::TestbedConfig config;
  config.num_nodes = 24;
  config.seed = 44;
  config.agent.dynamics.frozen = true;
  config.loss_rate = 0.02;  // 2% datagram loss across the WAN
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle(60 * kSecond));

  Query q;
  q.where_at_least("ram_mb", 0);
  std::size_t total = 0;
  for (int i = 0; i < 5; ++i) {
    auto result = bed.query_and_wait(q);
    ASSERT_TRUE(result.ok());
    total += result.value().entries.size();
    bed.run_for(1 * kSecond);
  }
  // Individual responses (or a whole group's query) may drop; the directed
  // pull still returns the large majority of matches and never errors.
  EXPECT_GT(total, 5 * 24 * 3 / 4);
}

TEST(Integration, GeoSplitKeepsAnswersCompleteAcrossRegions) {
  harness::TestbedConfig config;
  config.num_nodes = 40;
  config.seed = 45;
  config.agent.dynamics.frozen = true;
  config.service.geo_split_threshold = 5;  // aggressive splitting
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  bed.run_for(30 * kSecond);  // give churn-free time for splits on new joins

  Query q;
  q.where_at_least("ram_mb", 0);
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries.size(), 40u);

  // Region-scoped query returns exactly that region's nodes.
  Query scoped;
  scoped.where_at_least("ram_mb", 0).in_region(Region::Canada);
  auto regional = bed.query_and_wait(scoped);
  ASSERT_TRUE(regional.ok());
  EXPECT_EQ(regional.value().entries.size(), 10u);  // 40 nodes round-robin / 4
  for (const auto& entry : regional.value().entries) {
    EXPECT_EQ(entry.region, Region::Canada);
  }
}

TEST(Integration, DeltaReportsReduceSouthboundTraffic) {
  auto run = [](bool delta) {
    harness::TestbedConfig config;
    config.num_nodes = 32;
    config.seed = 46;
    config.agent.dynamics.frozen = true;  // no churn: deltas become no-ops
    config.service.delta_reports = delta;
    config.sync_agent_config();
    harness::Testbed bed(config);
    bed.start();
    [&] { ASSERT_TRUE(bed.settle()); }();
    bed.run_for(5 * kSecond);
    const auto before = bed.server_stats();
    bed.run_for(30 * kSecond);
    return static_cast<double>((bed.server_stats() - before).bytes_total());
  };
  const double full = run(false);
  const double delta = run(true);
  EXPECT_LT(delta, full * 0.5);
}

TEST(Integration, ServiceSurvivesStoreReplicaFailure) {
  harness::TestbedConfig config;
  config.num_nodes = 12;
  config.seed = 47;
  config.agent.dynamics.frozen = true;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  bed.store().set_replica_down(0, true);
  Query q;
  q.where_at_least("ram_mb", 4096);
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());

  // Static queries also survive (quorum still available).
  Query s;
  s.where_static("hypervisor", "qemu");  // registered by nobody -> empty, ok
  auto st = bed.query_and_wait(s);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().source, core::ResponseSource::Store);

  // With every replica down the store scan fails: the app sees Unavailable,
  // not an empty "no node matches" answer.
  for (int i = 0; i < bed.store().config().replicas; ++i) {
    bed.store().set_replica_down(i, true);
  }
  auto outage = bed.query_and_wait(s);
  ASSERT_FALSE(outage.ok());
  EXPECT_EQ(outage.error().code, Errc::Unavailable);
}

TEST(Integration, TraceReplayAgainstFocusCompletes) {
  harness::TestbedConfig config;
  config.num_nodes = 64;
  config.seed = 48;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  trace::TraceConfig tc;
  tc.events = 300;
  tc.span = 5LL * 24 * kHour;
  tc.seed = 6;
  const auto trace = generate_chameleon_trace(tc);

  harness::FocusFinder finder(bed);
  trace::ReplayConfig replay;
  replay.acceleration = 15000.0;  // the paper's acceleration factor
  replay.drain = 10 * kSecond;
  const auto result = trace::replay_trace(bed.simulator(), trace, finder, replay);
  EXPECT_EQ(result.issued, 300u);
  EXPECT_EQ(result.completed, 300u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_LT(result.latency_ms.percentile(99), 2000.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto fingerprint = [] {
    harness::TestbedConfig config;
    config.num_nodes = 16;
    config.seed = 49;
    harness::Testbed bed(config);
    bed.start();
    [&] { ASSERT_TRUE(bed.settle()); }();
    Query q;
    q.where_at_least("ram_mb", 4096);
    auto result = bed.query_and_wait(q);
    [&] { ASSERT_TRUE(result.ok()); }();
    std::uint64_t fp = result.value().entries.size() * 1000003;
    for (const auto& entry : result.value().entries) fp ^= entry.node.value * 2654435761u;
    fp ^= static_cast<std::uint64_t>(result.value().latency());
    fp ^= bed.simulator().executed() << 17;
    return fp;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

}  // namespace
}  // namespace focus
