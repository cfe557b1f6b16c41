// The correctness layer introduced with the static-analysis pass:
// FOCUS_CHECK semantics (Release-active death tests), the structural
// auditor over live service state, the periodic testbed audit hook, and
// the determinism guarantee (same seed => identical event digests).

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "focus/audit.hpp"
#include "harness/testbed.hpp"
#include "sim/simulator.hpp"

namespace focus {
namespace {

// ---------------------------------------------------------------------------
// FOCUS_CHECK: active in every build type (this suite runs in the default
// Release tier-1 configuration, where `assert` would be compiled out).

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, FiresInDefaultBuild) {
  EXPECT_DEATH({ FOCUS_CHECK(1 + 1 == 3); }, "FOCUS_CHECK failed: 1 \\+ 1 == 3");
}

TEST(CheckDeathTest, StreamsContextIntoTheMessage) {
  const int shard = 7;
  EXPECT_DEATH({ FOCUS_CHECK(shard < 3) << "shard " << shard << " out of range"; },
               "shard 7 out of range");
}

TEST(CheckDeathTest, OpMacrosPrintBothOperands) {
  const int got = 3;
  const int want = 4;
  EXPECT_DEATH({ FOCUS_CHECK_EQ(got, want); }, "got == want \\(3 vs 4\\)");
  EXPECT_DEATH({ FOCUS_CHECK_LE(want, got); }, "want <= got \\(4 vs 3\\)");
}

TEST(CheckDeathTest, PassingChecksAreSilent) {
  FOCUS_CHECK(true) << "never rendered";
  FOCUS_CHECK_EQ(2, 2);
  FOCUS_CHECK_NE(2, 3);
  FOCUS_CHECK_LT(2, 3);
  FOCUS_CHECK_GE(3, 3);
  SUCCEED();
}

TEST(CheckDeathTest, SimulatorRejectsNonPositiveInterval) {
  // Satellite fix: a zero interval used to spin the virtual clock forever.
  sim::Simulator simulator;
  EXPECT_DEATH({ simulator.every(0, [] {}); }, "interval > 0");
  EXPECT_DEATH({ simulator.every(-5, [] {}); }, "interval > 0");
  EXPECT_DEATH({ simulator.schedule_after(-1, [] {}); }, "delay >= 0");
}

#ifdef NDEBUG
TEST(CheckDeathTest, DchecksCompileOutInRelease) {
  int evaluations = 0;
  auto count = [&evaluations] {
    ++evaluations;
    return false;
  };
  FOCUS_DCHECK(count()) << "never evaluated in Release";
  FOCUS_DCHECK_EQ(evaluations, 99);
  EXPECT_EQ(evaluations, 0);
}
#else
TEST(CheckDeathTest, DchecksFireInDebug) {
  EXPECT_DEATH({ FOCUS_DCHECK(false); }, "FOCUS_CHECK failed");
}
#endif

// ---------------------------------------------------------------------------
// Structural audits over live state

TEST(Audit, CleanTestbedPassesEveryInvariant) {
  harness::TestbedConfig config;
  config.num_nodes = 40;
  config.seed = 11;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  const core::AuditReport report = bed.audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Every invariant family ran: 40 nodes x 4 dynamic attrs produce dozens of
  // groups, members, and static rows.
  EXPECT_GT(report.checks_run, 100u);
}

TEST(Audit, HoldsUnderValueChurn) {
  harness::TestbedConfig config;
  config.num_nodes = 30;
  config.seed = 13;
  config.agent.dynamics.volatility = 0.05;  // aggressive bucket crossings
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  for (int round = 0; round < 10; ++round) {
    bed.run_for(5 * kSecond);
    const core::AuditReport report = bed.audit();
    ASSERT_TRUE(report.ok()) << "after " << (round + 1) << " rounds:\n"
                             << report.to_string();
  }
}

TEST(Audit, PeriodicTestbedAuditRuns) {
  harness::TestbedConfig config;
  config.num_nodes = 12;
  config.seed = 17;
  config.audit_interval = 2 * kSecond;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  bed.run_for(10 * kSecond);
  EXPECT_GE(bed.audits_run(), 5u);
}

// Regression: the testbed audit once checked only the service kernel's
// queue, so in a split world every other shard's kernel went unaudited.
// Rebuild the expected check count from its parts and require one
// audit_simulator pass per shard.
TEST(Audit, EveryShardKernelIsAudited) {
  harness::TestbedConfig config;
  config.num_nodes = 12;
  config.seed = 17;
  config.shards = 1;
  config.data_sub_shards = 2;
  config.edge_sub_shards = 2;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  const sim::ShardedSimulator& driver = *bed.sharded();
  ASSERT_EQ(driver.num_shards(), 10u);
  const core::Service& service = bed.service();
  const SimTime now = bed.simulator().now();
  std::size_t expected =
      core::audit_groups(service.dgm(), service.registrar(), service.config(),
                         now).checks_run +
      core::audit_registrar(service.registrar()).checks_run +
      core::audit_cache(service.router().cache(), now).checks_run;
  for (std::size_t s = 0; s < driver.num_shards(); ++s) {
    expected += core::audit_simulator(driver.shard(s)).checks_run;
  }
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    const agent::NodeManager& agent = bed.agent(i);
    const SimTime agent_now = bed.simulator_for(agent.node()).now();
    for (const auto& [attr, membership] : agent.p2p().memberships()) {
      expected += core::audit_gossip(*membership.agent, agent_now).checks_run;
    }
  }
  const core::AuditReport report = bed.audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.checks_run, expected);
}

TEST(Audit, GossipLayerHoldsUnderChurnAndFanoutSharesPayloads) {
  // 25 nodes with aggressive value churn: group moves keep the gossip layer
  // busy (joins, leaves, suspicion) while queries drive event fanout. The
  // periodic audit now includes audit_gossip over every live group agent.
  harness::TestbedConfig config;
  config.num_nodes = 25;
  config.seed = 19;
  config.agent.dynamics.volatility = 0.05;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  bed.transport().stats().reset();
  for (int round = 0; round < 5; ++round) {
    core::Query query;
    query.where_at_least("ram_mb", 1);  // matches broadly => group broadcast
    (void)bed.query_and_wait(query);
    bed.run_for(5 * kSecond);
    const core::AuditReport report = bed.audit();
    ASSERT_TRUE(report.ok()) << "after " << (round + 1) << " rounds:\n"
                             << report.to_string();
  }

  // The shared-fanout-payload contract, observed from traffic accounting:
  // one event burst stamps up to `fanout` envelopes around ONE payload
  // build, so builds stay O(bursts), not O(messages). One build per message
  // would make the two counters equal.
  const auto event_stats =
      bed.transport().stats().of_kind(net::MsgKind::intern("swim.event"));
  ASSERT_GT(event_stats.msgs, 8u);
  EXPECT_LE(2 * event_stats.payload_builds, event_stats.msgs)
      << event_stats.payload_builds << " payload builds for "
      << event_stats.msgs << " event messages";
}

TEST(Audit, CacheAuditFlagsFutureTimestamps) {
  core::QueryCache cache(8);
  core::Query q1;
  q1.where_at_least("ram_mb", 1024);
  cache.insert(q1.cache_hash(), q1, core::QueryResult{}, /*now=*/5 * kSecond);

  // Audited at a clock earlier than the entry's fetch time => violation.
  const core::AuditReport bad = core::audit_cache(cache, /*now=*/1 * kSecond);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.violations[0].invariant, "cache");

  const core::AuditReport good = core::audit_cache(cache, /*now=*/6 * kSecond);
  EXPECT_TRUE(good.ok()) << good.to_string();
}

TEST(Audit, SimulatorQueueIsMonotonic) {
  sim::Simulator simulator;
  simulator.schedule_after(3 * kSecond, [] {});
  simulator.schedule_after(1 * kSecond, [] {});
  EXPECT_TRUE(core::audit_simulator(simulator).ok());
  simulator.run_for(2 * kSecond);
  EXPECT_TRUE(core::audit_simulator(simulator).ok());
  simulator.run();
  EXPECT_TRUE(core::audit_simulator(simulator).ok());
}

TEST(Audit, ReportFormatsViolations) {
  core::QueryCache cache(4);
  core::Query q;
  q.where_at_least("ram_mb", 1024);
  cache.insert(q.cache_hash(), q, core::QueryResult{}, 9 * kSecond);
  const core::AuditReport report = core::audit_cache(cache, 0);
  ASSERT_FALSE(report.ok());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("[cache]"), std::string::npos) << text;
  EXPECT_NE(text.find("violation"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Determinism: the same seeded scenario must replay to the identical event
// sequence. Registered as a ctest via gtest discovery; this is the digest
// check the acceptance criteria name.

struct DigestRun {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::size_t groups = 0;
  std::size_t results = 0;
};

DigestRun run_scenario(std::uint64_t seed) {
  harness::TestbedConfig config;
  config.num_nodes = 25;
  config.seed = seed;
  config.agent.dynamics.volatility = 0.02;
  harness::Testbed bed(config);
  bed.start();
  EXPECT_TRUE(bed.settle());

  core::Query query;
  query.terms.push_back(core::QueryTerm{"ram_mb", 0, 1e9});
  query.limit = 10;
  const auto result = bed.query_and_wait(query);
  EXPECT_TRUE(result.ok());

  bed.run_for(20 * kSecond);
  DigestRun out;
  out.digest = bed.simulator().digest();
  out.executed = bed.simulator().executed();
  out.groups = bed.service().dgm().group_count();
  out.results = result.ok() ? result.value().entries.size() : 0;
  return out;
}

TEST(Determinism, SameSeedSameEventDigest) {
  const DigestRun a = run_scenario(42);
  const DigestRun b = run_scenario(42);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.results, b.results);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const DigestRun a = run_scenario(42);
  const DigestRun b = run_scenario(43);
  EXPECT_NE(a.digest, b.digest);
}

// Golden replay: a pure kernel change must survive this digest byte-for-byte
// — the event schedule is part of the repository's observable behavior, not
// an implementation detail. The pinned values were regenerated for the
// focus-lint digest-iteration fix: Dgm::transition_entries()/
// transition_nodes() now return snapshots sorted by NodeId instead of
// leaking unordered_map visit order, which reorders the query router's
// direct-pull sends and legitimately moves the digest and executed-event
// count. (Previous regeneration: the gossip send-path rework.) The digest
// also depends on the standard library's distribution implementations, so it
// is pinned for the CI toolchain (libstdc++); regenerate with
// tests/test_audit.cpp:run_scenario if the toolchain itself changes.
TEST(Determinism, ChurnScenarioMatchesGoldenDigest) {
  const DigestRun run = run_scenario(42);
  EXPECT_EQ(run.digest, 13434961171307997316ull);
  EXPECT_EQ(run.executed, 33784u);
  EXPECT_EQ(run.groups, 23u);
  EXPECT_EQ(run.results, 10u);
}

}  // namespace
}  // namespace focus
