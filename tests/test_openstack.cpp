// Tests for the OpenStack placement integration (§IX): the scheduler ->
// placement -> backend call chain, with the DB-backed and FOCUS-backed
// AllocationCandidates implementations returning consistent results.

#include <gtest/gtest.h>

#include "baselines/mq_finder.hpp"
#include "baselines/push_finder.hpp"
#include "harness/scenario.hpp"
#include "openstack/scheduler.hpp"

namespace focus::openstack {
namespace {

TEST(Placement, FlavorToRequestToQuery) {
  const Flavor large{"m1.large", 8192, 80, 4};
  const PlacementRequest request = PlacementRequest::for_flavor(large, 7);
  EXPECT_EQ(request.limit, 7);
  EXPECT_EQ(request.resources.at("ram_mb"), 8192);
  EXPECT_EQ(request.resources.at("disk_gb"), 80);
  EXPECT_EQ(request.resources.at("vcpus"), 4);

  const core::Query query = to_query(request);
  EXPECT_EQ(query.terms.size(), 3u);
  EXPECT_EQ(query.limit, 7);
  core::NodeState enough;
  enough.dynamic_values = {{"ram_mb", 9000}, {"disk_gb", 100}, {"vcpus", 8}};
  EXPECT_TRUE(query.matches(enough));
  enough.dynamic_values["disk_gb"] = 79;
  EXPECT_FALSE(query.matches(enough));
}

TEST(Placement, StandardFlavorsAvailable) {
  const auto flavors = standard_flavors();
  EXPECT_GE(flavors.size(), 4u);
  for (const auto& f : flavors) {
    EXPECT_FALSE(f.name.empty());
    EXPECT_GT(f.ram_mb, 0);
    EXPECT_GT(f.vcpus, 0);
  }
}

TEST(Scheduler, RejectsInvalidRequests) {
  harness::World world({.num_nodes = 4, .seed = 3});
  baselines::PushFinder push(world.simulator(), world.transport(),
                             world.server_node(), world.sim_nodes(),
                             baselines::BaselineConfig{}, Rng(1));
  DbAllocationCandidates backend(push);
  Scheduler scheduler(backend);

  bool called = false;
  scheduler.select_destinations(PlacementRequest{}, [&](auto r) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::InvalidArgument);
    called = true;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(scheduler.stats().errors, 1u);
}

class PlacementFixture : public ::testing::Test {
 protected:
  PlacementFixture() {
    harness::TestbedConfig config;
    config.num_nodes = 24;
    config.seed = 19;
    config.agent.dynamics.frozen = true;
    bed_ = std::make_unique<harness::Testbed>(config);
    bed_->start();
    [&] { ASSERT_TRUE(bed_->settle()); }();
  }

  Result<std::vector<Candidate>> schedule(Scheduler& scheduler,
                                          const PlacementRequest& request) {
    Result<std::vector<Candidate>> out = make_error(Errc::Timeout, "no answer");
    bool done = false;
    scheduler.select_destinations(request, [&](auto r) {
      out = std::move(r);
      done = true;
    });
    const SimTime deadline = bed_->now() + 10 * kSecond;
    while (!done && bed_->now() < deadline) {
      bed_->run_for(10 * kMillisecond);
    }
    return out;
  }

  std::unique_ptr<harness::Testbed> bed_;
};

TEST_F(PlacementFixture, FocusBackendReturnsValidCandidates) {
  FocusAllocationCandidates backend(bed_->client());
  Scheduler scheduler(backend);
  EXPECT_EQ(backend.backend(), "focus");

  const PlacementRequest request =
      PlacementRequest::for_flavor({"m1.small", 2048, 5, 1}, 10);
  auto result = schedule(scheduler, request);
  ASSERT_TRUE(result.ok()) << result.error().message;
  ASSERT_FALSE(result.value().empty());
  EXPECT_LE(result.value().size(), 10u);

  const core::Query query = to_query(request);
  for (const auto& candidate : result.value()) {
    const auto& state = bed_->agent(candidate.host.value - harness::kAgentBase)
                            .resources()
                            .state();
    EXPECT_TRUE(query.matches(state))
        << to_string(candidate.host) << " cannot host the flavor";
    EXPECT_GE(candidate.available.at("ram_mb"), 2048);
  }
  EXPECT_EQ(scheduler.stats().satisfied, 1u);
}

TEST_F(PlacementFixture, ImpossibleFlavorYieldsNoCandidates) {
  FocusAllocationCandidates backend(bed_->client());
  Scheduler scheduler(backend);
  const PlacementRequest request =
      PlacementRequest::for_flavor({"huge", 999999, 1, 1}, 10);
  auto result = schedule(scheduler, request);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  EXPECT_EQ(scheduler.stats().unsatisfied, 1u);
}

TEST_F(PlacementFixture, DbAndFocusBackendsAgreeOnCandidateSets) {
  // The §IX swap: same scheduler code, two backends, same fleet. The DB
  // path sees the (static) fleet through MQ pushes; FOCUS pulls live state.
  // With frozen dynamics both must find exactly the feasible hosts.
  baselines::MqPubFinder mq(bed_->simulator(), bed_->transport(), NodeId{900},
                            harness::kBrokerNode, [&] {
                              std::vector<baselines::SimNode> nodes;
                              for (std::size_t i = 0; i < bed_->num_agents(); ++i) {
                                nodes.push_back({bed_->agent(i).node(),
                                                 harness::region_of_index(i),
                                                 &bed_->agent(i).resources()});
                              }
                              return nodes;
                            }(),
                            baselines::BaselineConfig{}, Rng(2));
  bed_->run_for(3 * kSecond);  // warm the MQ-fed table

  DbAllocationCandidates db_backend(mq);
  FocusAllocationCandidates focus_backend(bed_->client());
  Scheduler db_scheduler(db_backend);
  Scheduler focus_scheduler(focus_backend);

  const PlacementRequest request =
      PlacementRequest::for_flavor({"m1.medium", 4096, 10, 2}, 100);
  auto db = schedule(db_scheduler, request);
  auto focus = schedule(focus_scheduler, request);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(focus.ok());

  std::set<NodeId> db_set, focus_set;
  for (const auto& c : db.value()) db_set.insert(c.host);
  for (const auto& c : focus.value()) focus_set.insert(c.host);
  EXPECT_EQ(db_set, focus_set);
}

}  // namespace
}  // namespace focus::openstack
