// OpenStack placement integration (§IX, Fig. 6): the same Nova scheduler
// running against two Placement backends —
//   (a) stock OpenStack: compute nodes push status through RabbitMQ into a
//       central DB and the scheduler queries the DB;
//   (b) the paper's integration: the single get_by_requests call site swapped
//       for a FOCUS query.
// The example provisions a burst of VMs on both paths, compares the
// candidates, and shows the staleness difference when host state changes.

#include <cstdio>

#include "baselines/mq_finder.hpp"
#include "harness/scenario.hpp"
#include "openstack/scheduler.hpp"

using namespace focus;

namespace {

Result<std::vector<openstack::Candidate>> schedule_sync(
    harness::Testbed& bed, openstack::Scheduler& scheduler,
    const openstack::PlacementRequest& request) {
  Result<std::vector<openstack::Candidate>> out =
      make_error(Errc::Timeout, "no answer");
  bool done = false;
  scheduler.select_destinations(request, [&](auto r) {
    out = std::move(r);
    done = true;
  });
  const SimTime deadline = bed.now() + 10 * kSecond;
  while (!done && bed.now() < deadline) {
    bed.run_for(10 * kMillisecond);
  }
  return out;
}

void report(const char* backend, const openstack::Flavor& flavor,
            const Result<std::vector<openstack::Candidate>>& result) {
  if (!result.ok()) {
    std::printf("  %-6s %-10s -> error: %s\n", backend, flavor.name.c_str(),
                result.error().message.c_str());
    return;
  }
  std::printf("  %-6s %-10s -> %zu candidates:", backend, flavor.name.c_str(),
              result.value().size());
  for (std::size_t i = 0; i < result.value().size() && i < 4; ++i) {
    std::printf(" %s", to_string(result.value()[i].host).c_str());
  }
  std::printf("%s\n", result.value().size() > 4 ? " ..." : "");
}

}  // namespace

int main() {
  // A 32-host cloud managed by FOCUS.
  harness::TestbedConfig config;
  config.num_nodes = 32;
  config.seed = 1906;
  config.agent.dynamics.frozen = true;  // freeze so both paths are comparable
  harness::Testbed bed(config);
  bed.start();
  if (!bed.settle()) {
    std::printf("deployment did not settle\n");
    return 1;
  }

  // The stock path: nova-compute agents push status through RabbitMQ (the
  // broker is colocated with the controller) into the placement DB.
  std::vector<baselines::SimNode> hosts;
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    hosts.push_back({bed.agent(i).node(), harness::region_of_index(i),
                     &bed.agent(i).resources()});
  }
  baselines::MqPubFinder mq_db(bed.simulator(), bed.transport(), NodeId{900},
                               harness::kBrokerNode, hosts,
                               baselines::BaselineConfig{}, Rng(2));
  bed.run_for(3 * kSecond);  // warm the DB from the pushes

  openstack::DbAllocationCandidates db_backend(mq_db);
  openstack::FocusAllocationCandidates focus_backend(bed.client());
  openstack::Scheduler db_scheduler(db_backend);
  openstack::Scheduler focus_scheduler(focus_backend);

  std::printf("Provisioning one VM of each flavor via both backends:\n");
  for (const auto& flavor : openstack::standard_flavors()) {
    const auto request = openstack::PlacementRequest::for_flavor(flavor, 5);
    report("db", flavor, schedule_sync(bed, db_scheduler, request));
    report("focus", flavor, schedule_sync(bed, focus_scheduler, request));
  }

  // The freshness difference: a host frees RAM *right now* (staying within
  // its 2 GB attribute bucket, so this is purely a value change, not a
  // group move). The DB path answers from the last push; FOCUS pulls the
  // node's live state.
  bed.agent(0).resources().set_value("ram_mb", 15000);
  bed.run_for(5 * kSecond);  // settle into the [14336,16384) group; DB sees 15000
  std::printf("\nHost %s frees another 1 GB of RAM (15.0 -> 16.0 GB)...\n",
              to_string(bed.agent(0).node()).c_str());
  bed.agent(0).resources().set_value("ram_mb", 16000);
  openstack::PlacementRequest huge;
  huge.limit = 5;
  huge.resources["ram_mb"] = 15800;  // only the just-freed host qualifies

  auto db_now = schedule_sync(bed, db_scheduler, huge);
  auto focus_now = schedule_sync(bed, focus_scheduler, huge);
  std::printf("  immediately:  db sees %zu candidate(s), focus sees %zu\n",
              db_now.ok() ? db_now.value().size() : 0,
              focus_now.ok() ? focus_now.value().size() : 0);

  bed.run_for(2 * kSecond);  // wait out one push interval
  auto db_later = schedule_sync(bed, db_scheduler, huge);
  std::printf("  after 1 push interval: db sees %zu candidate(s) too\n",
              db_later.ok() ? db_later.value().size() : 0);

  std::printf("\nscheduler stats: db %llu/%llu satisfied, focus %llu/%llu\n",
              static_cast<unsigned long long>(db_scheduler.stats().satisfied),
              static_cast<unsigned long long>(db_scheduler.stats().requests),
              static_cast<unsigned long long>(focus_scheduler.stats().satisfied),
              static_cast<unsigned long long>(focus_scheduler.stats().requests));
  return 0;
}
