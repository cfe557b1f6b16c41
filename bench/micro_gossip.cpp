// Microbenchmarks of the gossip/agent send path — the structures PR 4's
// shared-payload rework targets: the SWIM probe round, piggyback
// take/requeue cycling, event fanout broadcast (with a payload-allocation
// counter proving one build per burst), and member-list assembly for
// anti-entropy sync. scripts/run-benches.sh folds these into BENCH_core.json
// alongside micro_core and micro_control.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gossip/broadcast.hpp"
#include "gossip/member_table.hpp"
#include "gossip/swim.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

using namespace focus;

namespace {

/// A converged gossip group on the simulated network, built once per bench.
struct Cluster {
  sim::Simulator simulator;
  net::Topology topology;
  net::SimTransport transport{simulator, topology, Rng(17)};
  std::vector<std::unique_ptr<gossip::GroupAgent>> agents;

  explicit Cluster(std::uint32_t n, gossip::Config config = {}) {
    for (std::uint32_t i = 1; i <= n; ++i) {
      const Region region = static_cast<Region>(i % 4);
      topology.place(NodeId{i}, region);
      auto agent = std::make_unique<gossip::GroupAgent>(
          simulator, transport, net::Address{NodeId{i}, 100}, region, config,
          Rng(1000 + i));
      agent->start();
      if (!agents.empty()) {
        const net::Address entry = agents.front()->address();
        agent->join(std::span<const net::Address>(&entry, 1));
      }
      agents.push_back(std::move(agent));
    }
    simulator.run_for(30 * kSecond);  // converge + settle anti-entropy
  }
};

// One simulated second of steady-state protocol work for a 64-member group:
// every agent runs its probe round (ping/ack + piggyback exchange) plus ten
// dissemination ticks. This is the per-tick cost the member slab, the cached
// alive view, and the sampling scratch exist to shrink.
void BM_GossipProbeRound(benchmark::State& state) {
  Cluster cluster(64);
  for (auto _ : state) {
    cluster.simulator.run_for(1 * kSecond);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GossipProbeRound);

// The piggyback steady state: updates enter with a fresh copy budget while
// sends drain one copy at a time into a reused buffer. Exercises the
// sorted-prefix take and the lazy re-sort merge.
void BM_PiggybackTakeRequeue(benchmark::State& state) {
  gossip::PiggybackBuffer buffer;
  std::vector<gossip::MemberUpdate> out;
  for (std::uint32_t i = 0; i < 64; ++i) {
    gossip::MemberUpdate update;
    update.node = NodeId{i};
    buffer.add(update, 6);
  }
  std::uint32_t refresh = 0;
  for (auto _ : state) {
    // Four sends (one burst's worth) then one member flaps, re-entering the
    // buffer with a full budget.
    for (int send = 0; send < 4; ++send) {
      out.clear();
      buffer.take_into(out, 8);
      benchmark::DoNotOptimize(out.data());
    }
    gossip::MemberUpdate update;
    update.node = NodeId{refresh++ % 64};
    update.incarnation = refresh;
    buffer.add(update, 6);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_PiggybackTakeRequeue);

// One event broadcast through a converged 32-member group, drained to
// completion. The payload_builds_per_msg counter is the shared-fanout-payload
// proof: each burst stamps `fanout` envelopes around one payload, so the
// ratio sits near 1/fanout instead of 1.
void BM_FanoutBroadcast(benchmark::State& state) {
  Cluster cluster(32);
  for (auto& agent : cluster.agents) {
    agent->set_event_handler([](const gossip::EventPayload&) {});
  }
  cluster.transport.stats().reset();
  std::size_t origin = 0;
  for (auto _ : state) {
    cluster.agents[origin++ % cluster.agents.size()]->broadcast("bench",
                                                                nullptr);
    cluster.simulator.run_for(1 * kSecond);  // drain all retransmit rounds
  }
  const auto event_stats =
      cluster.transport.stats().of_kind(net::MsgKind::intern("swim.event"));
  if (event_stats.msgs > 0) {
    state.counters["payload_builds_per_msg"] =
        static_cast<double>(event_stats.payload_builds) /
        static_cast<double>(event_stats.msgs);
  }
}
BENCHMARK(BM_FanoutBroadcast);

// Anti-entropy list assembly: materialize a full 400-member list from the
// slab into a reused payload — the join-reply/full-sync cost that delta sync
// amortizes away for steady-state peers.
void BM_MemberListSync(benchmark::State& state) {
  gossip::MemberTable table;
  for (std::uint32_t i = 1; i <= 400; ++i) {
    const std::uint32_t slot = table.insert(NodeId{i}, gossip::MemberState::Alive);
    table.set_port(slot, 100);
    table.set_incarnation(slot, i);
  }
  gossip::MemberListPayload payload;
  for (auto _ : state) {
    payload.members.clear();
    table.for_each([&](const gossip::MemberInfo& info) {
      gossip::MemberUpdate update;
      update.node = info.id;
      update.port = info.addr.port;
      update.region = info.region;
      update.state = info.state;
      update.incarnation = info.incarnation;
      payload.members.push_back(update);
    });
    benchmark::DoNotOptimize(payload.members.data());
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_MemberListSync);

// The protocol-period scan the SoA MemberTable layout exists for: rebuild
// the alive view over a 25k-member table. The rebuild walks the one-byte
// state column only; the old AoS slab walked full ~48-byte records with the
// embedded address dragged through cache for every member.
void BM_AliveViewRebuild(benchmark::State& state) {
  gossip::MemberTable table;
  for (std::uint32_t i = 1; i <= 25000; ++i) {
    const std::uint32_t slot = table.insert(NodeId{i}, gossip::MemberState::Alive);
    table.set_port(slot, 100);
  }
  for (auto _ : state) {
    // Toggle one member across the alive/dead boundary so every iteration
    // invalidates the cached view and pays the full column scan.
    const std::uint32_t slot = table.find_slot(NodeId{2});
    table.set_state(slot, table.state(slot) == gossip::MemberState::Alive
                              ? gossip::MemberState::Dead
                              : gossip::MemberState::Alive);
    benchmark::DoNotOptimize(table.alive_slots().size());
  }
  state.SetItemsProcessed(state.iterations() * 25000);
}
BENCHMARK(BM_AliveViewRebuild);

}  // namespace

BENCHMARK_MAIN();
