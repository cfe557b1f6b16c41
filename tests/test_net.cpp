// Unit tests for the network model: topology, transport, accounting.

#include <gtest/gtest.h>

#include "net/sim_transport.hpp"

namespace focus::net {
namespace {

/// Payload with a fixed declared size.
struct Fixed final : Payload {
  std::size_t bytes = 100;
  std::size_t wire_size() const override { return bytes; }
};

class NetTest : public ::testing::Test {
 protected:
  NetTest() : transport_(simulator_, topology_, Rng(3)) {
    topology_.place(NodeId{1}, Region::Ohio);
    topology_.place(NodeId{2}, Region::Oregon);
  }

  Message make(NodeId from, NodeId to, std::size_t bytes = 100) {
    auto payload = std::make_shared<Fixed>();
    payload->bytes = bytes;
    return Message{{from, 1}, {to, 1}, MsgKind::intern("test"), std::move(payload)};
  }

  sim::Simulator simulator_;
  Topology topology_;
  SimTransport transport_;
};

TEST_F(NetTest, DeliversToBoundHandler) {
  int received = 0;
  transport_.bind({NodeId{2}, 1}, [&](const Message& m) {
    ++received;
    EXPECT_EQ(m.kind, MsgKind::intern("test"));
    EXPECT_EQ(m.from.node, NodeId{1});
  });
  transport_.send(make(NodeId{1}, NodeId{2}));
  simulator_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetTest, LatencyMatchesTopology) {
  SimTime delivered_at = -1;
  transport_.bind({NodeId{2}, 1}, [&](const Message&) { delivered_at = simulator_.now(); });
  transport_.send(make(NodeId{1}, NodeId{2}));
  simulator_.run();
  // Ohio <-> Oregon base one-way is 25 ms with 10% jitter.
  EXPECT_GE(delivered_at, static_cast<SimTime>(25 * kMillisecond * 0.9));
  EXPECT_LE(delivered_at, static_cast<SimTime>(25 * kMillisecond * 1.1));
}

TEST_F(NetTest, UnboundDestinationDropsButChargesSender) {
  transport_.send(make(NodeId{1}, NodeId{2}, 140));
  simulator_.run();
  EXPECT_EQ(transport_.stats().delivered(), 0u);
  EXPECT_EQ(transport_.stats().of(NodeId{1}).bytes_tx, 140 + kWireOverheadBytes);
  EXPECT_EQ(transport_.stats().of(NodeId{2}).bytes_rx, 0u);
}

TEST_F(NetTest, AccountingCountsBothDirections) {
  transport_.bind({NodeId{2}, 1}, [](const Message&) {});
  transport_.send(make(NodeId{1}, NodeId{2}, 200));
  simulator_.run();
  const auto tx = transport_.stats().of(NodeId{1});
  const auto rx = transport_.stats().of(NodeId{2});
  EXPECT_EQ(tx.bytes_tx, 200 + kWireOverheadBytes);
  EXPECT_EQ(tx.msgs_tx, 1u);
  EXPECT_EQ(rx.bytes_rx, 200 + kWireOverheadBytes);
  EXPECT_EQ(rx.msgs_rx, 1u);
  EXPECT_EQ(transport_.stats().total().bytes_tx,
            transport_.stats().total().bytes_rx);
}

TEST_F(NetTest, DownNodeNeitherSendsNorReceives) {
  int received = 0;
  transport_.bind({NodeId{2}, 1}, [&](const Message&) { ++received; });

  transport_.set_node_down(NodeId{2}, true);
  transport_.send(make(NodeId{1}, NodeId{2}));
  simulator_.run();
  EXPECT_EQ(received, 0);

  transport_.set_node_down(NodeId{2}, false);
  transport_.set_node_down(NodeId{1}, true);
  transport_.send(make(NodeId{1}, NodeId{2}));
  simulator_.run();
  EXPECT_EQ(received, 0);  // dead sender transmits nothing

  transport_.set_node_down(NodeId{1}, false);
  transport_.send(make(NodeId{1}, NodeId{2}));
  simulator_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetTest, NodeDyingMidFlightDropsDelivery) {
  int received = 0;
  transport_.bind({NodeId{2}, 1}, [&](const Message&) { ++received; });
  transport_.send(make(NodeId{1}, NodeId{2}));
  // Kill the destination while the message is in flight.
  simulator_.schedule_at(1 * kMillisecond,
                         [&] { transport_.set_node_down(NodeId{2}, true); });
  simulator_.run();
  EXPECT_EQ(received, 0);
}

TEST_F(NetTest, LossRateDropsSomeMessages) {
  int received = 0;
  transport_.bind({NodeId{2}, 1}, [&](const Message&) { ++received; });
  transport_.set_loss_rate(0.5);
  for (int i = 0; i < 400; ++i) transport_.send(make(NodeId{1}, NodeId{2}));
  simulator_.run();
  EXPECT_GT(received, 120);
  EXPECT_LT(received, 280);
}

TEST_F(NetTest, HandlerMayRebindItself) {
  int first = 0, second = 0;
  transport_.bind({NodeId{2}, 1}, [&](const Message&) {
    ++first;
    transport_.bind({NodeId{2}, 1}, [&](const Message&) { ++second; });
  });
  transport_.send(make(NodeId{1}, NodeId{2}));
  transport_.send(make(NodeId{1}, NodeId{2}));
  simulator_.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Topology, DefaultsAreSymmetric) {
  Topology t;
  for (auto a : {Region::Ohio, Region::Canada, Region::Oregon, Region::California}) {
    for (auto b : {Region::Ohio, Region::Canada, Region::Oregon, Region::California}) {
      EXPECT_EQ(t.base_latency(a, b), t.base_latency(b, a));
    }
  }
}

TEST(Topology, IntraRegionFasterThanInterRegion) {
  Topology t;
  EXPECT_LT(t.base_latency(Region::Ohio, Region::Ohio),
            t.base_latency(Region::Ohio, Region::Oregon));
}

TEST(Topology, OverrideLatency) {
  Topology t;
  t.set_latency(Region::Ohio, Region::Canada, 99 * kMillisecond);
  EXPECT_EQ(t.base_latency(Region::Ohio, Region::Canada), 99 * kMillisecond);
  EXPECT_EQ(t.base_latency(Region::Canada, Region::Ohio), 99 * kMillisecond);
}

TEST(Topology, UnplacedNodesDefaultToAppEdge) {
  Topology t;
  EXPECT_EQ(t.region_of(NodeId{777}), Region::AppEdge);
}

TEST(Topology, SampleLatencyWithinJitterBounds) {
  Topology t;
  t.place(NodeId{1}, Region::Ohio);
  t.place(NodeId{2}, Region::Canada);
  Rng rng(4);
  const Duration base = t.base_latency(Region::Ohio, Region::Canada);
  for (int i = 0; i < 200; ++i) {
    const Duration d = t.sample_latency(NodeId{1}, NodeId{2}, rng);
    EXPECT_GE(d, static_cast<Duration>(static_cast<double>(base) * 0.9) - 1);
    EXPECT_LE(d, static_cast<Duration>(static_cast<double>(base) * 1.1) + 1);
  }
}

TEST(NetStats, DeltaSubtraction) {
  EndpointStats a{100, 50, 4, 2};
  EndpointStats b{40, 20, 1, 1};
  const EndpointStats d = a - b;
  EXPECT_EQ(d.bytes_tx, 60u);
  EXPECT_EQ(d.bytes_rx, 30u);
  EXPECT_EQ(d.msgs_tx, 3u);
  EXPECT_EQ(d.bytes_total(), 90u);
}

// ---------------------------------------------------------------------------
// Per-kind send accounting and the payload-build dedup.

TEST(NetStats, RecordSendCountsMsgsBuildsAndBytes) {
  NetStats stats;
  const MsgKind kind = MsgKind::intern("stats.kind");
  auto payload = std::make_shared<const Fixed>();
  stats.record_send(kind, payload, 160);
  stats.record_send(kind, payload, 160);  // same burst: one build
  stats.record_send(kind, payload, 160);
  const MsgKindStats s = stats.of_kind(kind);
  EXPECT_EQ(s.msgs, 3u);
  EXPECT_EQ(s.payload_builds, 1u);
  EXPECT_EQ(s.bytes, 480u);
}

TEST(NetStats, EndBurstSplitsBuildsOfTheSamePayload) {
  NetStats stats;
  const MsgKind kind = MsgKind::intern("stats.kind");
  auto payload = std::make_shared<const Fixed>();
  stats.record_send(kind, payload, 100);
  stats.end_burst();
  stats.record_send(kind, payload, 100);  // same object, new burst: new build
  EXPECT_EQ(stats.of_kind(kind).payload_builds, 2u);
}

TEST(NetStats, DifferentKindSamePayloadIsANewBuild) {
  NetStats stats;
  auto payload = std::make_shared<const Fixed>();
  stats.record_send(MsgKind::intern("stats.a"), payload, 100);
  stats.record_send(MsgKind::intern("stats.b"), payload, 100);
  EXPECT_EQ(stats.of_kind(MsgKind::intern("stats.a")).payload_builds, 1u);
  EXPECT_EQ(stats.of_kind(MsgKind::intern("stats.b")).payload_builds, 1u);
}

// Regression for the freed-address aliasing bug: the dedup key used to be a
// raw pointer captured from a payload the caller could free, so a fresh
// payload allocated at the recycled address was mistaken for "same burst"
// and its build went uncounted. The fix pins the last payload via shared_ptr
// until the next send or an explicit end_burst().
TEST(NetStats, DedupKeyPinsThePayloadAgainstAddressReuse) {
  NetStats stats;
  const MsgKind kind = MsgKind::intern("stats.kind");
  auto payload = std::make_shared<const Fixed>();
  const std::weak_ptr<const Fixed> watch = payload;
  stats.record_send(kind, payload, 100);
  payload.reset();
  // The stats object keeps the payload alive while it is the dedup key, so
  // the allocator cannot hand its address to the next payload.
  EXPECT_FALSE(watch.expired());
  // A genuinely new payload in the same burst window is a new build even if
  // the allocator would have liked to recycle the old address.
  auto fresh = std::make_shared<const Fixed>();
  stats.record_send(kind, fresh, 100);
  EXPECT_EQ(stats.of_kind(kind).payload_builds, 2u);
  EXPECT_TRUE(watch.expired());  // pin moved on to the new payload
}

TEST(NetStats, EndBurstReleasesThePin) {
  NetStats stats;
  auto payload = std::make_shared<const Fixed>();
  const std::weak_ptr<const Fixed> watch = payload;
  stats.record_send(MsgKind::intern("stats.kind"), payload, 100);
  payload.reset();
  EXPECT_FALSE(watch.expired());
  stats.end_burst();
  EXPECT_TRUE(watch.expired());
}

TEST(NetStats, ResetClearsDedupStateAndCounters) {
  NetStats stats;
  const MsgKind kind = MsgKind::intern("stats.kind");
  auto payload = std::make_shared<const Fixed>();
  stats.record_send(kind, payload, 100);
  stats.reset();
  EXPECT_EQ(stats.of_kind(kind).msgs, 0u);
  // Post-reset the dedup state is forgotten: the same payload counts as a
  // fresh build, not a continuation of a burst from before the reset.
  stats.record_send(kind, payload, 100);
  EXPECT_EQ(stats.of_kind(kind).payload_builds, 1u);
}

// The endpoint table rehashes as a shard's transport touches more nodes;
// records must survive every growth, keep first-touch order, and misses
// must stay misses (testbed ids stride by small constants).
TEST(EndpointTable, GrowsAndKeepsRecordsForStridedIds) {
  EndpointTable table;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    Endpoint& e = table.get(NodeId{i * 4});
    e.traffic.add_tx(i);
  }
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const Endpoint* e = table.find(NodeId{i * 4});
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->node, NodeId{i * 4});
    EXPECT_EQ(e->traffic.bytes_tx, i);
    EXPECT_EQ(table.find(NodeId{i * 4 + 1}), nullptr);
  }
  EXPECT_EQ(&table.get(NodeId{8}), table.find(NodeId{8}));  // no duplicate record
  std::uint32_t expect = 0;
  table.for_each([&expect](const Endpoint& e) {
    EXPECT_EQ(e.node, NodeId{expect});
    expect += 4;
  });
  EXPECT_EQ(expect, 5000u * 4);
}

TEST(MsgKind, SpellingByValueRoundTrips) {
  const MsgKind kind = MsgKind::intern("spelling.roundtrip");
  EXPECT_EQ(kind_spelling(kind.value()), "spelling.roundtrip");
  EXPECT_EQ(kind_spelling(0), "(none)");
}

TEST(Message, WireBytesIncludesOverhead) {
  auto payload = std::make_shared<Fixed>();
  payload->bytes = 10;
  Message m{{NodeId{1}, 1}, {NodeId{2}, 1}, MsgKind::intern("k"), payload};
  EXPECT_EQ(m.wire_bytes(), 10 + kWireOverheadBytes);
  Message empty{{NodeId{1}, 1}, {NodeId{2}, 1}, MsgKind::intern("k"), nullptr};
  EXPECT_EQ(empty.wire_bytes(), kWireOverheadBytes);
}

}  // namespace
}  // namespace focus::net
