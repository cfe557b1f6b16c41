// Tests for the replicated KV store (Cassandra stand-in).

#include <gtest/gtest.h>

#include "store/kvstore.hpp"

namespace focus::store {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : cluster_(simulator_, ClusterConfig{}, 21) {}

  /// Run a put to completion and return its outcome.
  Result<bool> put_sync(const std::string& table, const std::string& key,
                        std::map<std::string, Json> columns) {
    Result<bool> out = make_error(Errc::Timeout, "never completed");
    cluster_.put(table, key, std::move(columns),
                 [&](Result<bool> r) { out = std::move(r); });
    simulator_.run();
    return out;
  }

  Result<bool> erase_sync(const std::string& table, const std::string& key) {
    Result<bool> out = make_error(Errc::Timeout, "never completed");
    cluster_.erase(table, key, [&](Result<bool> r) { out = std::move(r); });
    simulator_.run();
    return out;
  }

  Result<Row> get_sync(const std::string& table, const std::string& key) {
    Result<Row> out = make_error(Errc::Timeout, "never completed");
    cluster_.get(table, key, [&](Result<Row> r) { out = std::move(r); });
    simulator_.run();
    return out;
  }

  sim::Simulator simulator_;
  Cluster cluster_;
};

TEST_F(StoreTest, PutThenGet) {
  ASSERT_TRUE(put_sync("t", "k", {{"v", Json(5)}}).ok());
  auto row = get_sync("t", "k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value().columns.at("v").as_int(), 5);
  EXPECT_GT(row.value().timestamp, 0);
}

TEST_F(StoreTest, GetMissingIsNotFound) {
  auto row = get_sync("t", "nope");
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.error().code, Errc::NotFound);
}

TEST_F(StoreTest, OverwriteKeepsNewest) {
  ASSERT_TRUE(put_sync("t", "k", {{"v", Json(1)}}).ok());
  ASSERT_TRUE(put_sync("t", "k", {{"v", Json(2)}}).ok());
  auto row = get_sync("t", "k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value().columns.at("v").as_int(), 2);
}

TEST_F(StoreTest, EraseHidesRow) {
  ASSERT_TRUE(put_sync("t", "k", {{"v", Json(1)}}).ok());
  ASSERT_TRUE(erase_sync("t", "k").ok());
  EXPECT_EQ(get_sync("t", "k").error().code, Errc::NotFound);
}

TEST_F(StoreTest, ScanReturnsLiveRowsOnly) {
  ASSERT_TRUE(put_sync("t", "a", {{"v", Json(1)}}).ok());
  ASSERT_TRUE(put_sync("t", "b", {{"v", Json(2)}}).ok());
  Result<bool> erased = make_error(Errc::Timeout, "");
  cluster_.erase("t", "a", [&](Result<bool> r) { erased = std::move(r); });
  simulator_.run();

  std::vector<std::pair<std::string, Row>> rows;
  cluster_.scan("t", [&](auto r) {
    ASSERT_TRUE(r.ok());
    rows = std::move(r).take();
  });
  simulator_.run();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, "b");
}

TEST_F(StoreTest, ScanUnknownTableIsEmpty) {
  bool called = false;
  cluster_.scan("missing", [&](auto r) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    called = true;
  });
  simulator_.run();
  EXPECT_TRUE(called);
}

TEST_F(StoreTest, SurvivesOneReplicaDown) {
  cluster_.set_replica_down(0, true);
  EXPECT_EQ(cluster_.up_replicas(), 2);
  ASSERT_TRUE(put_sync("t", "k", {{"v", Json(7)}}).ok());
  auto row = get_sync("t", "k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value().columns.at("v").as_int(), 7);
}

TEST_F(StoreTest, QuorumLossFailsWrites) {
  cluster_.set_replica_down(0, true);
  cluster_.set_replica_down(1, true);
  const Result<bool> writes[] = {put_sync("t", "k", {{"v", Json(7)}}),
                                 erase_sync("t", "k")};
  for (const Result<bool>& write : writes) {
    ASSERT_FALSE(write.ok());
    EXPECT_EQ(write.error().code, Errc::Unavailable);
  }
}

TEST_F(StoreTest, PutChecksReplicasAtSendEraseOnlyAtDelivery) {
  // Two replicas are down when the write is sent and back up before it is
  // delivered: a put never reaches them (quorum lost), an erase does.
  const auto set_two_down = [this](bool down) {
    cluster_.set_replica_down(0, down);
    cluster_.set_replica_down(1, down);
  };
  Result<bool> put = make_error(Errc::Timeout, "never completed");
  set_two_down(true);
  cluster_.put("t", "k", {{"v", Json(7)}}, [&](Result<bool> r) { put = std::move(r); });
  set_two_down(false);
  simulator_.run();
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.error().code, Errc::Unavailable);

  Result<bool> erased = make_error(Errc::Timeout, "never completed");
  set_two_down(true);
  cluster_.erase("t", "k", [&](Result<bool> r) { erased = std::move(r); });
  set_two_down(false);
  simulator_.run();
  EXPECT_TRUE(erased.ok());
}

TEST_F(StoreTest, QuorumLossFailsReads) {
  ASSERT_TRUE(put_sync("t", "k", {{"v", Json(7)}}).ok());
  cluster_.set_replica_down(0, true);
  cluster_.set_replica_down(1, true);
  auto row = get_sync("t", "k");
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.error().code, Errc::Unavailable);
}

TEST_F(StoreTest, RecoveredReplicaServesThroughQuorumMasking) {
  // Write while replica 0 is down, bring it back (it missed the write), and
  // confirm quorum reads still return the newest value.
  cluster_.set_replica_down(0, true);
  ASSERT_TRUE(put_sync("t", "k", {{"v", Json(9)}}).ok());
  cluster_.set_replica_down(0, false);
  for (int i = 0; i < 20; ++i) {
    auto row = get_sync("t", "k");
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row.value().columns.at("v").as_int(), 9);
  }
}

TEST_F(StoreTest, AllReplicasDownScanFails) {
  for (int i = 0; i < 3; ++i) cluster_.set_replica_down(i, true);
  bool called = false;
  cluster_.scan("t", [&](auto r) {
    EXPECT_FALSE(r.ok());
    called = true;
  });
  simulator_.run();
  EXPECT_TRUE(called);
}

TEST_F(StoreTest, OperationsTakeSimulatedTime) {
  const SimTime before = simulator_.now();
  Result<bool> out = make_error(Errc::Timeout, "");
  cluster_.put("t", "k", {{"v", Json(1)}}, [&](Result<bool> r) { out = std::move(r); });
  simulator_.run();
  ASSERT_TRUE(out.ok());
  EXPECT_GT(simulator_.now(), before);
}

TEST_F(StoreTest, WriteTimestampsStrictlyMonotonic) {
  ASSERT_TRUE(put_sync("t", "a", {{"v", Json(1)}}).ok());
  const SimTime t1 = get_sync("t", "a").value().timestamp;
  ASSERT_TRUE(put_sync("t", "a", {{"v", Json(2)}}).ok());
  const SimTime t2 = get_sync("t", "a").value().timestamp;
  EXPECT_GT(t2, t1);
}

TEST(ReplicaData, LastWriteWinsIgnoresStaleApply) {
  ReplicaData data;
  data.apply_put("t", "k", Row{{{"v", Json(2)}}, 100});
  data.apply_put("t", "k", Row{{{"v", Json(1)}}, 50});  // stale
  ASSERT_NE(data.get("t", "k"), nullptr);
  EXPECT_EQ(data.get("t", "k")->columns.at("v").as_int(), 2);
}

TEST(ReplicaData, StaleDeleteDoesNotHideNewerWrite) {
  ReplicaData data;
  data.apply_put("t", "k", Row{{{"v", Json(2)}}, 100});
  data.apply_erase("t", "k", 50);  // stale tombstone
  EXPECT_NE(data.get("t", "k"), nullptr);
  data.apply_erase("t", "k", 200);
  EXPECT_EQ(data.get("t", "k"), nullptr);
}

TEST(ReplicaData, ApproxBytesGrowsWithData) {
  ReplicaData data;
  const auto empty = data.approx_bytes();
  data.apply_put("t", "k", Row{{{"column", Json("value")}}, 1});
  EXPECT_GT(data.approx_bytes(), empty);
}

TEST(StoreConfig, SingleReplicaClusterWorks) {
  sim::Simulator simulator;
  ClusterConfig config;
  config.replicas = 1;
  config.replication_factor = 1;
  config.read_quorum = 1;
  config.write_quorum = 1;
  Cluster cluster(simulator, config, 5);
  Result<bool> put = make_error(Errc::Timeout, "");
  cluster.put("t", "k", {{"v", Json(3)}}, [&](Result<bool> r) { put = std::move(r); });
  simulator.run();
  ASSERT_TRUE(put.ok());
}

}  // namespace
}  // namespace focus::store
