#pragma once
// Replicated key-value table store — the repo's stand-in for the Apache
// Cassandra cluster backing the FOCUS service (§VIII-A). FOCUS stores static
// attribute tables, the group table, and the transition table here.
//
// The store is a cluster of simulated replicas with last-write-wins rows,
// quorum reads/writes, per-operation latency, and node failure injection.
// The FOCUS service keeps hot-path state in primary in-memory tables and
// synchronizes them with this store (exactly as the paper describes), so the
// store's role is durability/recovery, not per-query latency.
//
// There is one store path: the Cluster runs inside the service kernel and
// its completions are in-kernel closures (DESIGN.md §10 "One store path"
// gives the measurement behind that choice).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace focus::store {

/// One stored row: named columns plus a write timestamp used for
/// last-write-wins conflict resolution between replicas.
struct Row {
  std::map<std::string, Json> columns;
  SimTime timestamp = 0;

  bool operator==(const Row&) const = default;
};

/// A single replica's copy of all tables.
class ReplicaData {
 public:
  /// Apply a write if its timestamp is not older than the stored row.
  void apply_put(const std::string& table, const std::string& key, Row row);

  /// Apply a tombstone delete (same last-write-wins rule).
  void apply_erase(const std::string& table, const std::string& key, SimTime ts);

  /// Read one row; nullptr when absent or deleted.
  const Row* get(const std::string& table, const std::string& key) const;

  /// All live (non-tombstoned) rows of a table.
  std::vector<std::pair<std::string, Row>> scan(const std::string& table) const;

  /// Number of live rows in a table.
  std::size_t table_size(const std::string& table) const;

  /// Approximate resident bytes (for the Fig. 8a RAM model).
  std::size_t approx_bytes() const;

 private:
  struct Cell {
    Row row;
    bool deleted = false;
  };
  std::map<std::string, std::map<std::string, Cell>> tables_;
};

/// Cluster configuration.
struct ClusterConfig {
  int replicas = 3;           ///< number of store nodes
  int replication_factor = 3; ///< copies per key (<= replicas)
  int write_quorum = 2;       ///< acks needed for a successful write
  int read_quorum = 2;        ///< replies needed for a successful read
  Duration op_latency = 2 * kMillisecond;   ///< one replica round trip
  Duration op_jitter = 500 * kMicrosecond;  ///< +/- uniform jitter
};

/// Replicated store cluster. All operations are asynchronous: results arrive
/// through callbacks after simulated replica round trips, so callers
/// experience realistic ordering (a read racing a write can miss it).
/// Completions run as closures in the owning kernel, so the cluster and its
/// callers (Registrar, Dgm, QueryRouter) share the service kernel.
class Cluster {
 public:
  using PutCallback = std::function<void(Result<bool>)>;
  using GetCallback = std::function<void(Result<Row>)>;
  using ScanCallback =
      std::function<void(Result<std::vector<std::pair<std::string, Row>>>)>;

  Cluster(sim::Simulator& simulator, ClusterConfig config, std::uint64_t seed);

  /// Quorum write of a full row (columns replace the previous row).
  void put(const std::string& table, const std::string& key,
           std::map<std::string, Json> columns, PutCallback cb);

  /// Quorum delete.
  void erase(const std::string& table, const std::string& key, PutCallback cb);

  /// Quorum read. The freshest replica row among the quorum wins.
  void get(const std::string& table, const std::string& key, GetCallback cb);

  /// Full-table scan served by one up replica (Cassandra range scan
  /// analogue). Fails Unavailable when every replica is down.
  void scan(const std::string& table, ScanCallback cb);

  /// Take a replica down / bring it back (recovering replicas miss writes
  /// made while down — exactly the staleness quorums exist to mask).
  void set_replica_down(int index, bool down);
  bool replica_down(int index) const;

  /// Direct access to replica state for tests and the RAM model.
  const ReplicaData& replica(int index) const { return replicas_.at(static_cast<std::size_t>(index)).data; }

  /// Number of replicas currently reachable.
  int up_replicas() const;

  const ClusterConfig& config() const noexcept { return config_; }

 private:
  struct Replica {
    ReplicaData data;
    bool down = false;
  };

  /// Replica indices owning `key` (RF consecutive nodes from the key hash —
  /// the classic ring placement).
  std::vector<int> owners(const std::string& key) const;
  Duration sample_latency();
  /// The write-quorum state machine shared by put and erase: one
  /// sample_latency() draw and one delivery per owner of `key`, in owner
  /// order. `apply` runs on each owner that is up at delivery (and, with
  /// `check_down_at_send`, was also up when the write was sent); `cb` fires
  /// once, on write quorum or with Unavailable(`failure`) after every owner
  /// replied.
  void replicate_write(const std::string& key, bool check_down_at_send,
                       std::function<void(ReplicaData&)> apply, PutCallback cb,
                       const char* failure);

  sim::Simulator& simulator_;
  ClusterConfig config_;
  Rng rng_;
  std::vector<Replica> replicas_;
  SimTime last_write_ts_ = 0;  // ensures strictly monotonic write timestamps
};

}  // namespace focus::store
