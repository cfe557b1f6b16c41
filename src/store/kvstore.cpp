#include "store/kvstore.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"

namespace focus::store {

// ---------------------------------------------------------------------------
// ReplicaData

void ReplicaData::apply_put(const std::string& table, const std::string& key, Row row) {
  auto& cell = tables_[table][key];
  if (row.timestamp >= cell.row.timestamp) {
    cell.row = std::move(row);
    cell.deleted = false;
  }
}

void ReplicaData::apply_erase(const std::string& table, const std::string& key,
                              SimTime ts) {
  auto& cell = tables_[table][key];
  if (ts >= cell.row.timestamp) {
    cell.row.columns.clear();
    cell.row.timestamp = ts;
    cell.deleted = true;
  }
}

const Row* ReplicaData::get(const std::string& table, const std::string& key) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return nullptr;
  auto it = t->second.find(key);
  if (it == t->second.end() || it->second.deleted) return nullptr;
  return &it->second.row;
}

std::vector<std::pair<std::string, Row>> ReplicaData::scan(const std::string& table) const {
  std::vector<std::pair<std::string, Row>> out;
  auto t = tables_.find(table);
  if (t == tables_.end()) return out;
  for (const auto& [key, cell] : t->second) {
    if (!cell.deleted) out.emplace_back(key, cell.row);
  }
  return out;
}

std::size_t ReplicaData::table_size(const std::string& table) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [key, cell] : t->second) {
    if (!cell.deleted) ++n;
  }
  return n;
}

std::size_t ReplicaData::approx_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [table, rows] : tables_) {
    for (const auto& [key, cell] : rows) {
      bytes += key.size() + 24;  // key + row header
      for (const auto& [col, val] : cell.row.columns) {
        bytes += col.size() + val.wire_size();
      }
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Cluster

Cluster::Cluster(sim::Simulator& simulator, ClusterConfig config, std::uint64_t seed)
    : simulator_(simulator), config_(config), rng_(seed) {
  FOCUS_CHECK_LE(config_.replication_factor, config_.replicas);
  FOCUS_CHECK_LE(config_.write_quorum, config_.replication_factor);
  FOCUS_CHECK_LE(config_.read_quorum, config_.replication_factor);
  replicas_.resize(static_cast<std::size_t>(config_.replicas));
}

std::vector<int> Cluster::owners(const std::string& key) const {
  const auto h = std::hash<std::string>{}(key);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(config_.replication_factor));
  for (int i = 0; i < config_.replication_factor; ++i) {
    out.push_back(static_cast<int>((h + static_cast<std::size_t>(i)) %
                                   replicas_.size()));
  }
  return out;
}

Duration Cluster::sample_latency() {
  const Duration jitter = static_cast<Duration>(
      rng_.uniform(-static_cast<double>(config_.op_jitter),
                   static_cast<double>(config_.op_jitter)));
  return std::max<Duration>(1, config_.op_latency + jitter);
}

void Cluster::put(const std::string& table, const std::string& key,
                  std::map<std::string, Json> columns, PutCallback cb) {
  // Strictly monotonic timestamps make last-write-wins deterministic even
  // for same-instant writes.
  last_write_ts_ = std::max(last_write_ts_ + 1, simulator_.now());
  Row row{std::move(columns), last_write_ts_};
  replicate_write(
      key, /*check_down_at_send=*/true,
      [table, key, row = std::move(row)](ReplicaData& data) {
        data.apply_put(table, key, row);
      },
      std::move(cb), "write quorum not reached");
}

void Cluster::erase(const std::string& table, const std::string& key, PutCallback cb) {
  last_write_ts_ = std::max(last_write_ts_ + 1, simulator_.now());
  const SimTime ts = last_write_ts_;
  replicate_write(
      key, /*check_down_at_send=*/false,
      [table, key, ts](ReplicaData& data) { data.apply_erase(table, key, ts); },
      std::move(cb), "delete quorum not reached");
}

void Cluster::replicate_write(const std::string& key, bool check_down_at_send,
                              std::function<void(ReplicaData&)> apply,
                              PutCallback cb, const char* failure) {
  struct State {
    std::function<void(ReplicaData&)> apply;
    PutCallback cb;
    const char* failure = nullptr;
    int acks = 0;
    int replies = 0;
    int targets = 0;
    bool done = false;
  };
  auto state = std::make_shared<State>();
  state->apply = std::move(apply);
  state->cb = std::move(cb);
  state->failure = failure;
  const auto owner_list = owners(key);
  state->targets = static_cast<int>(owner_list.size());

  for (int owner : owner_list) {
    const bool down_at_send =
        check_down_at_send && replicas_[static_cast<std::size_t>(owner)].down;
    simulator_.schedule_after(sample_latency(), [this, owner, down_at_send, state] {
      Replica& replica = replicas_[static_cast<std::size_t>(owner)];
      if (!down_at_send && !replica.down) {
        state->apply(replica.data);
        ++state->acks;
      }
      ++state->replies;
      if (state->done) return;
      if (state->acks >= config_.write_quorum) {
        state->done = true;
        state->cb(true);
      } else if (state->replies == state->targets) {
        state->done = true;
        state->cb(make_error(Errc::Unavailable, state->failure));
      }
    });
  }
}

void Cluster::get(const std::string& table, const std::string& key, GetCallback cb) {
  struct State {
    int replies = 0;
    int alive = 0;
    int targets = 0;
    bool done = false;
    Row best;
    bool found = false;
  };
  auto state = std::make_shared<State>();
  auto shared_cb = std::make_shared<GetCallback>(std::move(cb));
  const auto owner_list = owners(key);
  state->targets = static_cast<int>(owner_list.size());

  for (int owner : owner_list) {
    simulator_.schedule_after(sample_latency(), [this, owner, table, key, state,
                                                 shared_cb] {
      const auto& replica = replicas_[static_cast<std::size_t>(owner)];
      if (!replica.down) {
        ++state->alive;
        if (const Row* row = replica.data.get(table, key)) {
          if (!state->found || row->timestamp > state->best.timestamp) {
            state->best = *row;
            state->found = true;
          }
        }
      }
      ++state->replies;
      if (state->done) return;
      if (state->alive >= config_.read_quorum) {
        state->done = true;
        if (state->found) {
          (*shared_cb)(state->best);
        } else {
          (*shared_cb)(make_error(Errc::NotFound, table + "/" + key));
        }
      } else if (state->replies == state->targets) {
        state->done = true;
        (*shared_cb)(make_error(Errc::Unavailable, "read quorum not reached"));
      }
    });
  }
}

void Cluster::scan(const std::string& table, ScanCallback cb) {
  // Served by the first up replica (scans are admin-path operations).
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].down) continue;
    auto shared_cb = std::make_shared<ScanCallback>(std::move(cb));
    simulator_.schedule_after(sample_latency(), [this, i, table, shared_cb] {
      if (replicas_[i].down) {
        (*shared_cb)(make_error(Errc::Unavailable, "scan replica went down"));
        return;
      }
      (*shared_cb)(replicas_[i].data.scan(table));
    });
    return;
  }
  simulator_.schedule_after(sample_latency(), [cb = std::move(cb)] {
    cb(make_error(Errc::Unavailable, "all replicas down"));
  });
}

void Cluster::set_replica_down(int index, bool down) {
  replicas_.at(static_cast<std::size_t>(index)).down = down;
}

bool Cluster::replica_down(int index) const {
  return replicas_.at(static_cast<std::size_t>(index)).down;
}

int Cluster::up_replicas() const {
  int n = 0;
  for (const auto& r : replicas_) {
    if (!r.down) ++n;
  }
  return n;
}

}  // namespace focus::store
