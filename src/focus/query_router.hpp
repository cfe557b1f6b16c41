#pragma once
// The Query Router (§VI, §VIII-A-3): answers queries from the cache when
// freshness permits, from the data store for static-only queries, and
// otherwise by directed pulls — sending the query to a random member of each
// candidate group for the query's *smallest* attribute, plus direct pulls to
// transitioning nodes. Aggregates, applies the limit, caches, and times out
// rather than blocking indefinitely.

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "focus/cache.hpp"
#include "focus/cost_model.hpp"
#include "focus/dgm.hpp"
#include "focus/messages.hpp"
#include "focus/registrar.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "store/kvstore.hpp"

namespace focus::core {

/// Router statistics for tests/benches.
struct RouterStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_served = 0;
  std::uint64_t store_served = 0;
  std::uint64_t group_queries_sent = 0;
  std::uint64_t node_pulls_sent = 0;
  std::uint64_t delegated = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t empty_routes = 0;  ///< dynamic queries with no candidate groups
};

/// Query processing engine of the FOCUS service.
class QueryRouter {
 public:
  /// `charge` is called with CPU cost per operation (feeds the Fig. 8a
  /// server resource model).
  QueryRouter(sim::Simulator& simulator, net::Transport& transport,
              net::Address north_addr, const ServiceConfig& config,
              const ServerCostModel& cost, Dgm& dgm, const Registrar& registrar,
              store::Cluster& store, Rng rng,
              std::function<void(Duration)> charge);

  /// Entry points called by the Service's transport dispatch.
  void handle_query(const net::Message& msg);
  void handle_group_response(const net::Message& msg);
  void handle_node_state(const net::Message& msg);

  /// In-flight query count (drives delegation).
  std::size_t outstanding() const noexcept { return pending_.size(); }

  QueryCache& cache() noexcept { return cache_; }
  const QueryCache& cache() const noexcept { return cache_; }
  const RouterStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    std::uint64_t id = 0;           ///< router-local id used on the wire
    std::uint64_t client_id = 0;    ///< client's query id, echoed back
    std::uint64_t query_hash = 0;   ///< Query::cache_hash(), computed once
    obs::TraceContext trace;        ///< stamped on every pull we fan out
    std::uint64_t span = 0;         ///< the router.query span (0 = untraced)
    Query query;
    net::Address reply_to;
    SimTime issued_at = 0;
    int awaiting_groups = 0;
    int awaiting_nodes = 0;
    int groups_queried = 0;
    std::vector<ResultEntry> entries;
    std::set<NodeId> seen;
    sim::TimerId timeout_timer = 0;
    ResponseSource source = ResponseSource::Groups;
  };

  void route_dynamic(Pending pending);
  void route_static(Pending pending);
  /// Answer and retire query `id`; a non-empty `error` is carried to the
  /// app in QueryResult::error.
  void finalize(std::uint64_t id, bool timed_out, std::string error = {});
  void respond(const Pending& pending, QueryResult result);
  void respond_delegated(const Pending& pending,
                         std::vector<DelegateTarget> targets);
  /// Pick the term whose candidate groups hold the fewest members (§VI
  /// "FOCUS sends the query to the smallest group").
  Dgm::Candidates pick_smallest(const Query& query) const;

  sim::Simulator& simulator_;
  net::Transport& transport_;
  net::Address north_addr_;
  const ServiceConfig& config_;
  const ServerCostModel& cost_;
  Dgm& dgm_;
  const Registrar& registrar_;
  store::Cluster& store_;
  Rng rng_;
  std::function<void(Duration)> charge_;

  QueryCache cache_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  RouterStats stats_;
};

}  // namespace focus::core
