#pragma once
// Application-side FOCUS client: issues queries to the Query Router and
// transparently handles delegated responses (under router load the client is
// handed the candidate group members and aggregates their responses itself,
// §VI "Optimizations").

#include <functional>
#include <set>
#include <unordered_map>

#include "common/result.hpp"
#include "focus/messages.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace focus::core {

/// Client statistics.
struct ClientStats {
  std::uint64_t queries_sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t delegations_handled = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t view_updates = 0;
};

/// One membership change in a materialized view.
struct ViewUpdate {
  std::uint64_t view_id = 0;
  bool entered = false;  ///< false = the node left the match set
  ResultEntry entry;
};

/// A connection to the FOCUS northbound API.
class Client {
 public:
  using Callback = std::function<void(Result<QueryResult>)>;

  /// `timeout` bounds the client-side wait for any response.
  Client(sim::Simulator& simulator, net::Transport& transport, net::Address self,
         net::Address service_north, Duration timeout = 5 * kSecond);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Execute `query`; `cb` fires exactly once with the result or an error.
  void query(Query query, Callback cb);

  /// Materialized views (§XII extension): register a standing query.
  /// `on_ready` fires once with the view id and the seeded initial members,
  /// or with Errc::Unavailable when the seed failed (the service withdrew
  /// the view; no update follows). `on_update` fires for every later
  /// membership change. Either callback may be empty.
  using ViewReadyCallback = std::function<void(
      std::uint64_t view_id, Result<std::vector<ResultEntry>> initial)>;
  using ViewUpdateCallback = std::function<void(const ViewUpdate&)>;
  void subscribe_view(Query query, ViewReadyCallback on_ready,
                      ViewUpdateCallback on_update);

  /// Stop a view's updates.
  void unsubscribe_view(std::uint64_t view_id);

  const net::Address& address() const noexcept { return self_; }
  const ClientStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    Query query;
    Callback cb;
    SimTime issued_at = 0;
    sim::TimerId timeout_timer = 0;
    obs::TraceContext trace;  ///< root context; rides every outgoing message
    std::uint64_t span = 0;   ///< the client.query root span (0 = untraced)
    // Delegated-collection state:
    bool delegated = false;
    int awaiting = 0;
    std::vector<ResultEntry> entries;
    std::set<NodeId> seen;
  };

  void on_message(const net::Message& msg);
  void handle_response(const net::Message& msg);
  void handle_group_response(const net::Message& msg);
  void handle_view_ack(const net::Message& msg);
  void handle_view_notify(const net::Message& msg);
  void start_delegated(Pending& pending, std::uint64_t id,
                       const std::vector<DelegateTarget>& targets);
  void finish(std::uint64_t id, Result<QueryResult> result);

  sim::Simulator& simulator_;
  net::Transport& transport_;
  net::Address self_;
  net::Address service_;
  Duration timeout_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;

  struct PendingView {
    ViewReadyCallback on_ready;
    ViewUpdateCallback on_update;
  };
  std::unordered_map<std::uint64_t, PendingView> pending_views_;  // by tag
  std::unordered_map<std::uint64_t, ViewUpdateCallback> view_handlers_;  // by id
  std::uint64_t next_view_tag_ = 1;

  ClientStats stats_;
};

}  // namespace focus::core
