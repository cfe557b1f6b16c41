#pragma once
// Materialized views (§XII "we wish to explore materialized views in FOCUS
// by creating specific p2p groups representing frequently issued queries...
// supporting event triggers — change in node state will automatically update
// the materialized view").
//
// Implementation: a registered view's predicate is installed on every node
// agent (at registration time for new nodes, by direct push for existing
// ones). Each agent re-evaluates its installed predicates on every resource
// poll and reports *transitions* (entered / left the match set) — so a view
// costs traffic proportional to churn, not to fleet size or read rate.
// The service seeds a freshly registered view with one ordinary directed-
// pull query and thereafter applies the event stream, notifying subscribers
// of each membership change.

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "focus/messages.hpp"
#include "focus/registrar.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace focus::core {

/// View-manager statistics.
struct ViewStats {
  std::uint64_t registered = 0;
  std::uint64_t unregistered = 0;
  std::uint64_t events = 0;
  std::uint64_t notifications = 0;
};

/// Server-side bookkeeping for materialized views. Owned by the Service,
/// which routes the view-related messages here and calls install_on_register
/// for every new node.
class ViewManager {
 public:
  /// `seed` runs a one-shot query (through the Query Router) and delivers
  /// the result asynchronously — supplied by the Service so the seeding
  /// reuses the ordinary directed-pull path.
  using SeedFn =
      std::function<void(const Query&, std::function<void(QueryResult)>)>;

  /// `south_addr` is the node-facing source address (view installs),
  /// `north_addr` the application-facing one (acks, notifications).
  ViewManager(sim::Simulator& simulator, net::Transport& transport,
              net::Address south_addr, net::Address north_addr,
              const Registrar& registrar, SeedFn seed);

  /// Message entry points (called by the Service dispatch).
  void handle_register(const net::Message& msg);
  void handle_unregister(const net::Message& msg);
  void handle_event(const net::Message& msg);

  /// Predicates a newly registered node must install (the Service embeds
  /// them in the registration ack path by pushing a ViewInstall right after
  /// acking).
  std::vector<ViewSpec> active_specs() const;

  /// Current believed members of a view (empty when unknown).
  std::vector<ResultEntry> members_of(std::uint64_t view_id) const;

  std::size_t view_count() const noexcept { return views_.size(); }
  const ViewStats& stats() const noexcept { return stats_; }

 private:
  struct View {
    std::uint64_t id = 0;
    Query query;
    net::Address subscriber;
    std::map<NodeId, ResultEntry> members;
  };

  void notify(const View& view, bool entered, const ResultEntry& entry);
  /// Forget a view and remove its predicate from every registered node;
  /// false when the view is unknown.
  bool withdraw(std::uint64_t view_id);
  void push_install(const net::Address& command_addr,
                    const std::vector<ViewSpec>& install,
                    const std::vector<std::uint64_t>& withdraw);

  sim::Simulator& simulator_;
  net::Transport& transport_;
  net::Address south_addr_;
  net::Address north_addr_;
  const Registrar& registrar_;
  SeedFn seed_;
  std::unordered_map<std::uint64_t, View> views_;
  std::uint64_t next_id_ = 1;
  ViewStats stats_;
};

}  // namespace focus::core
