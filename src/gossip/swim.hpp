#pragma once
// SWIM-style gossip group agent (the repo's stand-in for HashiCorp Serf).
//
// One GroupAgent instance is one membership in one attribute group: it
// maintains the group's member list via piggybacked gossip, detects failures
// with direct + indirect probing and a suspicion period, and disseminates
// application events (FOCUS queries) epidemically.
//
// Data-plane shape: one logical dissemination (event burst, indirect probe
// wave, leave notice) builds ONE immutable payload and stamps a Message
// envelope per recipient around the same shared_ptr — the Payload contract
// forbids mutation after send, so fanout costs one allocation, not N.
// Membership lives in a slab (MemberTable) with a cached alive view;
// sampling and member-list assembly fill reused scratch buffers. Anti-entropy
// pushes deltas against a per-peer change-epoch cursor, falling back to full
// snapshots for joiners and every config.sync_full_every-th exchange.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/broadcast.hpp"
#include "gossip/config.hpp"
#include "gossip/member_table.hpp"
#include "gossip/messages.hpp"
#include "gossip/node_map.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace focus::gossip {

/// Counters exposed for tests and overhead benchmarks.
struct AgentCounters {
  std::uint64_t pings_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t indirect_probes_sent = 0;
  std::uint64_t events_originated = 0;
  std::uint64_t events_delivered = 0;
  std::uint64_t events_forwarded = 0;
  std::uint64_t suspicions_raised = 0;
  std::uint64_t members_declared_dead = 0;
  std::uint64_t refutations = 0;
};

/// A member of one gossip group.
class GroupAgent {
 public:
  /// What this agent believes about one peer (slab storage lives in
  /// MemberTable; the alias keeps the historical nested name working).
  using MemberInfo = gossip::MemberInfo;

  /// Invoked once per event delivered to this agent (origin included when it
  /// requests local delivery).
  using EventHandler = std::function<void(const EventPayload&)>;

  /// The config handle is shared and immutable: a fleet of agents (and every
  /// membership of one node) points at one Config instance instead of each
  /// carrying a ~100-byte copy — a per-membership saving that matters at
  /// 25k-node scale.
  GroupAgent(sim::Simulator& simulator, net::Transport& transport,
             net::Address self, Region region,
             std::shared_ptr<const Config> config, Rng rng);
  /// Convenience for tests/benches that tune a one-off config.
  GroupAgent(sim::Simulator& simulator, net::Transport& transport,
             net::Address self, Region region, Config config, Rng rng);
  ~GroupAgent();

  GroupAgent(const GroupAgent&) = delete;
  GroupAgent& operator=(const GroupAgent&) = delete;

  /// Register the application event handler (may be set before start()).
  void set_event_handler(EventHandler handler) { event_handler_ = std::move(handler); }

  /// Bind the transport endpoint and start protocol timers. A started agent
  /// with no peers is a 1-member group awaiting joins.
  void start();

  /// Send join requests to known group entry points. Safe to call with
  /// addresses that are stale; any live one suffices.
  void join(std::span<const net::Address> entry_points);

  /// Gracefully leave: disseminate a Left assertion and stop the agent.
  void leave();

  /// True between start() and leave()/destruction.
  bool running() const noexcept { return running_; }

  /// Originate an application event to the whole group.
  /// When `deliver_locally` is set the handler also fires on this agent.
  /// `trace` (optional) stitches the dissemination into a causal query
  /// trace: it is stored on the event core, so forwards and retransmits by
  /// any member keep carrying it.
  void broadcast(std::string topic, std::shared_ptr<const net::Payload> body,
                 bool deliver_locally = false, obs::TraceContext trace = {});

  /// Peers this agent currently believes alive (excluding self).
  std::vector<MemberInfo> alive_members() const;

  /// Alive group size including self.
  std::size_t alive_count() const;

  /// Believed state of one peer (materialized snapshot), or nullopt when
  /// unknown.
  std::optional<MemberInfo> member(NodeId id) const;

  /// This agent's bound address / node id / region.
  const net::Address& address() const noexcept { return self_; }
  NodeId id() const noexcept { return self_.node; }
  Region region() const noexcept { return region_; }

  /// Current incarnation number (grows only by refuting suspicion).
  std::uint32_t incarnation() const noexcept { return incarnation_; }

  /// Protocol statistics.
  const AgentCounters& counters() const noexcept { return counters_; }

  /// The protocol configuration in force.
  const Config& config() const noexcept { return *config_; }

  /// Read-only structural access for audits and tests.
  const MemberTable& members() const noexcept { return members_; }
  const PiggybackBuffer& piggyback_buffer() const noexcept { return piggyback_; }
  const EventBuffer& event_buffer() const noexcept { return events_; }
  std::uint64_t member_epoch() const noexcept { return member_epoch_; }

  /// Visit the per-peer delta-sync cursors: fn(peer, epoch).
  template <typename Fn>
  void for_each_sync_cursor(Fn&& fn) const {
    sync_sent_.for_each([&fn](const SyncCursor& cur) { fn(cur.key, cur.epoch); });
  }

 private:
  /// Sender-side anti-entropy state for one peer (`key`): our change epoch
  /// as of the last list we sent them, and how many deltas ran since the
  /// last full snapshot. One 16-byte NodeMap cell.
  struct SyncCursor {
    NodeId key;
    std::int32_t deltas_since_full = 0;
    std::uint64_t epoch = 0;
  };

  void tick();
  void probe_round();
  void dissemination_round();
  void sync_round();
  void send_ping(const net::Address& target, std::uint64_t seq,
                 const net::Address& reply_to);
  void start_probe(NodeId target, const net::Address& target_addr);
  std::size_t send_event_burst(const std::shared_ptr<const EventCore>& core);
  void on_message(const net::Message& msg);
  void handle_ping(const net::Message& msg);
  void handle_ack(const net::Message& msg);
  void handle_ping_req(const net::Message& msg);
  void handle_join(const net::Message& msg);
  void handle_member_list(const net::Message& msg);
  void handle_event(const net::Message& msg);
  void apply_updates(std::span<const MemberUpdate> updates);
  void apply_update(const MemberUpdate& update);
  void suspect_member(NodeId id);
  void declare_dead(NodeId id, MemberState terminal);
  void schedule_suspicion_check(NodeId id, std::uint32_t incarnation);
  void queue_update(const MemberUpdate& update);
  MemberUpdate self_update(MemberState state) const;
  static MemberUpdate update_for(const MemberInfo& info);
  void fill_member_list(MemberListPayload& out, NodeId peer, bool force_full);
  std::span<const net::Address> sample_alive(std::size_t k);
  void refresh_probe_order();

  sim::Simulator& simulator_;
  net::Transport& transport_;
  net::Address self_;
  Region region_;
  std::shared_ptr<const Config> config_;  // shared across agents, immutable
  Rng rng_;
  EventHandler event_handler_;

  MemberTable members_;  // peers (never self)
  std::vector<NodeId> probe_order_;
  std::size_t probe_index_ = 0;

  PiggybackBuffer piggyback_;
  EventBuffer events_;

  // Monotone counter bumped on every accepted membership change; members
  // stamp it so anti-entropy can ship "changed since cursor" deltas.
  std::uint64_t member_epoch_ = 0;
  NodeMap<SyncCursor> sync_sent_;

  // Reused scratch: random-target samples (and the O(fanout) table of
  // positions their sparse shuffle displaced) and per-round event batches.
  std::vector<net::Address> sample_scratch_;
  std::vector<std::uint64_t> sample_moved_;
  std::vector<std::shared_ptr<const EventCore>> round_scratch_;

  struct OutstandingPing {
    NodeId target;
    SimTime sent_at = 0;  ///< probe departure, for the RTT metric
    bool indirect_sent = false;
  };
  std::unordered_map<std::uint64_t, OutstandingPing> outstanding_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_event_seq_ = 1;
  std::uint32_t incarnation_ = 0;

  bool running_ = false;
  sim::TimerId tick_timer_ = 0;
  sim::TimerId probe_timer_ = 0;
  sim::TimerId sync_timer_ = 0;
  // Closures scheduled on the simulator check this flag so a destroyed or
  // stopped agent never executes protocol logic.
  std::shared_ptr<bool> alive_flag_ = std::make_shared<bool>(false);

  AgentCounters counters_;
};

}  // namespace focus::gossip
