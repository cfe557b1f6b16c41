#include "gossip/swim.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace focus::gossip {

namespace {
const net::MsgKind kPing = net::MsgKind::intern("swim.ping");
const net::MsgKind kAck = net::MsgKind::intern("swim.ack");
const net::MsgKind kPingReq = net::MsgKind::intern("swim.ping_req");
const net::MsgKind kJoin = net::MsgKind::intern("swim.join");
const net::MsgKind kMemberList = net::MsgKind::intern("swim.member_list");
const net::MsgKind kEvent = net::MsgKind::intern("swim.event");

// Tombstones (Dead/Left members) are garbage collected after this long so
// stale piggybacks cannot resurrect them, but the slab stays bounded.
constexpr Duration kTombstoneTtl = 60 * kSecond;
}  // namespace

GroupAgent::GroupAgent(sim::Simulator& simulator, net::Transport& transport,
                       net::Address self, Region region,
                       std::shared_ptr<const Config> config, Rng rng)
    : simulator_(simulator),
      transport_(transport),
      self_(self),
      region_(region),
      config_(std::move(config)),
      rng_(std::move(rng)) {
  FOCUS_CHECK(config_ != nullptr);
}

GroupAgent::GroupAgent(sim::Simulator& simulator, net::Transport& transport,
                       net::Address self, Region region, Config config, Rng rng)
    : GroupAgent(simulator, transport, self, region,
                 std::make_shared<const Config>(config), std::move(rng)) {}

GroupAgent::~GroupAgent() {
  if (running_) {
    *alive_flag_ = false;
    transport_.unbind(self_);
    simulator_.cancel(tick_timer_);
    simulator_.cancel(probe_timer_);
    simulator_.cancel(sync_timer_);
  }
}

void GroupAgent::start() {
  FOCUS_CHECK(!running_) << "GroupAgent started twice";
  running_ = true;
  *alive_flag_ = true;
  transport_.bind(self_, [this, alive = alive_flag_](const net::Message& msg) {
    if (*alive) on_message(msg);
  });
  // Desynchronize agents: first tick lands at a random phase of the interval
  // so thousands of agents do not probe in lockstep.
  const Duration phase = static_cast<Duration>(
      rng_.uniform(0.0, static_cast<double>(config_->interval)));
  tick_timer_ = simulator_.every(
      config_->interval, [this, alive = alive_flag_] { if (*alive) tick(); }, phase);
  probe_timer_ = simulator_.every(
      config_->probe_interval,
      [this, alive = alive_flag_] { if (*alive) probe_round(); },
      static_cast<Duration>(rng_.uniform(0.0, static_cast<double>(config_->probe_interval))));
  sync_timer_ = simulator_.every(
      config_->sync_interval,
      [this, alive = alive_flag_] { if (*alive) sync_round(); },
      static_cast<Duration>(rng_.uniform(0.0, static_cast<double>(config_->sync_interval))));
}

void GroupAgent::join(std::span<const net::Address> entry_points) {
  FOCUS_CHECK(running_) << "GroupAgent not started";
  for (const auto& entry : entry_points) {
    if (entry == self_) continue;
    // Fill the payload before it is wrapped as const — never const_cast a
    // payload that already sits inside a Message (focus-lint enforces this).
    auto payload = std::make_shared<JoinPayload>();
    payload->self = self_update(MemberState::Alive);
    transport_.send(net::Message{self_, entry, kJoin, std::move(payload)});
  }
}

void GroupAgent::leave() {
  if (!running_) return;
  // Tell a few peers directly; they disseminate the Left state for us. All
  // recipients share one immutable payload.
  const auto targets = sample_alive(static_cast<std::size_t>(config_->fanout));
  if (!targets.empty()) {
    auto payload = std::make_shared<AckPayload>();
    payload->seq = 0;
    payload->updates.push_back(self_update(MemberState::Left));
    const std::shared_ptr<const net::Payload> shared = std::move(payload);
    for (const auto& addr : targets) {
      transport_.send(net::Message{self_, addr, kAck, shared});
    }
  }
  running_ = false;
  *alive_flag_ = false;
  transport_.unbind(self_);
  simulator_.cancel(tick_timer_);
  simulator_.cancel(probe_timer_);
  simulator_.cancel(sync_timer_);
}

void GroupAgent::broadcast(std::string topic,
                           std::shared_ptr<const net::Payload> body,
                           bool deliver_locally, obs::TraceContext trace) {
  FOCUS_CHECK(running_) << "GroupAgent not started";
  auto core = std::make_shared<EventCore>();
  core->id = EventId{self_.node, next_event_seq_++};
  core->topic = std::move(topic);
  core->body = std::move(body);
  core->trace = trace;
  const std::shared_ptr<const EventCore> shared = std::move(core);
  ++counters_.events_originated;
  // Register with one round of budget already consumed: we transmit the
  // first round immediately for latency, later rounds ride on ticks.
  events_.add(shared, config_->event_retransmit_rounds - 1);
  send_event_burst(shared);
  if (deliver_locally && event_handler_) {
    ++counters_.events_delivered;
    EventPayload local;
    local.core = shared;
    event_handler_(local);
  }
}

std::vector<GroupAgent::MemberInfo> GroupAgent::alive_members() const {
  std::vector<MemberInfo> out;
  out.reserve(members_.size());
  members_.for_each([&out](const MemberInfo& info) {
    if (MemberTable::is_alive(info.state)) out.push_back(info);
  });
  std::sort(out.begin(), out.end(),
            [](const MemberInfo& a, const MemberInfo& b) { return a.id < b.id; });
  return out;
}

std::size_t GroupAgent::alive_count() const {
  return members_.alive_slots().size() + 1;  // + self
}

std::optional<GroupAgent::MemberInfo> GroupAgent::member(NodeId id) const {
  const std::uint32_t slot = members_.find_slot(id);
  if (slot == MemberTable::kNoSlot) return std::nullopt;
  return members_.info(slot);
}

// ---------------------------------------------------------------------------
// Protocol rounds

void GroupAgent::tick() { dissemination_round(); }

FOCUS_HOT void GroupAgent::probe_round() {
  // Garbage-collect expired tombstones (piggybacked on the slow timer; a
  // no-op unless a Dead/Left member actually exists). Delta-sync cursors for
  // forgotten peers go with them.
  members_.sweep_tombstones(simulator_.now(), kTombstoneTtl,
                            [this](NodeId id) { sync_sent_.erase(id); });
  // SWIM round-robin probing over a shuffled member list: every member is
  // probed within n intervals, giving a deterministic detection bound.
  if (members_.alive_slots().empty()) return;
  if (probe_index_ >= probe_order_.size()) refresh_probe_order();
  while (probe_index_ < probe_order_.size()) {
    const std::uint32_t slot = members_.find_slot(probe_order_[probe_index_++]);
    if (slot == MemberTable::kNoSlot ||
        !MemberTable::is_alive(members_.state(slot))) {
      continue;
    }
    start_probe(members_.id(slot), members_.addr(slot));
    return;
  }
}

void GroupAgent::refresh_probe_order() {
  probe_order_.clear();
  probe_order_.reserve(members_.alive_slots().size());  // exact, not doubled
  for (const std::uint32_t slot : members_.alive_slots()) {
    probe_order_.push_back(members_.id(slot));
  }
  rng_.shuffle(probe_order_);
  probe_index_ = 0;
}

void GroupAgent::start_probe(NodeId target, const net::Address& addr) {
  const std::uint64_t seq = next_seq_++;
  outstanding_.emplace(seq, OutstandingPing{target, simulator_.now(), false});
  send_ping(addr, seq, self_);
  ++counters_.pings_sent;

  const NodeId target_id = target;
  const net::Address target_addr = addr;
  // Stage 1: direct timeout -> indirect probes through k random peers.
  simulator_.schedule_after(config_->ping_timeout, [this, alive = alive_flag_, seq,
                                                   target_id, target_addr] {
    if (!*alive) return;
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;  // acked
    it->second.indirect_sent = true;
    const auto helpers =
        sample_alive(static_cast<std::size_t>(config_->indirect_probes));
    std::shared_ptr<const net::Payload> shared;
    for (const auto& helper : helpers) {
      if (helper == target_addr) continue;
      if (!shared) {
        // One immutable request shared by every relay.
        auto payload = std::make_shared<PingReqPayload>();
        payload->seq = seq;
        payload->reply_to = self_;
        payload->target = target_addr;
        piggyback_.take_into(payload->updates, config_->max_piggyback);
        shared = std::move(payload);
      }
      transport_.send(net::Message{self_, helper, kPingReq, shared});
      ++counters_.indirect_probes_sent;
    }
    // Stage 2: end of protocol period without any ack -> suspect.
    simulator_.schedule_after(
        config_->interval, [this, alive2 = alive_flag_, seq, target_id] {
          if (!*alive2) return;
          auto it2 = outstanding_.find(seq);
          if (it2 == outstanding_.end()) return;
          outstanding_.erase(it2);
          suspect_member(target_id);
        });
  });
}

FOCUS_HOT void GroupAgent::send_ping(const net::Address& target,
                                     std::uint64_t seq,
                                     const net::Address& reply_to) {
  // focus-lint: allow(hot-path-hygiene): one payload per ping is the protocol
  // unit — each probe carries a distinct seq, so nothing can be shared.
  auto payload = std::make_shared<PingPayload>();
  payload->seq = seq;
  payload->reply_to = reply_to;
  piggyback_.take_into(payload->updates, config_->max_piggyback);
  transport_.send(net::Message{self_, target, kPing, std::move(payload)});
}

FOCUS_HOT std::size_t GroupAgent::send_event_burst(
    const std::shared_ptr<const EventCore>& core) {
  const auto targets = sample_alive(static_cast<std::size_t>(config_->fanout));
  if (targets.empty()) return 0;
  // One payload for the whole burst: the event core is already shared, the
  // piggyback batch is drawn once and rides to every recipient.
  // focus-lint: allow(hot-path-hygiene): exactly ONE allocation per fanout
  // burst (not per recipient) — this is the PR4 shared-payload design.
  auto payload = std::make_shared<EventPayload>();
  payload->core = core;
  piggyback_.take_into(payload->updates, config_->max_piggyback);
  const std::shared_ptr<const net::Payload> shared = std::move(payload);
  for (const auto& addr : targets) {
    // Envelopes inherit the core's trace tag so per-hop spans stitch into
    // the originating query's tree even on forward/retransmit bursts.
    transport_.send(net::Message{self_, addr, kEvent, shared, core->trace});
  }
  return targets.size();
}

FOCUS_HOT void GroupAgent::dissemination_round() {
  events_.take_round_into(round_scratch_);
  for (const auto& core : round_scratch_) {
    counters_.events_forwarded += send_event_burst(core);
  }
}

void GroupAgent::sync_round() {
  // Anti-entropy: push-pull member lists with one random peer (delta against
  // the per-peer cursor, periodically a full snapshot).
  const auto targets = sample_alive(1);
  if (targets.empty()) return;
  auto payload = std::make_shared<MemberListPayload>();
  fill_member_list(*payload, targets.front().node, /*force_full=*/false);
  payload->reply_expected = true;
  transport_.send(net::Message{self_, targets.front(), kMemberList, std::move(payload)});
}

// ---------------------------------------------------------------------------
// Message handling

void GroupAgent::on_message(const net::Message& msg) {
  if (msg.kind == kPing) {
    handle_ping(msg);
  } else if (msg.kind == kAck) {
    handle_ack(msg);
  } else if (msg.kind == kPingReq) {
    handle_ping_req(msg);
  } else if (msg.kind == kJoin) {
    handle_join(msg);
  } else if (msg.kind == kMemberList) {
    handle_member_list(msg);
  } else if (msg.kind == kEvent) {
    handle_event(msg);
  }
}

void GroupAgent::handle_ping(const net::Message& msg) {
  const auto& ping = msg.as<PingPayload>();
  apply_updates(ping.updates);
  auto payload = std::make_shared<AckPayload>();
  payload->seq = ping.seq;
  piggyback_.take_into(payload->updates, config_->max_piggyback);
  transport_.send(net::Message{self_, ping.reply_to, kAck, std::move(payload)});
  ++counters_.acks_sent;
}

void GroupAgent::handle_ack(const net::Message& msg) {
  const auto& ack = msg.as<AckPayload>();
  apply_updates(ack.updates);
  if (ack.seq == 0) return;
  const auto it = outstanding_.find(ack.seq);
  if (it == outstanding_.end()) return;  // late duplicate ack
  static const obs::MetricId kProbeRtt =
      obs::MetricId::histogram("gossip.probe_rtt_us");
  obs::metrics().observe(
      kProbeRtt, static_cast<double>(simulator_.now() - it->second.sent_at));
  outstanding_.erase(it);
}

void GroupAgent::handle_ping_req(const net::Message& msg) {
  const auto& req = msg.as<PingReqPayload>();
  apply_updates(req.updates);
  // Relay a ping whose ack goes straight back to the original prober; the
  // relay itself keeps no per-probe state.
  send_ping(req.target, req.seq, req.reply_to);
}

void GroupAgent::handle_join(const net::Message& msg) {
  const auto& join = msg.as<JoinPayload>();
  apply_update(join.self);
  // Joiners always get a full snapshot (their delta cursor state is void).
  auto payload = std::make_shared<MemberListPayload>();
  fill_member_list(*payload, msg.from.node, /*force_full=*/true);
  payload->reply_expected = false;
  transport_.send(net::Message{self_, msg.from, kMemberList, std::move(payload)});
}

void GroupAgent::handle_member_list(const net::Message& msg) {
  const auto& list = msg.as<MemberListPayload>();
  apply_updates(list.members);
  if (list.reply_expected) {
    auto payload = std::make_shared<MemberListPayload>();
    fill_member_list(*payload, msg.from.node, /*force_full=*/false);
    payload->reply_expected = false;
    transport_.send(net::Message{self_, msg.from, kMemberList, std::move(payload)});
  }
}

void GroupAgent::handle_event(const net::Message& msg) {
  const auto& event = msg.as<EventPayload>();
  apply_updates(event.updates);
  // The received immutable core is adopted as-is: no copy of topic or body
  // for local retransmission rounds.
  if (!events_.add(event.core, config_->event_retransmit_rounds)) {
    return;  // duplicate
  }
  ++counters_.events_delivered;
  if (event_handler_) event_handler_(event);
}

// ---------------------------------------------------------------------------
// Membership state machine

void GroupAgent::apply_updates(std::span<const MemberUpdate> updates) {
  for (const auto& update : updates) apply_update(update);
}

void GroupAgent::apply_update(const MemberUpdate& update) {
  if (update.node == self_.node) {
    // Someone thinks we are suspect/dead: refute with a higher incarnation.
    if ((update.state == MemberState::Suspect || update.state == MemberState::Dead) &&
        update.incarnation >= incarnation_) {
      incarnation_ = update.incarnation + 1;
      ++counters_.refutations;
      queue_update(self_update(MemberState::Alive));
    }
    return;
  }

  const std::uint32_t existing = members_.find_slot(update.node);
  if (existing == MemberTable::kNoSlot) {
    if (update.state == MemberState::Dead || update.state == MemberState::Left) {
      return;  // no need to learn about nodes already gone
    }
    const std::uint32_t slot = members_.insert(update.node, update.state);
    members_.set_port(slot, update.port);
    members_.set_region(slot, update.region);
    members_.set_incarnation(slot, update.incarnation);
    members_.set_since(slot, simulator_.now());
    members_.set_changed_epoch(slot, ++member_epoch_);
    queue_update(update);
    if (update.state == MemberState::Suspect) {
      // Start the suspicion clock locally as well.
      schedule_suspicion_check(update.node, update.incarnation);
    }
    return;
  }

  const std::uint32_t slot = existing;
  const MemberState held = members_.state(slot);
  const std::uint32_t held_incarnation = members_.incarnation(slot);
  bool accepted = false;
  switch (update.state) {
    case MemberState::Alive:
      // Alive overrides Suspect at the same incarnation only when newer.
      if (update.incarnation > held_incarnation ||
          (update.incarnation == held_incarnation && held == MemberState::Dead)) {
        accepted = true;
      } else if (update.incarnation == held_incarnation &&
                 held == MemberState::Left) {
        accepted = false;  // leave is final for that incarnation
      } else if (update.incarnation == held_incarnation &&
                 held == MemberState::Alive) {
        members_.set_port(slot, update.port);  // benign refresh
      }
      break;
    case MemberState::Suspect:
      if (update.incarnation >= held_incarnation && held == MemberState::Alive) {
        accepted = true;
      }
      break;
    case MemberState::Dead:
    case MemberState::Left:
      if (update.incarnation >= held_incarnation &&
          held != MemberState::Dead && held != MemberState::Left) {
        accepted = true;
      }
      break;
  }
  if (!accepted) return;

  members_.set_state(slot, update.state);
  members_.set_incarnation(slot, update.incarnation);
  members_.set_port(slot, update.port);
  members_.set_region(slot, update.region);
  members_.set_since(slot, simulator_.now());
  members_.set_changed_epoch(slot, ++member_epoch_);
  queue_update(update);
  if (update.state == MemberState::Suspect) {
    schedule_suspicion_check(update.node, update.incarnation);
  }
}

void GroupAgent::suspect_member(NodeId id) {
  const std::uint32_t slot = members_.find_slot(id);
  if (slot == MemberTable::kNoSlot ||
      members_.state(slot) != MemberState::Alive) {
    return;
  }
  members_.set_state(slot, MemberState::Suspect);
  members_.set_since(slot, simulator_.now());
  members_.set_changed_epoch(slot, ++member_epoch_);
  ++counters_.suspicions_raised;
  queue_update(update_for(members_.info(slot)));
  schedule_suspicion_check(id, members_.incarnation(slot));
}

void GroupAgent::declare_dead(NodeId id, MemberState terminal) {
  const std::uint32_t slot = members_.find_slot(id);
  if (slot == MemberTable::kNoSlot) return;
  const MemberState before = members_.set_state(slot, terminal);
  members_.set_since(slot, simulator_.now());
  members_.set_changed_epoch(slot, ++member_epoch_);
  ++counters_.members_declared_dead;
  if (before == MemberState::Suspect && terminal == MemberState::Dead) {
    static const obs::MetricId kSuspectToDead =
        obs::MetricId::counter("gossip.suspect_to_dead");
    obs::metrics().add(kSuspectToDead, 1);
  }
  queue_update(update_for(members_.info(slot)));
  FOCUS_LOG(Debug, "swim", to_string(self_.node) << " declares "
                                                 << to_string(id) << " "
                                                 << to_string(terminal));
}

void GroupAgent::schedule_suspicion_check(NodeId id, std::uint32_t incarnation) {
  simulator_.schedule_after(
      config_->suspicion_timeout, [this, alive = alive_flag_, id, incarnation] {
        if (!*alive) return;
        // Hot-column read only: the check touches state + incarnation.
        const std::uint32_t slot = members_.find_slot(id);
        if (slot != MemberTable::kNoSlot &&
            members_.state(slot) == MemberState::Suspect &&
            members_.incarnation(slot) == incarnation) {
          declare_dead(id, MemberState::Dead);
        }
      });
}

FOCUS_HOT void GroupAgent::queue_update(const MemberUpdate& update) {
  piggyback_.add(update, config_->piggyback_copies);
}

MemberUpdate GroupAgent::self_update(MemberState state) const {
  MemberUpdate u;
  u.node = self_.node;
  u.port = self_.port;
  u.region = region_;
  u.state = state;
  u.incarnation = incarnation_;
  return u;
}

MemberUpdate GroupAgent::update_for(const MemberInfo& info) {
  MemberUpdate u;
  u.node = info.id;
  u.port = info.addr.port;
  u.region = info.region;
  u.state = info.state;
  u.incarnation = info.incarnation;
  return u;
}

FOCUS_HOT void GroupAgent::fill_member_list(MemberListPayload& out,
                                            NodeId peer,
                                  bool force_full) {
  SyncCursor& cursor = sync_sent_.find_or_insert(peer);
  const bool full = force_full || cursor.epoch == 0 ||
                    config_->sync_full_every <= 1 ||
                    cursor.deltas_since_full + 1 >= config_->sync_full_every;
  out.members.clear();
  // The sender's own Alive assertion leads every list, full or delta: it
  // doubles as the liveness heartbeat of the exchange.
  out.members.push_back(self_update(MemberState::Alive));
  if (full) {
    out.since_epoch = 0;
    out.members.reserve(members_.size() + 1);
    members_.for_each(
        [&out](const MemberInfo& m) { out.members.push_back(update_for(m)); });
    cursor.deltas_since_full = 0;
  } else {
    out.since_epoch = cursor.epoch;
    members_.for_each([&out, &cursor](const MemberInfo& m) {
      if (m.changed_epoch > cursor.epoch) out.members.push_back(update_for(m));
    });
    ++cursor.deltas_since_full;
  }
  cursor.epoch = member_epoch_;
}

FOCUS_HOT std::span<const net::Address> GroupAgent::sample_alive(
    std::size_t k) {
  sample_scratch_.clear();
  const auto& alive = members_.alive_slots();
  if (alive.empty() || k == 0) return {};
  // Sparse partial Fisher-Yates: O(k) per sample whatever the group size,
  // with the same rng draws as a shuffle of the whole alive view.
  sample_scratch_.reserve(std::min(k, alive.size()));
  rng_.sample_indices(alive.size(), k, sample_moved_, [this, &alive](std::uint32_t i) {
    sample_scratch_.push_back(members_.addr(alive[i]));
  });
  return {sample_scratch_.data(), sample_scratch_.size()};
}

}  // namespace focus::gossip
