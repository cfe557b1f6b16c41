#pragma once
// Wire payloads of the gossip protocol.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"
#include "obs/trace_context.hpp"

namespace focus::gossip {

/// Liveness state of a member as disseminated by the protocol.
enum class MemberState : std::uint8_t { Alive, Suspect, Dead, Left };

/// Readable name of a member state.
inline const char* to_string(MemberState s) {
  switch (s) {
    case MemberState::Alive: return "alive";
    case MemberState::Suspect: return "suspect";
    case MemberState::Dead: return "dead";
    case MemberState::Left: return "left";
  }
  return "?";
}

/// One membership assertion: "node N, listening on port P, is in state S
/// with incarnation I". A member's address always names the member itself
/// (agents assert only their own address and relay what they learned), so
/// only the port is stored: 12 bytes in memory instead of 20, while the wire
/// cost stays ~26 bytes (ids, address, state, incarnation).
struct MemberUpdate {
  NodeId node;
  std::uint16_t port = 0;
  Region region = Region::AppEdge;
  MemberState state = MemberState::Alive;
  std::uint32_t incarnation = 0;

  /// The member's gossip endpoint.
  net::Address addr() const noexcept { return net::Address{node, port}; }

  static constexpr std::size_t kWireBytes = 26;
};

/// Direct or indirect probe. `reply_to` routes the ack (for indirect probes
/// it is the original prober, so relays need no per-probe state).
struct PingPayload final : net::Payload {
  std::uint64_t seq = 0;
  net::Address reply_to;
  std::vector<MemberUpdate> updates;

  std::size_t wire_size() const override {
    return 14 + updates.size() * MemberUpdate::kWireBytes;
  }
};

/// Probe acknowledgement.
struct AckPayload final : net::Payload {
  std::uint64_t seq = 0;
  std::vector<MemberUpdate> updates;

  std::size_t wire_size() const override {
    return 8 + updates.size() * MemberUpdate::kWireBytes;
  }
};

/// Request to probe `target` on behalf of `reply_to`.
struct PingReqPayload final : net::Payload {
  std::uint64_t seq = 0;
  net::Address reply_to;
  net::Address target;
  std::vector<MemberUpdate> updates;

  std::size_t wire_size() const override {
    return 20 + updates.size() * MemberUpdate::kWireBytes;
  }
};

/// Join request carrying the joiner's identity.
struct JoinPayload final : net::Payload {
  MemberUpdate self;

  std::size_t wire_size() const override { return MemberUpdate::kWireBytes; }
};

/// Join response / anti-entropy exchange: a member list, either a full
/// snapshot or a delta. `since_epoch == 0` means the list is a complete
/// snapshot of the sender's membership view; a non-zero value is the sender's
/// change-epoch cursor, and `members` holds only entries that changed after
/// it (the sender tracks one cursor per peer and periodically falls back to a
/// full snapshot so a lost delta cannot wedge convergence).
struct MemberListPayload final : net::Payload {
  std::vector<MemberUpdate> members;
  std::uint64_t since_epoch = 0;  ///< 0 = full snapshot, else delta cursor
  bool reply_expected = false;    ///< true on the first half of a sync exchange

  std::size_t wire_size() const override {
    return 10 + members.size() * MemberUpdate::kWireBytes;
  }
};

/// Globally unique id of a user event: origin node plus origin-local seq.
struct EventId {
  NodeId origin;
  std::uint64_t seq = 0;

  constexpr auto operator<=>(const EventId&) const = default;
};

/// The immutable part of a user event: identity, topic, and opaque body.
/// Built exactly once when the event is originated or first received, then
/// shared (by `shared_ptr<const EventCore>`) across every retransmit round
/// and every fanout recipient — the topic string and body are never copied
/// again after construction.
struct EventCore {
  EventId id;
  std::string topic;
  std::shared_ptr<const net::Payload> body;
  /// Causal-trace tag of the broadcast that originated the event. Travels
  /// with the core across every hop and retransmit round (receivers adopt
  /// the received core), so traced queries stay stitched through gossip.
  /// Observability metadata only — not part of wire_size().
  obs::TraceContext trace;

  std::size_t wire_size() const {
    return 16 + topic.size() + (body ? body->wire_size() : 0);
  }
};

/// Application-level event disseminated epidemically through the group
/// (FOCUS uses this to spread queries). The immutable core is shared across
/// fanout recipients and retransmit rounds; only the piggybacked membership
/// updates vary per dissemination burst.
struct EventPayload final : net::Payload {
  std::shared_ptr<const EventCore> core;
  std::vector<MemberUpdate> updates;  ///< membership piggyback rides here too

  const EventId& id() const noexcept { return core->id; }
  const std::string& topic() const noexcept { return core->topic; }
  const std::shared_ptr<const net::Payload>& body() const noexcept {
    return core->body;
  }

  std::size_t wire_size() const override {
    return (core ? core->wire_size() : 16) +
           updates.size() * MemberUpdate::kWireBytes;
  }
};

}  // namespace focus::gossip

template <>
struct std::hash<focus::gossip::EventId> {
  std::size_t operator()(const focus::gossip::EventId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.origin.value) << 32) ^ id.seq);
  }
};
