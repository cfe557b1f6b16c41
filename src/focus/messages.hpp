#pragma once
// Wire payloads of the FOCUS protocol: registration, group management,
// reports, and the query path. Wire sizes approximate the JSON/REST encoding
// the paper uses (fixed framing plus per-entry costs); the JSON encodings
// themselves live in focus/api.hpp for integration surfaces.

#include <cstdint>
#include <string>
#include <vector>

#include "focus/group_naming.hpp"
#include "focus/query.hpp"
#include "net/message.hpp"

namespace focus::core {

// Message kinds (southbound: nodes <-> service; northbound: apps <-> service).
// Interned once at static init; comparisons and sends are integer-cheap.
inline const net::MsgKind kRegister = net::MsgKind::intern("focus.register");
inline const net::MsgKind kRegisterAck = net::MsgKind::intern("focus.register_ack");
inline const net::MsgKind kSuggest = net::MsgKind::intern("focus.suggest");
inline const net::MsgKind kSuggestAck = net::MsgKind::intern("focus.suggest_ack");
inline const net::MsgKind kJoined = net::MsgKind::intern("focus.joined");
inline const net::MsgKind kLeftGroup = net::MsgKind::intern("focus.left_group");
inline const net::MsgKind kRepAssign = net::MsgKind::intern("focus.rep_assign");
inline const net::MsgKind kGroupReport = net::MsgKind::intern("focus.group_report");
inline const net::MsgKind kQuery = net::MsgKind::intern("focus.query");
inline const net::MsgKind kQueryResponse = net::MsgKind::intern("focus.query_response");
inline const net::MsgKind kGroupQuery = net::MsgKind::intern("focus.group_query");
inline const net::MsgKind kMemberState = net::MsgKind::intern("focus.member_state");
inline const net::MsgKind kGroupResponse = net::MsgKind::intern("focus.group_response");
inline const net::MsgKind kNodeQuery = net::MsgKind::intern("focus.node_query");
inline const net::MsgKind kNodeState = net::MsgKind::intern("focus.node_state");

/// Estimated wire bytes of a NodeState (JSON-ish: per-attribute key+value).
/// Attributes travel as interned ids in-process, but the wire encoding ships
/// the spelling, so sizes charge the name length — byte-identical to the
/// pre-interning accounting.
inline std::size_t wire_size_of(const NodeState& s) {
  std::size_t bytes = 24;  // node id, region, timestamp, braces
  for (const auto& [k, v] : s.dynamic_values) {
    (void)v;
    bytes += k.name().size() + 10;
  }
  for (const auto& [k, v] : s.static_values) {
    bytes += k.name().size() + v.size() + 6;
  }
  return bytes;
}

/// Estimated wire bytes of a Query.
inline std::size_t wire_size_of(const Query& q) {
  std::size_t bytes = 28;  // limit, freshness, location, framing
  for (const auto& t : q.terms) bytes += t.attr.name().size() + 20;
  for (const auto& t : q.static_terms) {
    bytes += t.attr.name().size() + t.value.size() + 6;
  }
  return bytes;
}

/// Estimated wire bytes of one result entry.
inline std::size_t wire_size_of(const ResultEntry& e) {
  std::size_t bytes = 22;  // node id, region, timestamp
  for (const auto& [k, v] : e.values) {
    (void)v;
    bytes += k.name().size() + 10;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Registration & group management (southbound)

/// Node -> Registrar: initial registration (§VIII-A-1). Carries the node's
/// full state plus the command address FOCUS uses to reach the node agent.
struct RegisterPayload final : net::Payload {
  NodeState state;
  net::Address command_addr;

  std::size_t wire_size() const override { return 12 + wire_size_of(state); }
};

/// One group the DGM tells a node to join (§VII "Dynamic Groups Management").
struct GroupSuggestion {
  AttrId attr;
  std::string group;                       ///< deterministic group name
  GroupRange range;                        ///< leave when value exits this
  std::vector<net::Address> entry_points;  ///< empty => start a new group
};

/// Registrar -> node: suggestions for every dynamic attribute.
struct RegisterAckPayload final : net::Payload {
  std::vector<GroupSuggestion> suggestions;

  std::size_t wire_size() const override {
    std::size_t bytes = 8;
    for (const auto& s : suggestions) {
      bytes += s.group.size() + s.attr.name().size() + 24 +
               s.entry_points.size() * 8;
    }
    return bytes;
  }
};

/// Node -> DGM: my value for `attr` left my group's range; where do I go?
struct SuggestRequestPayload final : net::Payload {
  NodeId node;
  Region region = Region::AppEdge;
  net::Address command_addr;
  AttrId attr;
  double value = 0;

  std::size_t wire_size() const override { return 30 + attr.name().size(); }
};

/// DGM -> node: the group to join for that attribute.
struct SuggestAckPayload final : net::Payload {
  GroupSuggestion suggestion;

  std::size_t wire_size() const override {
    return 12 + suggestion.group.size() + suggestion.attr.name().size() +
           suggestion.entry_points.size() * 8;
  }
};

/// Node -> DGM: I have started/joined `group`; my p2p agent listens at
/// `p2p_addr` (entry point registration, §VIII-B "p2p Agents").
struct JoinedPayload final : net::Payload {
  NodeId node;
  Region region = Region::AppEdge;
  std::string group;
  net::Address p2p_addr;

  std::size_t wire_size() const override { return 24 + group.size(); }
};

/// Node -> DGM: I left `group` (moved buckets or shut down).
struct LeftGroupPayload final : net::Payload {
  NodeId node;
  std::string group;

  std::size_t wire_size() const override { return 14 + group.size(); }
};

/// DGM -> node: start (or stop) acting as a representative for `group`.
struct RepAssignPayload final : net::Payload {
  std::string group;
  bool assign = true;

  std::size_t wire_size() const override { return 10 + group.size(); }
};

/// One member entry in a group report.
struct MemberRecord {
  NodeId node;
  net::Address p2p_addr;
  Region region = Region::AppEdge;

  static constexpr std::size_t kWireBytes = 30;
};

/// Representative -> DGM: the group's member list (§VII "Group Member List
/// through Representatives"). Full reports carry every member; delta reports
/// carry joins in `members` and departures in `departed`.
struct GroupReportPayload final : net::Payload {
  std::string group;
  bool full = true;
  std::vector<MemberRecord> members;
  std::vector<NodeId> departed;

  std::size_t wire_size() const override {
    return 16 + group.size() + members.size() * MemberRecord::kWireBytes +
           departed.size() * 6;
  }
};

// ---------------------------------------------------------------------------
// Materialized views (§XII future work, implemented as an extension):
// standing queries kept up to date by node-side event triggers.

inline const net::MsgKind kViewRegister = net::MsgKind::intern("focus.view_register");
inline const net::MsgKind kViewAck = net::MsgKind::intern("focus.view_ack");
inline const net::MsgKind kViewUnregister = net::MsgKind::intern("focus.view_unregister");
inline const net::MsgKind kViewInstall = net::MsgKind::intern("focus.view_install");
inline const net::MsgKind kViewEvent = net::MsgKind::intern("focus.view_event");
inline const net::MsgKind kViewNotify = net::MsgKind::intern("focus.view_notify");

/// Application -> service: materialize `query` and stream membership changes
/// to `subscriber`.
struct ViewRegisterPayload final : net::Payload {
  std::uint64_t client_tag = 0;  ///< echoed in the ack
  Query query;
  net::Address subscriber;

  std::size_t wire_size() const override { return 20 + wire_size_of(query); }
};

/// Service -> application: the view id plus the seeded initial members, or
/// (non-empty `error`) the reason the seed failed and the view was withdrawn.
struct ViewAckPayload final : net::Payload {
  std::uint64_t client_tag = 0;
  std::uint64_t view_id = 0;
  std::vector<ResultEntry> initial;
  std::string error;

  std::size_t wire_size() const override {
    std::size_t bytes = 20 + error.size();
    for (const auto& e : initial) bytes += wire_size_of(e);
    return bytes;
  }
};

/// Application -> service: stop maintaining the view.
struct ViewUnregisterPayload final : net::Payload {
  std::uint64_t view_id = 0;

  std::size_t wire_size() const override { return 12; }
};

/// One installed view predicate shipped to a node.
struct ViewSpec {
  std::uint64_t view_id = 0;
  Query query;
};

/// Service -> node: install (or withdraw) view predicates. Nodes evaluate
/// them on every poll and report transitions — the paper's "event triggers".
struct ViewInstallPayload final : net::Payload {
  std::vector<ViewSpec> install;
  std::vector<std::uint64_t> withdraw;

  std::size_t wire_size() const override {
    std::size_t bytes = 10 + withdraw.size() * 8;
    for (const auto& spec : install) bytes += 8 + wire_size_of(spec.query);
    return bytes;
  }
};

/// Node -> service: this node entered or left a view's match set.
struct ViewEventPayload final : net::Payload {
  std::uint64_t view_id = 0;
  bool entered = false;
  NodeState state;

  std::size_t wire_size() const override { return 10 + wire_size_of(state); }
};

/// Service -> subscriber: view membership change.
struct ViewNotifyPayload final : net::Payload {
  std::uint64_t view_id = 0;
  bool entered = false;
  ResultEntry entry;

  std::size_t wire_size() const override { return 10 + wire_size_of(entry); }
};

// ---------------------------------------------------------------------------
// Query path

/// Application -> Query Router: execute `query`, reply to `reply_to`.
struct QueryPayload final : net::Payload {
  std::uint64_t query_id = 0;
  Query query;
  net::Address reply_to;

  std::size_t wire_size() const override { return 16 + wire_size_of(query); }
};

/// One delegated target: contact this group member yourself.
struct DelegateTarget {
  std::string group;
  net::Address member;
  Duration collect_window = 0;
  std::size_t expected_members = 0;
};

/// Query Router -> application: the result — or, when `delegated`, the list
/// of group members the application must query itself (§VI "Optimizations").
struct QueryResponsePayload final : net::Payload {
  std::uint64_t query_id = 0;
  QueryResult result;
  bool delegated = false;
  std::vector<DelegateTarget> targets;

  std::size_t wire_size() const override {
    std::size_t bytes = 24 + result.error.size();
    for (const auto& e : result.entries) bytes += wire_size_of(e);
    for (const auto& t : targets) bytes += t.group.size() + 16;
    return bytes;
  }
};

/// Router (or delegated client) -> a group member chosen as coordinator:
/// disseminate `query` through `group` and send back the aggregate.
struct GroupQueryPayload final : net::Payload {
  std::uint64_t query_id = 0;
  std::string group;
  Query query;
  net::Address reply_to;
  Duration collect_window = 0;

  std::size_t wire_size() const override {
    return 28 + group.size() + wire_size_of(query);
  }
};

/// Group member -> coordinator: my current state (members respond with their
/// state; the coordinator filters, §VI).
struct MemberStatePayload final : net::Payload {
  std::uint64_t query_id = 0;
  NodeState state;

  std::size_t wire_size() const override { return 8 + wire_size_of(state); }
};

/// Coordinator -> router/client: matching entries from one group.
struct GroupResponsePayload final : net::Payload {
  std::uint64_t query_id = 0;
  std::string group;
  std::vector<ResultEntry> entries;
  std::size_t members_heard = 0;  ///< how many member states arrived
  bool complete = false;          ///< every believed-alive member responded

  std::size_t wire_size() const override {
    std::size_t bytes = 22 + group.size();
    for (const auto& e : entries) bytes += wire_size_of(e);
    return bytes;
  }
};

/// Gossip user-event topic used to disseminate queries through groups.
inline constexpr const char* kQueryEventTopic = "focus.query";

/// Body of the gossip event spreading a query through a group: members send
/// their state to `coordinator` tagged with `collect_id`.
struct GroupQueryEventPayload final : net::Payload {
  std::uint64_t collect_id = 0;
  Query query;
  net::Address coordinator;

  std::size_t wire_size() const override { return 16 + wire_size_of(query); }
};

/// Router -> a transitioning node: direct state pull (§VII transition table).
struct NodeQueryPayload final : net::Payload {
  std::uint64_t query_id = 0;
  net::Address reply_to;

  std::size_t wire_size() const override { return 16; }
};

/// Transitioning node -> router: my current state.
struct NodeStatePayload final : net::Payload {
  std::uint64_t query_id = 0;
  NodeState state;

  std::size_t wire_size() const override { return 8 + wire_size_of(state); }
};

}  // namespace focus::core
