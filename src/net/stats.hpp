#pragma once
// Per-node traffic accounting. The paper's headline metrics (Fig. 7a, 8b)
// are bandwidth at specific endpoints; this module is where those numbers
// come from.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "net/endpoints.hpp"
#include "net/message.hpp"
#include "net/msg_kind.hpp"

namespace focus::net {

/// Message and payload-allocation counters for one message kind. The
/// payload_builds column makes the shared-fanout-payload optimization
/// observable: a burst that stamps N envelopes around one shared payload
/// counts N msgs but only 1 build.
struct MsgKindStats {
  std::uint64_t msgs = 0;            ///< messages sent of this kind
  std::uint64_t payload_builds = 0;  ///< distinct payload objects sent
  std::uint64_t bytes = 0;           ///< wire bytes sent (incl. overhead)
};

/// Traffic counters for every node that sent or received a message.
///
/// The per-node counters live in the transport's endpoint records (see
/// EndpointTable), next to the node's handlers and down flag, so one probe
/// per endpoint serves both delivery and accounting; the transport charges
/// them through endpoints().
class NetStats {
 public:
  /// Per-kind send accounting. Counts the message and its wire bytes always;
  /// counts a payload build when `payload` is non-null and (kind, address)
  /// differs from the immediately preceding send — so consecutive sends
  /// sharing one payload (a fanout burst) are charged a single build. The
  /// shared_ptr is retained until the next send (or end_burst()), which pins
  /// the payload's address while it serves as the dedup key: a freed payload
  /// whose address the allocator reuses can therefore never masquerade as
  /// "same payload, still the same burst".
  void record_send(MsgKind kind, const std::shared_ptr<const Payload>& payload,
                   std::size_t wire_bytes);

  /// record_send for a whole message; returns its wire bytes. Consecutive
  /// sends of one payload object (a fanout burst) reuse the size computed
  /// for the first: payloads are immutable after send, and the pinned dedup
  /// key guarantees it is the same object.
  std::size_t record_send(const Message& msg);

  /// Explicit burst boundary: forget the last-seen payload so the next send
  /// is charged a build even if it reuses the same object. Also releases the
  /// pin on the last payload.
  void end_burst();

  /// Per-kind counters (zeroes for kinds never sent).
  MsgKindStats of_kind(MsgKind kind) const;

  /// Visit the counters of every kind that has actually been sent, in
  /// kind-value (interning) order: fn(spelling, stats).
  template <typename Fn>
  void for_each_kind(Fn&& fn) const {
    for (std::size_t v = 1; v < per_kind_.size(); ++v) {
      const MsgKindStats& s = per_kind_[v];
      if (s.msgs == 0) continue;
      fn(kind_spelling(static_cast<std::uint16_t>(v)), s);
    }
  }

  /// Count one delivered message.
  void count_delivered() { ++delivered_; }

  /// Count one dropped message (down node, loss, or no listener).
  void count_dropped() { ++dropped_; }

  /// Counters for one node (zeroes when it never communicated).
  EndpointStats of(NodeId node) const;

  /// Sum of counters across all nodes.
  EndpointStats total() const;

  /// Messages delivered overall.
  std::uint64_t delivered() const noexcept { return delivered_; }
  /// Messages dropped (destination down / unbound).
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Zero all counters. Endpoint handlers and down flags are kept.
  void reset();

  /// The per-node endpoint records (handlers, down flags, counters).
  EndpointTable& endpoints() noexcept { return endpoints_; }
  const EndpointTable& endpoints() const noexcept { return endpoints_; }

 private:
  EndpointTable endpoints_;
  std::vector<MsgKindStats> per_kind_;  // indexed by MsgKind::value()
  // Consecutive-send dedup for builds. Held as a shared_ptr (not a raw
  // address) so the dedup key's address cannot be recycled by the allocator
  // while it is still being compared against.
  std::shared_ptr<const Payload> last_payload_;
  std::uint16_t last_kind_value_ = 0;
  std::size_t last_wire_bytes_ = 0;  ///< wire bytes of the last send
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace focus::net
