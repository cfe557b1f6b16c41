#include "net/sim_transport.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace focus::net {

namespace {
/// Loopback (same-node) delivery latency: kernel-bypass, not WAN.
constexpr Duration kLoopbackDelay = 50;

/// Record a zero-duration "net.drop" event for a traced message that the
/// network swallowed (dead endpoint, datagram loss, unbound port).
void trace_drop(const Message& msg, SimTime at) {
  static const obs::Name kDrop = obs::Name::intern("net.drop");
  obs::Tracer& tr = obs::tracer();
  if (msg.trace && tr.enabled()) {
    tr.instant(msg.trace.trace_id, msg.trace.span_id, kDrop, msg.to.node, at);
  }
}
}  // namespace

SimTransport::SimTransport(sim::Simulator& simulator, Topology& topology, Rng rng)
    : simulator_(simulator), topology_(topology), rng_(std::move(rng)) {}

void SimTransport::bind(const Address& addr, Handler handler) {
  auto ptr = std::make_shared<const Handler>(std::move(handler));
  Endpoint& e = stats_.endpoints().get(addr.node);
  for (Endpoint::Port& p : e.ports) {
    if (p.port == addr.port) {
      p.handler = std::move(ptr);
      return;
    }
  }
  e.ports.push_back(Endpoint::Port{addr.port, std::move(ptr)});
}

void SimTransport::unbind(const Address& addr) {
  Endpoint* e = stats_.endpoints().find(addr.node);
  if (e == nullptr) return;
  std::erase_if(e->ports,
                [&addr](const Endpoint::Port& p) { return p.port == addr.port; });
}

void SimTransport::set_node_down(NodeId node, bool down) {
  if (down) {
    stats_.endpoints().get(node).down = true;
  } else if (Endpoint* e = stats_.endpoints().find(node)) {
    e->down = false;
  }
}

FOCUS_HOT void SimTransport::send(Message msg) {
  Endpoint& src = stats_.endpoints().get(msg.from.node);
  if (src.down) {
    return;  // a dead node transmits nothing
  }
  const std::size_t bytes = stats_.record_send(msg);
  // Loopback (same-node) messages never touch the NIC: deliver almost
  // immediately, charge no bandwidth, and skip datagram loss. This matters
  // for colocated deployments (e.g. a broker on the controller host).
  if (msg.from.node == msg.to.node) {
    deliver_at(kLoopbackDelay, std::move(msg), /*rx_bytes=*/0);
    return;
  }
  src.traffic.add_tx(bytes);
  if (stager_ != nullptr) {
    const std::size_t dest_shard = topology_.shard_of(msg.to.node);
    if (dest_shard != shard_index_) {
      // Cross-shard: sample loss and latency here (this shard's rng keeps
      // per-shard randomness self-contained and worker-count independent),
      // then stage the absolute-time delivery for the barrier merge. The
      // destination-down check is delivery-time only — the authoritative
      // down-set lives in the destination shard's transport.
      if (loss_rate_ > 0 && rng_.chance(loss_rate_)) {
        stats_.count_dropped();
        trace_drop(msg, simulator_.now());
        return;
      }
      const Duration latency =
          topology_.sample_latency(msg.from.node, msg.to.node, rng_);
      StagedMessage staged;
      staged.deliver_at = simulator_.now() + latency;
      staged.sent_at = simulator_.now();
      staged.rx_bytes = bytes;
#ifndef NDEBUG
      staged.sent_bytes = bytes;
#endif
      staged.msg = std::move(msg);
      stager_->stage(shard_index_, dest_shard, std::move(staged));
      return;
    }
  }
  const Endpoint* dst = stats_.endpoints().find(msg.to.node);
  if ((dst != nullptr && dst->down) ||
      (loss_rate_ > 0 && rng_.chance(loss_rate_))) {
    stats_.count_dropped();
    trace_drop(msg, simulator_.now());
    return;
  }
  const Duration latency =
      topology_.sample_latency(msg.from.node, msg.to.node, rng_);
  deliver_at(latency, std::move(msg), bytes);
}

FOCUS_HOT void SimTransport::accept_staged(StagedMessage staged) {
  schedule_delivery(staged.deliver_at, std::move(staged.msg), staged.rx_bytes,
                    staged.sent_bytes, staged.sent_at);
}

void SimTransport::deliver_at(Duration delay, Message msg, std::size_t rx_bytes) {
  // Payload immutability audit (debug builds): stamp the serialized size at
  // send time and re-derive it at delivery. Payloads are shared across fanout
  // recipients, so any mutation after send corrupts other deliveries — the
  // size mismatch catches the common cases (resized piggyback vector,
  // swapped body) at the exact offending message.
#ifndef NDEBUG
  const std::size_t sent_bytes = msg.wire_bytes();
#else
  const std::size_t sent_bytes = 0;
#endif
  // Captured unconditionally (not only when tracing) so the closure's size
  // and behavior are identical with tracing on or off.
  const SimTime sent_at = simulator_.now();
  schedule_delivery(simulator_.now() + delay, std::move(msg), rx_bytes,
                    sent_bytes, sent_at);
}

void SimTransport::schedule_delivery(SimTime at, Message msg,
                                     std::size_t rx_bytes,
                                     std::size_t sent_bytes, SimTime sent_at) {
  // One move of the Message into the closure; the closure itself fits the
  // kernel's inline task storage, so a send schedules without allocating.
  simulator_.schedule_at(at, [this, rx_bytes, sent_bytes, sent_at,
                              m = std::move(msg)]() {
    FOCUS_DCHECK_EQ(m.wire_bytes(), sent_bytes)
        << "payload mutated between send and delivery: " << to_string(m.kind);
    // Receiver may have died or unbound while the message was in flight; rx
    // is charged only on actual delivery to a handler. One probe finds the
    // down flag, the handler and the counters.
    Endpoint* dst = stats_.endpoints().find(m.to.node);
    const Endpoint::HandlerPtr* bound =
        dst == nullptr || dst->down ? nullptr : dst->handler(m.to.port);
    if (bound == nullptr) {
      stats_.count_dropped();
      trace_drop(m, simulator_.now());
      return;
    }
    if (rx_bytes > 0) dst->traffic.add_rx(rx_bytes);
    stats_.count_delivered();
    // Pin the handler (it may unbind/rebind itself while running, and a
    // bind may move the endpoint records) with a refcount bump instead of
    // copying the std::function.
    const Endpoint::HandlerPtr handler = *bound;
    // Traced hop: one span per network traversal, named after the message
    // kind, from send to delivery on the receiving node.
    obs::Tracer& tr = obs::tracer();
    if (m.trace && tr.enabled()) {
      const std::uint64_t hop =
          tr.begin_span(m.trace.trace_id, m.trace.span_id,
                        obs::kind_name(m.kind.value(), m.kind.name()),
                        m.to.node, sent_at);
      tr.end_span(hop, simulator_.now());
    }
    (*handler)(m);
  });
}

}  // namespace focus::net
