#pragma once
// Simulated transport: delivers messages through the discrete-event kernel
// with WAN latencies from the Topology and full bandwidth accounting.

#include <cstddef>

#include "common/rng.hpp"
#include "net/shard_stage.hpp"
#include "net/stats.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace focus::net {

/// Transport implementation on top of sim::Simulator.
///
/// Supports failure injection: a node marked down neither sends nor
/// receives; a configurable uniform loss rate models datagram loss.
class SimTransport final : public Transport {
 public:
  SimTransport(sim::Simulator& simulator, Topology& topology, Rng rng);

  void bind(const Address& addr, Handler handler) override;
  void unbind(const Address& addr) override;
  void send(Message msg) override;
  SimTime now() const override { return simulator_.now(); }

  /// Mark a node down (messages to/from it vanish) or back up.
  void set_node_down(NodeId node, bool down);
  bool is_node_down(NodeId node) const {
    const Endpoint* e = stats_.endpoints().find(node);
    return e != nullptr && e->down;
  }

  /// Probability in [0,1) that any message is silently lost. Default 0.
  void set_loss_rate(double p) { loss_rate_ = p; }

  /// Traffic accounting (see NetStats).
  NetStats& stats() noexcept { return stats_; }
  const NetStats& stats() const noexcept { return stats_; }

  /// The topology used for latency lookups (exposed so scenarios can place
  /// nodes after construction).
  Topology& topology() noexcept { return topology_; }

  /// Switch this transport into sharded mode: it serves exactly the nodes
  /// whose `Topology::shard_of` equals `shard_index` (a (region, sub-shard)
  /// pair flattened region-major), and any send to a node in another shard
  /// is sampled locally (latency, loss, bandwidth — all from this
  /// transport's rng) and staged into `stager` for the window-barrier merge
  /// instead of being scheduled into a foreign kernel. Destination-down
  /// filtering moves entirely to delivery time in the owning shard, where
  /// the authoritative down-set lives. Call before any traffic flows;
  /// `stager` must outlive the transport.
  void enable_sharding(std::size_t shard_index, ShardStager* stager) {
    shard_index_ = shard_index;
    stager_ = stager;
  }

  /// Replay one merged cross-shard delivery (coordinator-only, at a window
  /// barrier): schedules the usual delivery closure at the staged absolute
  /// time in this shard's kernel.
  void accept_staged(StagedMessage staged);

 private:
  /// Single delivery path shared by the loopback and remote branches of
  /// send(): schedules the handler lookup, down/unbound drop accounting, and
  /// dispatch `delay` microseconds from now. `rx_bytes` is charged to the
  /// receiver on successful delivery (0 for loopback, which never touches
  /// the NIC).
  void deliver_at(Duration delay, Message msg, std::size_t rx_bytes);

  /// The delivery closure itself, at an absolute kernel time: shared by
  /// deliver_at (local sends) and accept_staged (merged cross-shard sends).
  /// `sent_bytes`/`sent_at` are the send-time payload stamp and timestamp
  /// (immutability audit + per-hop trace spans).
  void schedule_delivery(SimTime at, Message msg, std::size_t rx_bytes,
                         std::size_t sent_bytes, SimTime sent_at);

  sim::Simulator& simulator_;
  Topology& topology_;
  Rng rng_;
  double loss_rate_ = 0;
  /// Traffic counters plus the endpoint records (bound handlers, down
  /// flags) that send and delivery probe once per endpoint.
  NetStats stats_;
  /// Sharded mode (enable_sharding): the shard this transport serves and
  /// the staging buffers for cross-shard sends. Null stager = a one-shard
  /// world: every send goes straight into this transport's kernel.
  std::size_t shard_index_ = 0;
  ShardStager* stager_ = nullptr;
};

}  // namespace focus::net
