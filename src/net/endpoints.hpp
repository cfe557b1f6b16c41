#pragma once
// Per-node endpoint records for the simulated network. One NodeId-keyed
// probe yields everything a message needs at either end: the handlers bound
// on the node's ports, its down flag and its traffic counters.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"

namespace focus::net {

/// Byte/message counters for one node (all ports combined).
struct EndpointStats {
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t msgs_tx = 0;
  std::uint64_t msgs_rx = 0;

  /// Total bytes in either direction.
  std::uint64_t bytes_total() const noexcept { return bytes_tx + bytes_rx; }

  /// Charge one transmitted message.
  void add_tx(std::size_t bytes) noexcept {
    bytes_tx += bytes;
    msgs_tx += 1;
  }
  /// Charge one received message.
  void add_rx(std::size_t bytes) noexcept {
    bytes_rx += bytes;
    msgs_rx += 1;
  }

  EndpointStats& operator+=(const EndpointStats& o) {
    bytes_tx += o.bytes_tx;
    bytes_rx += o.bytes_rx;
    msgs_tx += o.msgs_tx;
    msgs_rx += o.msgs_rx;
    return *this;
  }
  /// Counter delta (for windowed rate measurements).
  EndpointStats operator-(const EndpointStats& o) const {
    return EndpointStats{bytes_tx - o.bytes_tx, bytes_rx - o.bytes_rx,
                         msgs_tx - o.msgs_tx, msgs_rx - o.msgs_rx};
  }
};

/// Everything the transport keeps about one node.
struct Endpoint {
  /// Handlers are held behind shared_ptr so a delivery can pin the callable
  /// with a refcount bump instead of deep-copying a std::function, while a
  /// handler that unbinds/rebinds itself mid-call stays alive to finish.
  using HandlerPtr = std::shared_ptr<const Transport::Handler>;

  struct Port {
    std::uint16_t port = 0;
    HandlerPtr handler;
  };

  NodeId node;
  bool down = false;        ///< a down node neither sends nor receives
  EndpointStats traffic;    ///< counters; survive unbind and down
  std::vector<Port> ports;  ///< bound handlers (a node binds a handful)

  /// The handler bound on `port`, or null.
  const HandlerPtr* handler(std::uint16_t port) const noexcept {
    for (const Port& p : ports) {
      if (p.port == port) return &p.handler;
    }
    return nullptr;
  }
};

/// Open-addressing NodeId -> Endpoint table. Records sit in a dense vector
/// in first-touch order (so iteration is deterministic); a power-of-two
/// cell array, linear probing, at most half full, maps a node to its
/// record. Records are never erased, and the table is sized by the nodes
/// this transport actually touches, not by the fleet. Inserting may move
/// records: a reference from find()/get() is valid until the next get().
class EndpointTable {
 public:
  /// The node's record, or null when it was never touched.
  FOCUS_HOT Endpoint* find(NodeId node) noexcept {
    if (cells_.empty()) return nullptr;
    const std::uint32_t i = cells_[probe(node)].index;
    return i == kEmpty ? nullptr : &entries_[i];
  }
  const Endpoint* find(NodeId node) const noexcept {
    if (cells_.empty()) return nullptr;
    const std::uint32_t i = cells_[probe(node)].index;
    return i == kEmpty ? nullptr : &entries_[i];
  }

  /// The node's record, created (zeroed, up, nothing bound) if absent.
  FOCUS_HOT Endpoint& get(NodeId node) {
    if (!cells_.empty()) {
      const std::uint32_t i = cells_[probe(node)].index;
      if (i != kEmpty) return entries_[i];
    }
    return insert(node);
  }

  /// Visit every record in first-touch order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Endpoint& e : entries_) fn(e);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Endpoint& e : entries_) fn(e);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  struct Cell {
    std::uint32_t node = 0;
    std::uint32_t index = kEmpty;  ///< into entries_; kEmpty = free cell
  };

  /// The cell holding `node`, or the free cell that ends its probe run.
  std::size_t probe(NodeId node) const noexcept {
    const std::size_t mask = cells_.size() - 1;
    // Fibonacci hashing: testbed node ids stride by small constants.
    std::size_t i = (node.value * 0x9E3779B9u) >> shift_;
    while (cells_[i].index != kEmpty && cells_[i].node != node.value) {
      i = (i + 1) & mask;
    }
    return i;
  }

  Endpoint& insert(NodeId node);

  std::vector<Endpoint> entries_;
  std::vector<Cell> cells_;
  unsigned shift_ = 32;  ///< 32 - log2(cells_.size())
};

}  // namespace focus::net
