#pragma once
// SoA membership storage for one gossip group.
//
// GroupAgent previously kept its peers in an unordered_map<NodeId, MemberInfo>
// and re-materialized filtered vectors on every protocol tick; PR4 replaced
// that with a contiguous AoS slab. This is the SoA evolution of that slab:
// the fields consulted every protocol period — state, incarnation, and the
// suspect/tombstone deadline (`since`) — live in parallel dense arrays, so
// the per-period scans (alive-view rebuild, tombstone sweep, suspicion
// checks) walk 1+4+8 bytes per member instead of the full ~48-byte record
// with its embedded address. Cold fields (id, port, region, change epoch)
// stay in their own 16-byte rows, touched only when a member is materialized
// for a wire update. A member's address is its own id plus a port (see
// MemberUpdate), so the row stores the port alone. Columns grow by 1.25x
// (gossip/growth.hpp), not by doubling.
//
// Layout invariants are unchanged from the AoS table: members occupy slots
// [0, size) in insert order with deterministic swap-erase compaction, the
// NodeId index is a NodeMap (open addressing, linear probing, backward-shift
// deletion: layout a pure function of the insert/erase history), and the
// alive view is a lazily rebuilt slot vector in slab order — so every
// iteration order, and therefore `sample_alive`'s RNG draw order, is
// byte-identical to the AoS table across any transition history.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "gossip/messages.hpp"
#include "gossip/node_map.hpp"
#include "net/message.hpp"

namespace focus::gossip {

/// What an agent believes about one peer, materialized as one value.
/// Storage is columnar (MemberTable); this struct is the snapshot handed to
/// read paths that want the whole record.
struct MemberInfo {
  NodeId id;
  net::Address addr;
  Region region = Region::AppEdge;
  MemberState state = MemberState::Alive;
  std::uint32_t incarnation = 0;
  SimTime since = 0;  ///< when the current state was adopted
  std::uint64_t changed_epoch = 0;  ///< owner's change epoch at last update
};

/// Columnar member storage with an id index and a cached alive view.
/// Never holds the owning agent itself, only peers. Members are addressed by
/// slot (dense, [0, size)); slots are invalidated by insert/sweep exactly
/// like the old slab references were.
class MemberTable {
 public:
  /// find_slot's miss value.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// True for states that participate in probing/sampling.
  static bool is_alive(MemberState s) noexcept {
    return s == MemberState::Alive || s == MemberState::Suspect;
  }
  /// True for tombstone states awaiting garbage collection.
  static bool is_gone(MemberState s) noexcept {
    return s == MemberState::Dead || s == MemberState::Left;
  }

  /// Insert a new member (id must be absent) and return its slot. Fields
  /// other than id and state start zeroed; fill them through the setters.
  std::uint32_t insert(NodeId id, MemberState initial);

  /// Slot of a member, or kNoSlot when unknown.
  std::uint32_t find_slot(NodeId id) const noexcept {
    const IndexCell* cell = index_.find(id);
    return cell == nullptr ? kNoSlot : cell->slot;
  }

  // -- Hot columns (scanned every protocol period) --------------------------
  MemberState state(std::uint32_t slot) const noexcept { return state_[slot]; }
  std::uint32_t incarnation(std::uint32_t slot) const noexcept {
    return incarnation_[slot];
  }
  SimTime since(std::uint32_t slot) const noexcept { return since_[slot]; }

  /// Apply a state transition and return the previous state. Keeps the
  /// tombstone count and the cached alive view consistent (what the AoS
  /// table needed an explicit note_transition() call for).
  MemberState set_state(std::uint32_t slot, MemberState next) noexcept {
    const MemberState before = state_[slot];
    state_[slot] = next;
    gone_ += static_cast<std::size_t>(is_gone(next)) -
             static_cast<std::size_t>(is_gone(before));
    if (is_alive(before) != is_alive(next)) dirty_ = true;
    return before;
  }
  void set_incarnation(std::uint32_t slot, std::uint32_t v) noexcept {
    incarnation_[slot] = v;
  }
  void set_since(std::uint32_t slot, SimTime t) noexcept { since_[slot] = t; }

  // -- Cold rows (touched when materializing a member) ----------------------
  NodeId id(std::uint32_t slot) const noexcept { return cold_[slot].id; }
  /// The member's gossip endpoint: its own id at the stored port.
  net::Address addr(std::uint32_t slot) const noexcept {
    return net::Address{cold_[slot].id, cold_[slot].port};
  }
  Region region(std::uint32_t slot) const noexcept {
    return cold_[slot].region;
  }
  std::uint64_t changed_epoch(std::uint32_t slot) const noexcept {
    return cold_[slot].changed_epoch;
  }
  void set_port(std::uint32_t slot, std::uint16_t port) noexcept {
    cold_[slot].port = port;
  }
  void set_region(std::uint32_t slot, Region r) noexcept {
    cold_[slot].region = r;
  }
  void set_changed_epoch(std::uint32_t slot, std::uint64_t e) noexcept {
    cold_[slot].changed_epoch = e;
  }

  /// Materialized snapshot of one slot (all columns).
  MemberInfo info(std::uint32_t slot) const {
    const Cold& c = cold_[slot];
    return MemberInfo{c.id, net::Address{c.id, c.port}, c.region,
                      state_[slot], incarnation_[slot], since_[slot],
                      c.changed_epoch};
  }

  std::size_t size() const noexcept { return cold_.size(); }
  bool empty() const noexcept { return cold_.empty(); }

  /// Visit every member in slab order (deterministic), materialized.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t s = 0; s < cold_.size(); ++s) fn(info(s));
  }

  /// Visit every slot in slab order; read columns selectively through the
  /// accessors (audits, column-only scans).
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (std::uint32_t s = 0; s < cold_.size(); ++s) fn(s);
  }

  /// Slots of members currently alive/suspect, in slab order. Rebuilt only
  /// when the alive set changed since the last call; the rebuild scans the
  /// state column alone.
  const std::vector<std::uint32_t>& alive_slots() const;

  /// Count of Dead/Left members still awaiting garbage collection.
  std::size_t gone() const noexcept { return gone_; }

  /// Erase tombstones older than `ttl`, invoking fn(id) per erased member.
  /// O(1) when no tombstone exists; otherwise a hot-column scan (state +
  /// since), touching the cold rows only for members actually erased.
  template <typename Fn>
  void sweep_tombstones(SimTime now, Duration ttl, Fn&& on_erase) {
    if (gone_ == 0) return;
    std::uint32_t pos = 0;
    while (pos < state_.size()) {
      if (is_gone(state_[pos]) && now - since_[pos] > ttl) {
        on_erase(cold_[pos].id);
        erase_slot(pos);  // swap-erase: re-examine the same slot
      } else {
        ++pos;
      }
    }
  }

 private:
  struct IndexCell {
    NodeId key;
    std::uint32_t slot = 0;
  };
  /// Fields not consulted by the per-period scans.
  struct Cold {
    NodeId id;
    std::uint16_t port = 0;
    Region region = Region::AppEdge;
    std::uint64_t changed_epoch = 0;
  };

 public:
  /// Bytes of one cold row.
  static constexpr std::size_t kColdRowBytes = sizeof(Cold);

 private:
  void erase_slot(std::uint32_t pos);

  // Parallel columns; state_/incarnation_/since_/cold_ share slot order and
  // capacity.
  std::vector<MemberState> state_;
  std::vector<std::uint32_t> incarnation_;
  std::vector<SimTime> since_;
  std::vector<Cold> cold_;
  NodeMap<IndexCell> index_;
  std::size_t gone_ = 0;
  mutable std::vector<std::uint32_t> alive_cache_;
  mutable bool dirty_ = false;
};

}  // namespace focus::gossip
