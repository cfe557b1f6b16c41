// SoA MemberTable equivalence suite.
//
// gossip::MemberTable stores per-protocol-period fields (state, incarnation,
// since) in parallel dense columns with cold fields in their own slab. The
// contract of the SoA refactor is behavioral identity with the old AoS slab:
// the same transition history must produce the same slot layout, the same
// sweep (erase) order, the same alive view, and therefore the same
// `sample_alive` RNG draw sequence. This suite replays a recorded churn
// script — a deterministic, seed-generated sequence of inserts, state
// transitions and tombstone sweeps — against both the real table and an
// in-test AoS reference implementing the documented invariants (insert-order
// slots, swap-erase compaction, slab-order alive view), and compares them
// operation by operation, including a partial-Fisher-Yates sample draw at
// every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "gossip/member_table.hpp"
#include "gossip/node_map.hpp"

namespace focus::gossip {
namespace {

// Reference AoS table: the documented behavior of the pre-SoA MemberTable,
// minus the hash index (slot lookup is a linear scan — slow but obviously
// correct).
class AosReference {
 public:
  std::uint32_t insert(NodeId id, MemberState initial, SimTime now) {
    MemberInfo info;
    info.id = id;
    info.state = initial;
    info.since = now;
    slab_.push_back(info);
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  std::uint32_t find_slot(NodeId id) const {
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      if (slab_[s].id == id) return s;
    }
    return MemberTable::kNoSlot;
  }

  MemberInfo& at(std::uint32_t slot) { return slab_[slot]; }
  const MemberInfo& at(std::uint32_t slot) const { return slab_[slot]; }
  std::size_t size() const { return slab_.size(); }

  std::vector<std::uint32_t> alive_slots() const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      if (MemberTable::is_alive(slab_[s].state)) out.push_back(s);
    }
    return out;
  }

  std::size_t gone() const {
    std::size_t n = 0;
    for (const auto& m : slab_) n += MemberTable::is_gone(m.state);
    return n;
  }

  // Swap-erase sweep, re-examining the swapped-in slot, exactly like the
  // real table documents.
  std::vector<NodeId> sweep(SimTime now, Duration ttl) {
    std::vector<NodeId> erased;
    std::uint32_t pos = 0;
    while (pos < slab_.size()) {
      const MemberInfo& m = slab_[pos];
      if (MemberTable::is_gone(m.state) && now - m.since > ttl) {
        erased.push_back(m.id);
        slab_[pos] = std::move(slab_.back());
        slab_.pop_back();
      } else {
        ++pos;
      }
    }
    return erased;
  }

 private:
  std::vector<MemberInfo> slab_;
};

constexpr Duration kTtl = 60;

// One scripted churn op, generated deterministically from a seed.
struct Op {
  enum Kind { Insert, Transition, Sweep } kind;
  NodeId node{0};
  MemberState state = MemberState::Alive;
};

std::vector<Op> make_churn_script(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  std::vector<Op> script;
  std::uint32_t next_id = 1;
  std::vector<NodeId> known;
  for (std::size_t i = 0; i < length; ++i) {
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 35 || known.empty()) {
      const NodeId id{next_id++};
      known.push_back(id);
      script.push_back({Op::Insert, id, MemberState::Alive});
    } else if (roll < 90) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(known.size()) - 1));
      static constexpr MemberState kStates[] = {
          MemberState::Alive, MemberState::Suspect, MemberState::Dead,
          MemberState::Left};
      const auto s = kStates[rng.uniform_int(0, 3)];
      script.push_back({Op::Transition, known[pick], s});
    } else {
      script.push_back({Op::Sweep, NodeId{0}, MemberState::Alive});
    }
  }
  return script;
}

// Port a member listens on: varies with the node and its incarnation so the
// address round-trip check sees distinct values.
std::uint16_t port_of(NodeId node, std::uint32_t incarnation) {
  return static_cast<std::uint16_t>(100 + (node.value * 7 + incarnation) % 900);
}

// Drive both tables through the script; after every op the slot layout,
// alive view, gone count, and a seeded sample draw must agree.
void replay_and_compare(std::uint64_t seed) {
  const std::vector<Op> script = make_churn_script(seed, 400);
  MemberTable soa;
  AosReference aos;
  Rng soa_rng(seed ^ 0xdecafbadull);
  Rng aos_rng(seed ^ 0xdecafbadull);
  SimTime now = 0;

  const auto draw_sample = [](Rng& rng, const std::vector<std::uint32_t>& alive,
                              std::size_t k) {
    // The partial Fisher-Yates from GroupAgent::sample_alive, reduced to the
    // index sequence it visits.
    std::vector<std::uint32_t> idx(alive.size());
    for (std::uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::vector<std::uint32_t> out;
    const std::size_t n = std::min(k, alive.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(idx.size() - i) - 1));
      std::swap(idx[i], idx[j]);
      out.push_back(alive[idx[i]]);
    }
    return out;
  };

  for (const Op& op : script) {
    now += 7;
    switch (op.kind) {
      case Op::Insert: {
        const std::uint32_t s1 = soa.insert(op.node, op.state);
        soa.set_since(s1, now);
        soa.set_port(s1, port_of(op.node, 0));
        const std::uint32_t s2 = aos.insert(op.node, op.state, now);
        aos.at(s2).addr = net::Address{op.node, port_of(op.node, 0)};
        ASSERT_EQ(s1, s2);
        break;
      }
      case Op::Transition: {
        const std::uint32_t s1 = soa.find_slot(op.node);
        const std::uint32_t s2 = aos.find_slot(op.node);
        ASSERT_EQ(s1, s2);
        if (s1 == MemberTable::kNoSlot) break;  // swept earlier
        soa.set_state(s1, op.state);
        soa.set_since(s1, now);
        soa.set_incarnation(s1, soa.incarnation(s1) + 1);
        // A transition may re-announce the member on a new port.
        soa.set_port(s1, port_of(op.node, soa.incarnation(s1)));
        aos.at(s2).state = op.state;
        aos.at(s2).since = now;
        ++aos.at(s2).incarnation;
        aos.at(s2).addr =
            net::Address{op.node, port_of(op.node, aos.at(s2).incarnation)};
        break;
      }
      case Op::Sweep: {
        std::vector<NodeId> soa_erased;
        soa.sweep_tombstones(now, kTtl,
                             [&](NodeId id) { soa_erased.push_back(id); });
        const std::vector<NodeId> aos_erased = aos.sweep(now, kTtl);
        // Same members erased in the same order.
        ASSERT_EQ(soa_erased.size(), aos_erased.size());
        for (std::size_t i = 0; i < soa_erased.size(); ++i) {
          EXPECT_EQ(soa_erased[i], aos_erased[i]);
        }
        break;
      }
    }

    // Full-table agreement, slot for slot.
    ASSERT_EQ(soa.size(), aos.size());
    for (std::uint32_t s = 0; s < soa.size(); ++s) {
      const MemberInfo got = soa.info(s);
      const MemberInfo& want = aos.at(s);
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.state, want.state);
      EXPECT_EQ(got.incarnation, want.incarnation);
      EXPECT_EQ(got.since, want.since);
      EXPECT_EQ(got.addr, want.addr);
      // The stored port plus the slot's id round-trip to the full address.
      EXPECT_EQ(soa.addr(s), want.addr);
      // The id index resolves every slot's id back to that slot.
      EXPECT_EQ(soa.find_slot(got.id), s);
    }
    EXPECT_EQ(soa.gone(), aos.gone());

    // Alive views agree in order, so sample_alive's RNG draw sequence is
    // identical across the layouts.
    const std::vector<std::uint32_t>& soa_alive = soa.alive_slots();
    const std::vector<std::uint32_t> aos_alive = aos.alive_slots();
    ASSERT_EQ(soa_alive.size(), aos_alive.size());
    for (std::size_t i = 0; i < soa_alive.size(); ++i) {
      EXPECT_EQ(soa_alive[i], aos_alive[i]);
    }
    EXPECT_EQ(draw_sample(soa_rng, soa_alive, 3),
              draw_sample(aos_rng, aos_alive, 3));
  }
}

TEST(MemberTableSoA, ChurnScriptMatchesAosReference) {
  replay_and_compare(1);
  replay_and_compare(42);
  replay_and_compare(0xfeedULL);
}

TEST(MemberTableSoA, SetStateMaintainsGoneAndAliveView) {
  MemberTable table;
  const std::uint32_t a = table.insert(NodeId{1}, MemberState::Alive);
  const std::uint32_t b = table.insert(NodeId{2}, MemberState::Alive);
  EXPECT_EQ(table.alive_slots().size(), 2u);
  EXPECT_EQ(table.gone(), 0u);

  // Alive -> Suspect keeps the member in the alive view.
  EXPECT_EQ(table.set_state(a, MemberState::Suspect), MemberState::Alive);
  EXPECT_EQ(table.alive_slots().size(), 2u);
  EXPECT_EQ(table.gone(), 0u);

  // Suspect -> Dead removes it and counts the tombstone.
  EXPECT_EQ(table.set_state(a, MemberState::Dead), MemberState::Suspect);
  EXPECT_EQ(table.alive_slots().size(), 1u);
  EXPECT_EQ(table.alive_slots()[0], b);
  EXPECT_EQ(table.gone(), 1u);

  // Dead -> Alive resurrects.
  EXPECT_EQ(table.set_state(a, MemberState::Alive), MemberState::Dead);
  EXPECT_EQ(table.alive_slots().size(), 2u);
  EXPECT_EQ(table.gone(), 0u);
}

TEST(MemberTableSoA, SweepTouchesOnlyExpiredTombstones) {
  MemberTable table;
  const std::uint32_t a = table.insert(NodeId{1}, MemberState::Alive);
  const std::uint32_t b = table.insert(NodeId{2}, MemberState::Alive);
  const std::uint32_t c = table.insert(NodeId{3}, MemberState::Alive);
  table.set_state(a, MemberState::Dead);
  table.set_since(a, 10);
  table.set_state(c, MemberState::Left);
  table.set_since(c, 100);
  (void)b;

  std::vector<NodeId> erased;
  table.sweep_tombstones(/*now=*/100, kTtl,
                         [&](NodeId id) { erased.push_back(id); });
  ASSERT_EQ(erased.size(), 1u);  // only the slot-a tombstone expired
  EXPECT_EQ(erased[0], NodeId{1});
  ASSERT_EQ(table.size(), 2u);
  // Swap-erase moved the last member (node 3) into slot 0.
  EXPECT_EQ(table.id(0), NodeId{3});
  EXPECT_EQ(table.id(1), NodeId{2});
  EXPECT_EQ(table.find_slot(NodeId{3}), 0u);
  EXPECT_EQ(table.find_slot(NodeId{2}), 1u);
  EXPECT_EQ(table.find_slot(NodeId{1}), MemberTable::kNoSlot);
}

// NodeMap (the id index and the delta-sync cursor table) against std::map
// under seeded insert/erase churn: lookups, size and the set of visited
// cells agree after every operation, so backward-shift deletion never loses
// or strands an entry.
TEST(NodeMap, MatchesStdMapUnderInsertErase) {
  struct Cell {
    NodeId key;
    std::int32_t count = 0;
    std::uint64_t stamp = 0;
  };
  static_assert(sizeof(Cell) == 16);
  NodeMap<Cell> map;
  std::map<std::uint32_t, std::uint64_t> reference;
  Rng rng(99);
  for (std::uint64_t step = 1; step <= 5000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, 199));
    if (rng.uniform_int(0, 99) < 55) {
      Cell& cell = map.find_or_insert(NodeId{id});
      ++cell.count;
      cell.stamp = step;
      reference[id] = step;
    } else {
      EXPECT_EQ(map.erase(NodeId{id}), reference.erase(id) == 1);
    }
    ASSERT_EQ(map.size(), reference.size());
    for (std::uint32_t key = 0; key < 200; ++key) {
      const Cell* cell = map.find(NodeId{key});
      const auto it = reference.find(key);
      ASSERT_EQ(cell != nullptr, it != reference.end()) << "step " << step;
      if (cell != nullptr) {
        EXPECT_EQ(cell->stamp, it->second);
      }
    }
  }
  std::map<std::uint32_t, std::uint64_t> visited;
  map.for_each([&](const Cell& cell) {
    EXPECT_TRUE(visited.emplace(cell.key.value, cell.stamp).second);
  });
  EXPECT_EQ(visited, reference);
}

}  // namespace
}  // namespace focus::gossip
