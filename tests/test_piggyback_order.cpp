// PiggybackBuffer differential suite.
//
// The buffer's entry is 16 bytes: a 12-byte MemberUpdate (node id + port,
// the address being the member's own id) plus its copy budget. Before that
// the update carried a full net::Address and the entry was 24 bytes. The
// contract of the shrink is behavioral identity: the same adds and takes
// must hand out the same updates in the same order and leave the buffer in
// the same order, or every piggyback — and so every digest — moves. This
// suite keeps the 24-byte implementation as a reference model and replays
// seeded scripts of adds (new and refreshed nodes, mixed copy budgets) and
// take_into calls with varying `max` against both, comparing after every
// operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "gossip/broadcast.hpp"
#include "gossip/member_table.hpp"

namespace focus::gossip {
namespace {

static_assert(sizeof(MemberUpdate) <= 12, "MemberUpdate grew past 12 bytes");
static_assert(PiggybackBuffer::kEntryBytes <= 16,
              "piggyback entry grew past 16 bytes");
static_assert(MemberTable::kColdRowBytes <= 16,
              "member table cold row grew past 16 bytes");

// The update as it was stored before the shrink: the address in full.
struct WideUpdate {
  NodeId node;
  net::Address addr;
  Region region = Region::AppEdge;
  MemberState state = MemberState::Alive;
  std::uint32_t incarnation = 0;
};

// Reference model: the 24-byte-entry PiggybackBuffer, algorithm unchanged
// (in-place refresh with a lazy stable re-sort, sorted insert, prefix take
// with a stable merge of the two descending runs).
class WideReference {
 public:
  void add(const WideUpdate& update, int copies) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].update.node == update.node) {
        entries_[i].update = update;
        entries_[i].copies_left = copies;
        if ((i > 0 && entries_[i - 1].copies_left < copies) ||
            (i + 1 < entries_.size() && copies < entries_[i + 1].copies_left)) {
          needs_sort_ = true;
        }
        return;
      }
    }
    if (needs_sort_) {
      entries_.push_back(Entry{update, copies});
      return;
    }
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), copies,
        [](int c, const Entry& e) { return c > e.copies_left; });
    entries_.insert(pos, Entry{update, copies});
  }

  void take_into(std::vector<WideUpdate>& out, std::size_t max) {
    if (needs_sort_) {
      std::stable_sort(entries_.begin(), entries_.end(),
                       [](const Entry& a, const Entry& b) {
                         return a.copies_left > b.copies_left;
                       });
      needs_sort_ = false;
    }
    const std::size_t n = std::min(max, entries_.size());
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(entries_[i].update);
      --entries_[i].copies_left;
    }
    std::size_t keep = n;
    while (keep > 0 && entries_[keep - 1].copies_left <= 0) --keep;
    if (keep < n) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(keep),
                     entries_.begin() + static_cast<std::ptrdiff_t>(n));
    }
    if (keep == 0 || keep == entries_.size()) return;
    if (entries_[keep - 1].copies_left >= entries_[keep].copies_left) return;
    const std::vector<Entry> prefix(
        entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(keep));
    std::size_t a = 0, b = keep, w = 0;
    while (a < prefix.size() && b < entries_.size()) {
      if (prefix[a].copies_left >= entries_[b].copies_left) {
        entries_[w++] = prefix[a++];
      } else {
        entries_[w++] = entries_[b++];
      }
    }
    while (a < prefix.size()) entries_[w++] = prefix[a++];
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& entry : entries_) fn(entry.update, entry.copies_left);
  }

 private:
  struct Entry {
    WideUpdate update;
    int copies_left = 0;
  };
  static_assert(sizeof(Entry) == 24, "the reference keeps the old layout");

  std::vector<Entry> entries_;
  bool needs_sort_ = false;
};

void expect_same(const MemberUpdate& got, const WideUpdate& want) {
  EXPECT_EQ(got.node, want.node);
  EXPECT_EQ(got.addr(), want.addr);
  EXPECT_EQ(got.region, want.region);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.incarnation, want.incarnation);
}

// Replay `length` seeded operations against both buffers. Node ids come from
// a small pool so many adds refresh a buffered node; budgets mix the
// protocol's 6 with smaller ones so refreshes break the sorted order.
void replay_and_compare(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  PiggybackBuffer real;
  WideReference reference;
  std::vector<MemberUpdate> got;
  std::vector<WideUpdate> want;
  for (std::size_t step = 0; step < length; ++step) {
    if (rng.uniform_int(0, 99) < 60) {
      const NodeId node{static_cast<std::uint32_t>(rng.uniform_int(1, 40))};
      static constexpr MemberState kStates[] = {
          MemberState::Alive, MemberState::Suspect, MemberState::Dead,
          MemberState::Left};
      MemberUpdate update;
      update.node = node;
      update.port = static_cast<std::uint16_t>(rng.uniform_int(100, 65535));
      update.region = static_cast<Region>(rng.uniform_int(0, 3));
      update.state = kStates[rng.uniform_int(0, 3)];
      update.incarnation = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
      const int copies = static_cast<int>(rng.uniform_int(1, 6));
      real.add(update, copies);
      reference.add(WideUpdate{update.node, update.addr(), update.region,
                               update.state, update.incarnation},
                    copies);
    } else {
      const auto max = static_cast<std::size_t>(rng.uniform_int(0, 10));
      got.clear();
      want.clear();
      real.take_into(got, max);
      reference.take_into(want, max);
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) expect_same(got[i], want[i]);
    }

    // Identical buffer contents in identical order.
    std::vector<std::pair<MemberUpdate, int>> real_order;
    real.for_each([&](const MemberUpdate& u, int c) { real_order.emplace_back(u, c); });
    std::vector<std::pair<WideUpdate, int>> reference_order;
    reference.for_each(
        [&](const WideUpdate& u, int c) { reference_order.emplace_back(u, c); });
    ASSERT_EQ(real_order.size(), reference_order.size()) << "step " << step;
    ASSERT_EQ(real.pending(), reference_order.size());
    for (std::size_t i = 0; i < real_order.size(); ++i) {
      expect_same(real_order[i].first, reference_order[i].first);
      EXPECT_EQ(real_order[i].second, reference_order[i].second)
          << "step " << step << " entry " << i;
    }
  }
}

TEST(PiggybackOrder, SeededScriptsMatchWideReference) {
  replay_and_compare(1, 2000);
  replay_and_compare(42, 2000);
  replay_and_compare(0xbeefULL, 2000);
}

TEST(PiggybackOrder, AddressIsIdPlusPort) {
  MemberUpdate update;
  update.node = NodeId{77};
  update.port = 4242;
  EXPECT_EQ(update.addr(), (net::Address{NodeId{77}, 4242}));
}

}  // namespace
}  // namespace focus::gossip
