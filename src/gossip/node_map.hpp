#pragma once
// Flat open-addressing table keyed by NodeId, for per-peer gossip state (the
// member table's id index, the delta-sync cursors).
//
// The cell type is the caller's: a struct whose member `key` is the NodeId,
// with the value fields beside it, so a cursor cell packs id + payload into
// one 16-byte record instead of a heap node per peer. Linear probing keeps
// the table at most 3/4 full; deletion backward-shifts the probe run (no
// tombstones), so the cell layout — and therefore for_each's order — is a
// pure function of the insert/erase history and stays deterministic across
// runs. An empty cell holds kEmptyKey, which is never a member id.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace focus::gossip {

template <typename Cell>
class NodeMap {
 public:
  /// Marks a free cell; inserting this id is a programming error.
  static constexpr NodeId kEmptyKey{0xffffffffu};

  /// The cell of `id`, or nullptr when absent.
  const Cell* find(NodeId id) const noexcept {
    if (count_ == 0) return nullptr;
    const Cell& cell = cells_[probe(id)];
    return cell.key == kEmptyKey ? nullptr : &cell;
  }
  Cell* find(NodeId id) noexcept {
    return const_cast<Cell*>(std::as_const(*this).find(id));
  }

  /// The cell of `id`, inserted (value fields default-initialized) when
  /// absent. Invalidates pointers to other cells when it inserts.
  Cell& find_or_insert(NodeId id) {
    FOCUS_DCHECK(id != kEmptyKey) << "NodeMap key collides with the empty marker";
    if ((count_ + 1) * 4 > cells_.size() * 3) grow();
    Cell& cell = cells_[probe(id)];
    if (cell.key == kEmptyKey) {
      cell = Cell{};
      cell.key = id;
      ++count_;
    }
    return cell;
  }

  /// Remove `id`; false when it was absent.
  bool erase(NodeId id) noexcept {
    if (count_ == 0) return false;
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = probe(id);
    if (cells_[i].key == kEmptyKey) return false;
    // Backward shift: pull later members of the run into the hole unless
    // that would move one before its home cell.
    for (;;) {
      cells_[i].key = kEmptyKey;
      std::size_t j = i;
      for (;;) {
        j = (j + 1) & mask;
        if (cells_[j].key == kEmptyKey) {
          --count_;
          return true;
        }
        const std::size_t home = hash(cells_[j].key) & mask;
        const bool movable =
            (i <= j) ? (home <= i || home > j) : (home <= i && home > j);
        if (movable) break;
      }
      cells_[i] = cells_[j];
      i = j;
    }
  }

  std::size_t size() const noexcept { return count_; }

  /// Visit every occupied cell in table order (deterministic, see above).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& cell : cells_) {
      if (cell.key != kEmptyKey) fn(cell);
    }
  }

 private:
  static std::uint64_t hash(NodeId id) noexcept {
    // splitmix64-style finalizer: node ids are dense small integers, spread
    // them over the whole table.
    auto x = static_cast<std::uint64_t>(id.value);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  }

  /// The cell holding `id`, or the free cell that ends its probe run.
  std::size_t probe(NodeId id) const noexcept {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = hash(id) & mask;
    while (cells_[i].key != kEmptyKey && cells_[i].key != id) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    Cell empty{};
    empty.key = kEmptyKey;
    cells_.assign(old.empty() ? 8 : old.size() * 2, empty);
    for (const Cell& cell : old) {
      if (cell.key != kEmptyKey) cells_[probe(cell.key)] = cell;
    }
  }

  std::vector<Cell> cells_;  ///< power-of-two size (or empty)
  std::size_t count_ = 0;
};

}  // namespace focus::gossip
