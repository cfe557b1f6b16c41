#include "gossip/broadcast.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "gossip/growth.hpp"

namespace focus::gossip {

std::size_t EventBuffer::seen_probe(EventId id) const noexcept {
  const std::size_t mask = seen_cells_.size() - 1;
  // splitmix64-style finalizer over (origin, seq): per-origin seqs are
  // consecutive, so the low bits alone would cluster.
  std::uint64_t x = (static_cast<std::uint64_t>(id.origin.value) << 40) ^ id.seq;
  x ^= x >> 31;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  std::size_t i = static_cast<std::size_t>(x) & mask;
  while (seen_cells_[i].used != 0 &&
         (seen_cells_[i].seq != id.seq ||
          seen_cells_[i].origin != id.origin.value)) {
    i = (i + 1) & mask;
  }
  return i;
}

FOCUS_HOT bool EventBuffer::seen_insert(EventId id) {
  if ((seen_count_ + 1) * 4 > seen_cells_.size() * 3) {
    // Grow (starting at 8 cells) and re-insert; probe runs stay short
    // below 3/4 load.
    std::vector<SeenCell> old = std::move(seen_cells_);
    seen_cells_.assign(old.empty() ? 8 : old.size() * 2, SeenCell{});
    for (const SeenCell& c : old) {
      if (c.used != 0) {
        seen_cells_[seen_probe(EventId{NodeId{c.origin}, c.seq})] = c;
      }
    }
  }
  SeenCell& cell = seen_cells_[seen_probe(id)];
  if (cell.used != 0) return false;
  cell = SeenCell{id.seq, id.origin.value, 1};
  ++seen_count_;
  return true;
}

FOCUS_HOT bool EventBuffer::add(std::shared_ptr<const EventCore> core,
                                int retransmit_rounds) {
  FOCUS_DCHECK(core != nullptr) << "EventBuffer::add null core";
  if (!seen_insert(core->id)) return false;
  if (retransmit_rounds > 0) {
    pending_.push_back(Entry{std::move(core), retransmit_rounds});
  }
  return true;
}

FOCUS_HOT void EventBuffer::take_round_into(
    std::vector<std::shared_ptr<const EventCore>>& out) {
  out.clear();
  out.reserve(pending_.size());
  for (auto& entry : pending_) {
    out.push_back(entry.core);
    --entry.rounds_left;
  }
  std::erase_if(pending_, [](const Entry& e) { return e.rounds_left <= 0; });
}

FOCUS_HOT void PiggybackBuffer::add(const MemberUpdate& update, int copies) {
  // A newer assertion about the same node replaces the buffered one: the
  // protocol only needs the latest state to converge. The refresh happens in
  // place; if the bumped budget now exceeds a predecessor's, the descending
  // order is restored lazily on the next take.
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
  reserve_one_more(entries_);
  if (needs_sort_) {
    // Order is already pending a rebuild; appending keeps insertion order,
    // which the eventual stable sort preserves among equal budgets.
    entries_.push_back(Entry{update, copies});
    return;
  }
  // Sorted insert: after every entry with >= copies (stable among equals).
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), copies,
      [](int c, const Entry& e) { return c > e.copies_left; });
  entries_.insert(pos, Entry{update, copies});
}

void PiggybackBuffer::ensure_sorted() {
  if (!needs_sort_) return;
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.copies_left > b.copies_left;
                   });
  needs_sort_ = false;
}

FOCUS_HOT void PiggybackBuffer::take_into(std::vector<MemberUpdate>& out,
                                          std::size_t max) {
  ensure_sorted();
  const std::size_t n = std::min(max, entries_.size());
  if (n == 0) return;
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(entries_[i].update);
    --entries_[i].copies_left;
  }
  // The taken prefix was descending and each element dropped by exactly one,
  // so it is still descending; spent entries (now 0) sit at its end. Erase
  // them, then stitch the two descending runs back together with a stable
  // merge into a reused scratch buffer — no per-send sort, no allocation in
  // steady state.
  std::size_t keep = n;
  while (keep > 0 && entries_[keep - 1].copies_left <= 0) --keep;
  if (keep < n) {
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(keep),
                   entries_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  if (keep == 0 || keep == entries_.size()) return;
  if (entries_[keep - 1].copies_left >= entries_[keep].copies_left) return;
  merge_scratch_.clear();
  merge_scratch_.reserve(keep);
  merge_scratch_.assign(entries_.begin(),
                        entries_.begin() + static_cast<std::ptrdiff_t>(keep));
  // Merge scratch (= old prefix) with the untouched suffix; on equal budgets
  // the prefix element wins, matching what a stable sort of the whole buffer
  // would produce.
  std::size_t a = 0, b = keep, w = 0;
  const std::size_t end = entries_.size();
  while (a < merge_scratch_.size() && b < end) {
    if (merge_scratch_[a].copies_left >= entries_[b].copies_left) {
      entries_[w++] = merge_scratch_[a++];
    } else {
      entries_[w++] = entries_[b++];
    }
  }
  while (a < merge_scratch_.size()) entries_[w++] = merge_scratch_[a++];
  FOCUS_DCHECK(b == end || w == b) << "piggyback merge misaligned";
}

}  // namespace focus::gossip
