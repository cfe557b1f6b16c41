#pragma once
// Event dissemination bookkeeping: which user events and membership updates
// this agent still owes the group, and which event ids it has already seen.

#include <cstdint>
#include <memory>
#include <vector>

#include "gossip/messages.hpp"

namespace focus::gossip {

/// Buffer of user events pending retransmission plus a seen-set for
/// deduplication. Entries hold a `shared_ptr<const EventCore>`, so the topic
/// and body strings are captured exactly once when the event enters the
/// buffer and every retransmit round reuses the same immutable core. The
/// seen-set is an open-addressing table of 16-byte cells (linear probing, at
/// most 3/4 full, never erased): one cache line per lookup in the common
/// case, and no node allocation per event.
/// Used by GroupAgent; separated out for direct unit testing.
class EventBuffer {
 public:
  /// Register an event. Returns false (and buffers nothing) when the event
  /// id was already seen.
  bool add(std::shared_ptr<const EventCore> core, int retransmit_rounds);

  /// True when the id has been seen before (delivered or buffered).
  bool seen(EventId id) const {
    return !seen_cells_.empty() && seen_cells_[seen_probe(id)].used;
  }

  /// Fill `out` (cleared first) with the events that still have transmission
  /// budget this round, consuming one round of budget from each. The caller
  /// owns `out` so steady-state rounds allocate nothing.
  void take_round_into(std::vector<std::shared_ptr<const EventCore>>& out);

  /// Visit every buffered entry (for audits/tests): fn(id, rounds_left).
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (const auto& entry : pending_) fn(entry.core->id, entry.rounds_left);
  }

  /// Events currently buffered for retransmission.
  std::size_t pending() const noexcept { return pending_.size(); }

  /// Total distinct events ever seen.
  std::size_t seen_count() const noexcept { return seen_count_; }

 private:
  struct Entry {
    std::shared_ptr<const EventCore> core;
    int rounds_left = 0;
  };

  /// One seen-set cell; `used` tells an empty cell from any EventId.
  struct SeenCell {
    std::uint64_t seq = 0;
    std::uint32_t origin = 0;
    std::uint32_t used = 0;
  };

  /// The cell holding `id`, or the empty cell that ends its probe run.
  std::size_t seen_probe(EventId id) const noexcept;

  /// Insert `id`; false when it was already present.
  bool seen_insert(EventId id);

  std::vector<Entry> pending_;  ///< usually empty: no per-agent node block
  std::vector<SeenCell> seen_cells_;  ///< power-of-two size (or empty)
  std::size_t seen_count_ = 0;
};

/// Buffer of membership updates pending piggybacking. Each update is
/// attached to outgoing protocol messages until its copy budget is spent.
/// Newer assertions about a node supersede older buffered ones.
///
/// Entries are kept sorted by remaining copies (descending, insertion-stable
/// among equals) so take_into() reads a prefix instead of re-sorting the
/// whole buffer per send; the occasional in-place refresh that breaks the
/// order just flags a lazy re-sort. An entry is 16 bytes (a 12-byte update
/// plus its budget) and the buffer grows by 1.25x: every member an agent
/// learns sits here until its copies are spent.
class PiggybackBuffer {
 public:
  /// Queue an update for dissemination with the given copy budget.
  void add(const MemberUpdate& update, int copies);

  /// Append up to `max` updates to `out` (not cleared), consuming one copy
  /// from each. Updates with the most remaining copies go first (freshest
  /// information spreads fastest). The caller owns `out`, so a reused buffer
  /// makes steady-state sends allocation-free.
  void take_into(std::vector<MemberUpdate>& out, std::size_t max);

  /// Convenience wrapper returning a fresh vector (tests/cold paths).
  std::vector<MemberUpdate> take(std::size_t max) {
    std::vector<MemberUpdate> out;
    take_into(out, max);
    return out;
  }

  /// Visit every buffered entry (for audits/tests): fn(update, copies_left).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& entry : entries_) fn(entry.update, entry.copies_left);
  }

  /// Updates still holding budget.
  std::size_t pending() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    MemberUpdate update;
    int copies_left = 0;
  };

 public:
  /// Bytes of one buffered entry.
  static constexpr std::size_t kEntryBytes = sizeof(Entry);

 private:
  void ensure_sorted();

  std::vector<Entry> entries_;
  std::vector<Entry> merge_scratch_;  // reused by take_into's prefix merge
  bool needs_sort_ = false;
};

}  // namespace focus::gossip
