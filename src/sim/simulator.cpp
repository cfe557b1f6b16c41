#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace focus::sim {

Simulator::Simulator() {
  Logger::set_time_source(
      [](const void* ctx) {
        return static_cast<std::int64_t>(
            static_cast<const Simulator*>(ctx)->now());
      },
      this);
}

Simulator::~Simulator() { Logger::clear_time_source(this); }

// ---------------------------------------------------------------------------
// Slab management

std::uint32_t Simulator::alloc_slot() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    FOCUS_CHECK_LT(slab_size_, kMaxSlots) << "event slab exhausted";
    slot = slab_size_++;
    if ((slot & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
    }
    states_.emplace_back();
  }
  SlotState& st = states_[slot];
  ++st.gen;  // fresh slots go 0 -> 1, so generation 0 is never issued
  FOCUS_CHECK_NE(st.gen, 0u) << "slot generation wrapped";
  return slot;  // becomes live when push() queues it
}

void Simulator::free_slot(std::uint32_t slot) {
  states_[slot].phase = SlotPhase::kFree;
  free_.push_back(slot);
}

// ---------------------------------------------------------------------------
// 4-ary min-heap over (time, enqueue seq). Every schedule and every periodic
// re-arm draws a fresh seq, so events sharing an instant pop in the order
// they were enqueued — the order every pinned digest records (DESIGN.md
// "Kernel internals"). Sifts use the hole technique so each displaced entry
// moves exactly once.

FOCUS_HOT std::uint64_t Simulator::next_key(std::uint32_t slot) {
  FOCUS_CHECK_LE(next_seq_, kMaxSeq) << "enqueue sequence exhausted";
  return (next_seq_++ << kSlotBits) | slot;
}

FOCUS_HOT void Simulator::push(SimTime time, std::uint32_t slot) {
  heap_.push_back(HeapEntry{time, next_key(slot)});
  sift_up(heap_.size() - 1);
  states_[slot].phase = SlotPhase::kQueued;
}

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
}

void Simulator::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[pos];
  for (;;) {
    const std::size_t first_child = 4 * pos + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end; ++c) {
      // Branchless select: mispredicted picks would otherwise dominate.
      best = before(heap_[c], heap_[best]) ? c : best;
    }
    if (!before(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = entry;
}

FOCUS_HOT void Simulator::pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  heap_[0] = last;
  sift_down(0);
}

void Simulator::drop_dead_roots() {
  while (!heap_.empty() && states_[slot_of(heap_[0])].phase == SlotPhase::kDead) {
    free_slot(slot_of(heap_[0]));
    --dead_;
    pop_root();
  }
}

void Simulator::compact() {
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (states_[slot_of(entry)].phase == SlotPhase::kDead) {
      free_slot(slot_of(entry));
    } else {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  dead_ = 0;
  // Floyd heapify: sift every internal node down, deepest first.
  for (std::size_t pos = kept / 4 + 1; pos-- > 0;) {
    if (pos < kept) sift_down(pos);
  }
}

// ---------------------------------------------------------------------------
// Public API

FOCUS_HOT TimerId Simulator::schedule_at(SimTime t, Task task) {
  const std::uint32_t slot = alloc_slot();
  Event& ev = record(slot);
  ev.task = std::move(task);
  ev.digest_id = next_digest_id_++;
  ev.period = 0;
  push(std::max(t, now_), slot);
  ++live_;
  return make_id(slot, states_[slot].gen);
}

FOCUS_HOT TimerId Simulator::schedule_after(Duration delay, Task task) {
  FOCUS_CHECK_GE(delay, 0) << "schedule_after cannot reach into the past";
  return schedule_at(now_ + delay, std::move(task));
}

FOCUS_HOT TimerId Simulator::every(Duration interval, Task task,
                                   Duration first_delay) {
  // A zero/negative interval would re-arm at the current instant forever and
  // pin the virtual clock; this must hold in Release builds too.
  FOCUS_CHECK_GT(interval, 0) << "periodic task would never advance the clock";
  const std::uint32_t slot = alloc_slot();
  Event& ev = record(slot);
  ev.task = std::move(task);
  ev.digest_id = next_digest_id_++;
  ev.period = interval;
  push(now_ + (first_delay >= 0 ? first_delay : interval), slot);
  ++live_;
  return make_id(slot, states_[slot].gen);
}

FOCUS_HOT void Simulator::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0) return;  // 0 / small sentinel values: never an issued id
  FOCUS_CHECK_LT(slot, slab_size_)
      << "cancel of a TimerId this simulator never issued";
  SlotState& st = states_[slot];
  FOCUS_CHECK_LE(gen, st.gen)
      << "cancel of a TimerId from a future generation (corrupt or foreign id)";
  // Fired, firing, cancelled or recycled: a stale no-op.
  if (gen != st.gen || st.phase != SlotPhase::kQueued) return;
  // Lazy cancel: the entry stays queued, marked dead, and the callable (and
  // whatever it captured) is released now. A self-cancelling periodic has
  // moved its callable out to run it, so this resets an empty record.
  st.phase = SlotPhase::kDead;
  --live_;
  ++dead_;
  record(slot).task.reset();
  if (slot_of(heap_[0]) == slot) {
    drop_dead_roots();  // keep the root live: next_event_time() stays exact
  } else if (dead_ > live_ && dead_ >= kCompactFloor) {
    compact();
  }
}

void Simulator::mix_digest(SimTime time, std::uint64_t digest_id) noexcept {
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  digest_ = (digest_ ^ static_cast<std::uint64_t>(time)) * kFnvPrime;
  digest_ = (digest_ ^ digest_id) * kFnvPrime;
}

FOCUS_HOT bool Simulator::step() {
  if (heap_.empty()) return false;
  const SimTime time = heap_[0].time;
  const std::uint32_t slot = slot_of(heap_[0]);
  FOCUS_DCHECK_GE(time, now_) << "event queue lost time ordering";
  now_ = time;
  Event& ev = record(slot);  // address-stable across everything below
  mix_digest(time, ev.digest_id);
  ++executed_;
  if (ev.period > 0) {
    // Re-arm before running, under a fresh seq, so the task may cancel
    // itself and anything it schedules for the re-arm instant runs after the
    // re-armed event. The root's key only grows, so it is replaced in place
    // and sifted down: no pop, no push.
    heap_[0] = HeapEntry{time + ev.period, next_key(slot)};
    sift_down(0);
    if (dead_ != 0) drop_dead_roots();
    // Run the callable from a local: the task may cancel itself, and a
    // compaction inside it may then free and recycle the slot — the
    // callable must not be destroyed or overwritten mid-execution. The move
    // is cheap (SBO relocate), with no refcount traffic.
    const std::uint32_t gen = states_[slot].gen;
    UniqueTask task = std::move(ev.task);
    task();
    // Re-read the slot state (by index: the states_ vector may have grown):
    // move the callable back only if the event is still queued under the
    // same generation (not cancelled, not recycled).
    const SlotState after = states_[slot];
    if (after.phase == SlotPhase::kQueued && after.gen == gen) {
      ev.task = std::move(task);
    }
  } else {
    // One-shot: leave the queue first, so a task cancelling its own id is a
    // stale no-op. The slot is NOT freed until the callable returns — record
    // addresses are stable and the slot cannot be recycled mid-execution, so
    // the callable fires in place: one fused invoke+destroy indirect call,
    // no move out.
    pop_root();
    if (dead_ != 0) drop_dead_roots();
    states_[slot].phase = SlotPhase::kFiring;
    --live_;
    ev.task.consume();
    free_slot(slot);  // the callable is already destroyed
  }
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime t) {
  // The heap root is always live, so its time is the next execution time.
  while (!heap_.empty() && heap_[0].time <= t) {
    step();
  }
  now_ = std::max(now_, t);
}

bool Simulator::queue_consistent() const {
  if (slab_size_ != states_.size()) return false;
  // Every queued or dead slot owns exactly one heap entry, and every heap
  // entry names such a slot.
  std::vector<bool> has_entry(states_.size(), false);
  for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
    const HeapEntry& entry = heap_[pos];
    const std::uint32_t slot = slot_of(entry);
    if (slot >= states_.size() || has_entry[slot]) return false;
    has_entry[slot] = true;
    const SlotPhase phase = states_[slot].phase;
    if (phase != SlotPhase::kQueued && phase != SlotPhase::kDead) return false;
    // 4-ary heap property; keys are unique so the order is strict.
    if (pos > 0 && !before(heap_[(pos - 1) / 4], entry)) return false;
  }
  // Live and dead counts match the slot phases; free slots are exactly the
  // free list.
  std::size_t live = 0, dead = 0, free = 0;
  for (std::size_t slot = 0; slot < states_.size(); ++slot) {
    switch (states_[slot].phase) {
      case SlotPhase::kQueued:
        ++live;
        break;
      case SlotPhase::kDead:
        ++dead;
        break;
      case SlotPhase::kFree:
        ++free;
        break;
      case SlotPhase::kFiring:
        break;
    }
    const bool queued = states_[slot].phase == SlotPhase::kQueued ||
                        states_[slot].phase == SlotPhase::kDead;
    if (queued != has_entry[slot]) return false;
  }
  if (live != live_ || dead != dead_) return false;
  if (free != free_.size()) return false;
  for (const std::uint32_t slot : free_) {
    if (slot >= states_.size() || states_[slot].phase != SlotPhase::kFree) {
      return false;
    }
  }
  // The root is live (next_event_time() is exact) and not in the past.
  if (!heap_.empty()) {
    if (states_[slot_of(heap_[0])].phase != SlotPhase::kQueued) return false;
    if (heap_[0].time < now_) return false;
  }
  return true;
}

}  // namespace focus::sim
