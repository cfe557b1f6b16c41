#pragma once
// Deterministic discrete-event simulation kernel. Every distributed component
// in this repository (gossip agents, the FOCUS service, brokers, baselines)
// executes on top of this kernel: components schedule closures at simulated
// times and the kernel runs them in (time, sequence) order.
//
// Internals (see DESIGN.md "Kernel internals"): events live in a slab of
// address-stable recycled records addressed by generation-tagged TimerIds.
// Pending events are ordered by one flat 4-ary min-heap of 16-byte
// (time, enqueue seq | slot) entries. A fresh seq is drawn on every
// schedule and on every periodic re-arm, so same-instant events run in the
// order they were enqueued. cancel() is lazy: the slot is marked dead and
// its callable destroyed at once, and the entry is discarded when it
// surfaces; the heap root is always live, so next_event_time() is exact, and
// the heap is rebuilt whenever dead entries outnumber live ones. Callables
// are move-only small-buffer-optimized UniqueTasks: scheduling does not
// heap-allocate for ordinary closures, one-shots fire in place with a
// single fused invoke+destroy call, and periodic re-arms involve no
// refcount churn.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "common/unique_task.hpp"

namespace focus::sim {

/// Identifies a scheduled (cancellable) event or periodic task. Encodes the
/// slab slot in the low 32 bits and the slot's allocation generation in the
/// high 32 bits, so a stale id (its event fired, was cancelled, or its slot
/// was recycled) is recognized in O(1) and cancelled harmlessly as a no-op.
/// A generation field of zero is never issued: 0 (and any small integer)
/// is a safe "no timer" sentinel.
using TimerId = std::uint64_t;

/// Discrete-event scheduler with a virtual clock.
///
/// Events scheduled for the same instant run in scheduling order, which makes
/// runs bit-reproducible. The kernel is single-threaded by design; see
/// DESIGN.md ("Determinism").
class Simulator {
 public:
  using Task = UniqueTask;

  /// Construction installs this simulator as the *calling thread's* Logger
  /// sim-time source so log lines carry reproducible timestamps; destruction
  /// uninstalls it. The slot is per-thread: several live simulators on one
  /// thread follow last-constructed-wins (the usual case — one kernel per
  /// testbed — has exactly one), while a sharded run re-installs each
  /// shard's clock on the worker executing it and the committed window time
  /// on the coordinator (sim::ShardedSimulator owns those installs).
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (microseconds since scenario start).
  SimTime now() const noexcept { return now_; }

  /// Schedule `task` to run at absolute simulated time `t` (clamped to now).
  /// Returns an id usable with cancel().
  TimerId schedule_at(SimTime t, Task task);

  /// Schedule `task` to run `delay` microseconds from now.
  TimerId schedule_after(Duration delay, Task task);

  /// Run `task` every `interval` microseconds, starting `interval` from now
  /// (or at `first_delay` when given). The task keeps firing until cancelled.
  TimerId every(Duration interval, Task task, Duration first_delay = -1);

  /// Cancel a pending timer or periodic task. Cancelling an already-fired
  /// one-shot timer, an already-cancelled id, or an id whose slot has been
  /// recycled is a harmless no-op (the generation tag detects staleness).
  /// An id this simulator could never have issued — unknown slot, or a
  /// generation newer than the slot has reached — indicates a corrupt or
  /// foreign TimerId and fails a FOCUS_CHECK.
  void cancel(TimerId id);

  /// Process the single next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue is empty (careful: periodic tasks never drain).
  void run();

  /// Run all events with time <= t, then advance the clock to exactly t.
  void run_until(SimTime t);

  /// Run for `d` microseconds of simulated time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Number of scheduled (not yet cancelled) events.
  std::size_t pending() const noexcept { return live_; }

  /// Total events executed so far (for kernel benchmarks).
  std::uint64_t executed() const noexcept { return executed_; }

  /// Queue entries held, dead (cancelled, not yet discarded) ones included.
  /// Never more than twice pending() plus a small constant: the queue is
  /// compacted whenever dead entries outnumber live ones.
  std::size_t queued_entries() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event, or now() when the queue is empty.
  /// Exact: dead entries are discarded as soon as they reach the heap root,
  /// so the root is always a live event — the precise instant the kernel
  /// will execute next — and `next_event_time() >= now()` certifies the
  /// whole queue is in the future, the monotonicity invariant the audit
  /// layer verifies.
  SimTime next_event_time() const {
    return heap_.empty() ? now_ : heap_[0].time;
  }

  /// Order-sensitive FNV-1a digest over every executed event's (time, id).
  /// Two runs of the same seeded scenario must produce identical digests;
  /// the determinism ctest (tests/test_audit.cpp) enforces this. The id
  /// folded in is the event's creation-order sequence number (1, 2, ...),
  /// not the slot-encoded TimerId, so digests are byte-compatible with the
  /// pre-slab kernel and independent of slot recycling.
  std::uint64_t digest() const noexcept { return digest_; }

  /// Structural self-check for the audit layer: the 4-ary heap order holds
  /// over (time, seq), every queued or dead slot has exactly one heap entry
  /// and every heap entry names one, the live and dead counts match the
  /// slot states, the free list holds exactly the free slots, and the heap
  /// root is live and not in the past. O(pending + slab).
  bool queue_consistent() const;

 private:
  /// A slab record: the callable plus the cold per-event payload, touched
  /// once at schedule time and once at fire time. digest_id and period lead
  /// the layout so the fire path reads them and the task header from the
  /// same cache line.
  struct Event {
    std::uint64_t digest_id = 0;  ///< creation-order id folded into digest()
    Duration period = 0;          ///< 0 = one-shot
    UniqueTask task;
  };

  /// Lifecycle of a slab slot.
  enum class SlotPhase : std::uint8_t {
    kFree,    ///< on the free list
    kQueued,  ///< live, with one heap entry
    kDead,    ///< cancelled; its heap entry is discarded when it surfaces
    kFiring,  ///< a one-shot whose callable is running; no heap entry
  };

  /// Scheduling-hot bookkeeping, parallel to the slab.
  struct SlotState {
    std::uint32_t gen = 0;  ///< bumped on allocation; matches live ids
    SlotPhase phase = SlotPhase::kFree;
  };

  /// One heap element: the event's time plus `seq << kSlotBits | slot`.
  /// Seqs are unique, so (time, key) is a strict total order equal to
  /// (time, seq), and the slot rides along without widening the entry.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << 40) - 1;
  /// Dead entries below this count are never worth a rebuild.
  static constexpr std::size_t kCompactFloor = 64;

  static std::uint32_t slot_of(const HeapEntry& e) noexcept {
    return static_cast<std::uint32_t>(e.key & (kMaxSlots - 1));
  }

  /// Heap order: earlier time first, then earlier enqueue seq.
  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.key < b.key);
  }

  /// Records live in fixed-size chunks so their addresses never change:
  /// a firing task may grow the slab (scheduling from inside a task is the
  /// common case), and stable addresses are what allow the one-shot fire
  /// path to invoke the callable in place instead of moving it out first.
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Event& record(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  static TimerId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<TimerId>(gen) << 32) | slot;
  }

  /// Take a slot from the free list (or grow the slab).
  std::uint32_t alloc_slot();

  /// Return a slot whose callable is already destroyed to the free list.
  void free_slot(std::uint32_t slot);

  /// Queue `slot` at `time` under a freshly drawn seq.
  void push(SimTime time, std::uint32_t slot);

  /// Remove the root entry.
  void pop_root();

  /// Discard dead entries from the root until it is live (or the heap is
  /// empty), freeing their slots.
  void drop_dead_roots();

  /// Drop every dead entry and re-heapify. Keys are unique, so the pop
  /// order of the live entries is unchanged.
  void compact();

  /// Draw the next enqueue seq, shifted into key position.
  std::uint64_t next_key(std::uint32_t slot);

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  /// Fold one executed event into the run digest.
  void mix_digest(SimTime time, std::uint64_t digest_id) noexcept;

  SimTime now_ = 0;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::uint64_t next_digest_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;         ///< scheduled, not yet fired or cancelled
  std::size_t dead_ = 0;         ///< cancelled entries still in the heap
  std::uint32_t slab_size_ = 0;  ///< slots ever allocated (records + states)
  std::vector<std::unique_ptr<Event[]>> chunks_;  ///< address-stable records
  std::vector<SlotState> states_;    ///< parallel to the slab
  std::vector<std::uint32_t> free_;  ///< recycled slots (LIFO)
  std::vector<HeapEntry> heap_;      ///< 4-ary min-heap over (time, seq)
};

}  // namespace focus::sim
