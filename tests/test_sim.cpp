// Unit tests for the discrete-event kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kernel_workload.hpp"
#include "sim/simulator.hpp"

namespace focus::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  SimTime observed = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { observed = s.now(); });
  });
  s.run();
  EXPECT_EQ(observed, 150);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator s;
  s.schedule_at(100, [] {});
  s.run();
  SimTime observed = -1;
  s.schedule_at(10, [&] { observed = s.now(); });  // in the past
  s.run();
  EXPECT_EQ(observed, 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const TimerId id = s.schedule_at(10, [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator s;
  s.cancel(999);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator s;
  int fires = 0;
  s.every(10, [&] { ++fires; });
  s.run_until(95);
  EXPECT_EQ(fires, 9);
  EXPECT_EQ(s.now(), 95);
}

TEST(Simulator, PeriodicFirstDelayOverride) {
  Simulator s;
  std::vector<SimTime> at;
  s.every(10, [&] { at.push_back(s.now()); }, 3);
  s.run_until(25);
  EXPECT_EQ(at, (std::vector<SimTime>{3, 13, 23}));
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator s;
  int fires = 0;
  TimerId id = 0;
  id = s.every(10, [&] {
    if (++fires == 3) s.cancel(id);
  });
  s.run_until(1000);
  EXPECT_EQ(fires, 3);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents) {
  Simulator s;
  bool ran = false;
  s.schedule_at(100, [&] { ran = true; });
  s.run_until(99);
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.now(), 99);
  s.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(Simulator, TaskCanScheduleDuringExecution) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(Simulator, ExecutedCountsEvents) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.executed(), 5u);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_at(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

// ---------------------------------------------------------------------------
// Slab/generation id semantics (PR 2 kernel). A TimerId packs
// (generation << 32 | slot); generation 0 is never issued, so legacy
// sentinel values like 0 or 999 stay harmless no-ops, while ids that could
// only be forged (a slot this simulator never allocated, or a generation
// the slot has not reached yet) trip FOCUS_CHECK.

TEST(Simulator, CancelOfRecycledSlotIsNoop) {
  Simulator s;
  bool first_ran = false;
  bool second_ran = false;
  const TimerId first = s.schedule_at(10, [&] { first_ran = true; });
  s.cancel(first);  // frees the slot
  // The freed slot is recycled for the next timer with a bumped generation.
  const TimerId second = s.schedule_at(20, [&] { second_ran = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(second),
            static_cast<std::uint32_t>(first));  // same slot...
  EXPECT_NE(second, first);                      // ...new generation
  // Cancelling the stale id again must not touch the recycled slot's timer.
  s.cancel(first);
  s.cancel(first);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
}

TEST(SimulatorDeath, CancelOfFutureGenerationDies) {
  Simulator s;
  const TimerId id = s.schedule_at(10, [] {});
  // Same slot, generation the slot has not reached: only forgeable.
  const TimerId forged = id + (std::uint64_t{1} << 32);
  EXPECT_DEATH({ s.cancel(forged); }, "future generation");
}

TEST(SimulatorDeath, CancelOfNeverAllocatedSlotDies) {
  Simulator s;
  s.schedule_at(10, [] {});
  // Non-zero generation on a slot far beyond anything this simulator issued.
  const TimerId forged = (std::uint64_t{1} << 32) | 0xFFFFu;
  EXPECT_DEATH({ s.cancel(forged); }, "never issued");
}

// ---------------------------------------------------------------------------
// Golden workload replay. The values below were captured from the
// pre-slab kernel (PR 1, commit c203a53) by running tests/kernel_workload.hpp
// against it; the slab rewrite must reproduce them bit-for-bit — digest,
// event count, pending count, and final clock are observable behavior.
// They depend on the standard library's distribution implementations, so
// they are pinned for the CI toolchain (libstdc++).

constexpr std::uint64_t kWorkloadEvents = 1'000'000;

TEST(KernelWorkloadGolden, Seed3) {
  const WorkloadResult got = run_kernel_workload(3, kWorkloadEvents);
  const WorkloadResult want{1181201132743817584ull, 1001034ull, 1u, 2618987,
                            1001034ull};
  EXPECT_EQ(got, want);
}

TEST(KernelWorkloadGolden, Seed7) {
  const WorkloadResult got = run_kernel_workload(7, kWorkloadEvents);
  const WorkloadResult want{135833571713836590ull, 1001647ull, 0u, 1660333,
                            1001647ull};
  EXPECT_EQ(got, want);
}

TEST(KernelWorkloadGolden, Seed99) {
  const WorkloadResult got = run_kernel_workload(99, kWorkloadEvents);
  const WorkloadResult want{18001719644620012154ull, 1000779ull, 2u, 1500256,
                            1000779ull};
  EXPECT_EQ(got, want);
}

TEST(Simulator, ManyTimersStressOrdering) {
  Simulator s;
  SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 5000; ++i) {
    s.schedule_at((i * 7919) % 1000, [&] {
      if (s.now() < last) monotonic = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotonic);
}

// ---------------------------------------------------------------------------
// Differential test against a reference model: a std::map keyed by
// (time, enqueue seq), the textbook definition of the kernel's order. A seq
// is drawn on every schedule and every periodic re-arm (before the task
// runs); cancel erases the entry. The same rng-driven script runs against
// both; any divergence in execution order desynchronizes the rng and shows
// up in the logs.

/// Reference kernel with the Simulator's scheduling API.
class RefKernel {
 public:
  using Id = std::uint64_t;

  SimTime now() const { return now_; }
  std::size_t pending() const { return events_.size(); }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t digest() const { return digest_; }

  Id schedule_at(SimTime t, std::function<void()> fn) {
    return add(std::max(t, now_), 0, std::move(fn));
  }
  Id every(Duration interval, std::function<void()> fn, Duration first_delay) {
    return add(now_ + (first_delay >= 0 ? first_delay : interval), interval,
               std::move(fn));
  }
  void cancel(Id id) {
    const auto it = where_.find(id);
    if (it == where_.end()) return;
    events_.erase(it->second);
    where_.erase(it);
  }
  bool step() {
    if (events_.empty()) return false;
    const auto it = events_.begin();
    now_ = it->first.first;
    Event ev = std::move(it->second);
    events_.erase(it);
    constexpr std::uint64_t kFnvPrime = 1099511628211ull;
    digest_ = (digest_ ^ static_cast<std::uint64_t>(now_)) * kFnvPrime;
    digest_ = (digest_ ^ ev.digest_id) * kFnvPrime;
    ++executed_;
    if (ev.period > 0) {
      const Key key{now_ + ev.period, seq_++};
      events_.emplace(key, ev);  // re-armed before the task runs
      where_[ev.id] = key;
    } else {
      where_.erase(ev.id);
    }
    ev.fn();
    return true;
  }
  void run_until(SimTime t) {
    while (!events_.empty() && events_.begin()->first.first <= t) step();
    now_ = std::max(now_, t);
  }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;
  struct Event {
    Id id = 0;
    std::uint64_t digest_id = 0;
    Duration period = 0;
    std::function<void()> fn;
  };

  Id add(SimTime t, Duration period, std::function<void()> fn) {
    const Id id = ++created_;
    const Key key{t, seq_++};
    events_.emplace(key, Event{id, id, period, std::move(fn)});
    where_[id] = key;
    return id;
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = 14695981039346656037ull;
  std::map<Key, Event> events_;
  std::unordered_map<Id, Key> where_;
};

struct ScriptResult {
  std::vector<std::pair<SimTime, std::uint64_t>> log;  ///< (now, label)
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  SimTime final_now = 0;
  bool consistent = true;  ///< Simulator::queue_consistent() held throughout
};

template <typename K>
bool kernel_consistent(const K& k) {
  if constexpr (std::is_same_v<K, Simulator>) {
    return k.queue_consistent() && k.next_event_time() >= k.now();
  } else {
    return true;
  }
}

/// One rng-driven script of schedules (past times included), periodics,
/// self-cancels, cancels of other (often stale) ids and reentrant schedules.
template <typename K>
ScriptResult run_script(std::uint64_t seed, int ops) {
  K k;
  Rng rng(seed);
  ScriptResult out;
  std::vector<std::uint64_t> ids;  // by label; 0 until schedule returns
  std::function<std::uint64_t(int, SimTime, Duration)> spawn;

  auto fire = [&](std::uint64_t label) {
    out.log.emplace_back(k.now(), label);
    switch (rng.uniform_int(0, 19)) {
      case 0:
      case 1:  // reentrant, same instant
        spawn(0, k.now(), 0);
        break;
      case 2:  // reentrant, future
        spawn(0, k.now() + rng.uniform_int(1, 100), 0);
        break;
      case 3:  // reentrant, in the past: clamps to now
        spawn(0, k.now() - rng.uniform_int(1, 50), 0);
        break;
      case 4:
      case 5:  // self-cancel: stops a periodic, stale for a firing one-shot
        k.cancel(ids[label]);
        break;
      case 6:  // cancel another event, often already fired
        k.cancel(ids[rng.index(ids.size())]);
        break;
      case 7:  // reentrant periodic
        spawn(1, 0, rng.uniform_int(1, 60));
        break;
      default:
        break;
    }
    out.consistent = out.consistent && kernel_consistent(k);
  };
  // kind 0: one-shot at `t`; kind 1: periodic with `interval`.
  spawn = [&](int kind, SimTime t, Duration interval) {
    const std::uint64_t label = ids.size();
    ids.push_back(0);
    const auto task = [&fire, label] { fire(label); };
    if (kind == 0) {
      ids[label] = k.schedule_at(t, task);
    } else {
      ids[label] = k.every(interval, task, rng.uniform_int(-1, 40));
    }
    return ids[label];
  };

  for (int op = 0; op < ops; ++op) {
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:  // one-shot, possibly in the past
        spawn(0, k.now() + rng.uniform_int(-50, 300), 0);
        break;
      case 3:  // same instant as now
        spawn(0, k.now(), 0);
        break;
      case 4:
        spawn(1, 0, rng.uniform_int(1, 100));
        break;
      case 5:  // cancel any id: live, fired, cancelled
        if (!ids.empty()) k.cancel(ids[rng.index(ids.size())]);
        break;
      case 6:  // double cancel
        if (!ids.empty()) {
          const std::uint64_t id = ids[rng.index(ids.size())];
          k.cancel(id);
          k.cancel(id);
        }
        break;
      case 7:
        k.step();
        break;
      default:
        k.run_until(k.now() + rng.uniform_int(0, 200));
        break;
    }
    out.consistent = out.consistent && kernel_consistent(k);
  }
  // Stop every periodic, then drain.
  for (const std::uint64_t id : ids) k.cancel(id);
  k.run_until(k.now() + 1000);
  out.digest = k.digest();
  out.executed = k.executed();
  out.pending = k.pending();
  out.final_now = k.now();
  return out;
}

TEST(SimulatorDifferential, MatchesReferenceModelOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const ScriptResult got = run_script<Simulator>(seed, 3000);
    const ScriptResult want = run_script<RefKernel>(seed, 3000);
    EXPECT_TRUE(got.consistent);
    ASSERT_EQ(got.log.size(), want.log.size());
    EXPECT_EQ(got.log, want.log);
    EXPECT_EQ(got.digest, want.digest);
    EXPECT_EQ(got.executed, want.executed);
    EXPECT_EQ(got.pending, want.pending);
    EXPECT_EQ(got.final_now, want.final_now);
    EXPECT_GT(got.executed, 1000u);  // the script did real work
  }
}

// Lazy cancel leaves dead entries in the queue; they must not pile up. A
// far-future schedule+cancel loop behind a live periodic (so the cancelled
// entries never reach the root) is the worst case — e.g. query timeouts
// cancelled on completion.
TEST(Simulator, DeadEntriesStayBounded) {
  Simulator s;
  int ticks = 0;
  const TimerId tick = s.every(10, [&] { ++ticks; });
  std::vector<SimTime> fired;
  for (int i = 0; i < 200000; ++i) {
    const TimerId id = s.schedule_at(1'000'000'000 + i, [] {});
    s.cancel(id);
    if (i % 1000 == 0) {
      // A sprinkling of survivors whose order must outlive compaction.
      const SimTime at = 2'000'000'000 - i;
      s.schedule_at(at, [&fired, &s] { fired.push_back(s.now()); });
    }
    ASSERT_LE(s.queued_entries(), 2 * s.pending() + 64) << "iteration " << i;
    if (i % 5000 == 0) {
      ASSERT_TRUE(s.queue_consistent());
    }
    if (i % 100 == 0) s.step();
  }
  EXPECT_TRUE(s.queue_consistent());
  EXPECT_EQ(s.pending(), 201u);  // the periodic plus 200 survivors
  EXPECT_EQ(ticks, 2000);
  s.cancel(tick);
  s.run_until(2'000'000'000);
  ASSERT_EQ(fired.size(), 200u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_TRUE(s.queue_consistent());
}

// Cancelling the root discards it (and any dead entries behind it) at once,
// so next_event_time() names the next live event.
TEST(Simulator, NextEventTimeSkipsCancelledEvents) {
  Simulator s;
  const TimerId a = s.schedule_at(10, [] {});
  const TimerId b = s.schedule_at(20, [] {});
  s.schedule_at(30, [] {});
  s.cancel(b);
  EXPECT_EQ(s.next_event_time(), 10);
  s.cancel(a);
  EXPECT_EQ(s.next_event_time(), 30);
  EXPECT_EQ(s.queued_entries(), 1u);
  EXPECT_TRUE(s.queue_consistent());
}

}  // namespace
}  // namespace focus::sim
