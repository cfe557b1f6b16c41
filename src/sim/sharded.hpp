#pragma once
// Conservative parallel simulation driver: the one scheduler every world
// runs on. One sim::Simulator per shard — a WAN region, a (region,
// sub-shard) pair once a region is split (Topology::set_sub_shards), or the
// whole world on one kernel (Topology::set_single_shard) — runs on a worker
// thread.
//
// The driver takes a per-(src,dst) lookahead matrix and advances each shard
// to its own safe horizon `min over incoming edges (committed[src] +
// lookahead[src][dst])` (Chandy–Misra–Bryant-style safe-time advance).
// Naive per-edge horizons alone would pace the whole fleet at the tightest
// edge (transitive coupling), so the round loop adds hysteresis: a shard
// runs only when its available stride is at least `batch_factor` times its
// tightest incoming lookahead (or when it can reach the run_until target).
// When nothing qualifies, exactly one shard — the lowest-indexed among those
// furthest behind — is woken, which staggers sibling sub-shards half a cycle
// apart. Every decision is a pure function of the committed-time vector and
// the matrix, never of worker count, so digests stay byte-identical across
// worker counts.
//
// Two matrices cover every layout:
//  - Topology::lookahead_matrix(): per-pair floors (per-edge windows).
//  - uniform_lookahead(n, window) with batch_factor 1.0: every shard steps
//    in lock-step windows of `window` — the classic global conservative
//    window, as a special case of the same scheduler.
// A one-shard matrix has no finite edge, so its lone kernel runs straight to
// the run_until target (or the next stop point, below).
//
// Same-shard events never leave their kernel, and any cross-shard send
// carries at least its edge's lookahead of latency, so it cannot affect
// another shard before that shard's next horizon. Cross-shard deliveries are
// staged during a round (net/shard_stage.hpp) and merged by the coordinator
// in the barrier hook in a deterministic order, which keeps every shard's
// event sequence — and therefore digest() — byte-identical for any
// worker-thread count. See DESIGN.md §10.
//
// Stop points: when no shard has a finite incoming edge (one shard, or
// shards declared to exchange no traffic), rounds also end at the stop
// source's next time, so periodic audits and telemetry sampling land
// exactly on their due times. That is digest-neutral only there: a kernel's
// run_until gives the same result however the span is split, and nothing
// crosses shards. Coupled worlds ignore stop points and sample at rounds.
//
// Threading model: the coordinator (the thread that calls run_until) parks
// between rounds; `threads` persistent workers each own a fixed round-robin
// subset of the shards. threads == 1 runs the same algorithm inline on the
// caller with no worker threads at all — the degenerate case the
// determinism tests compare against. All shard state is confined: workers
// touch only their own shards during a round, the coordinator touches
// shards only while workers are parked (the mutex hand-off orders both).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace focus::sim {

/// Lookahead matrix of the classic global conservative window: `shards`²
/// row-major entries, `window` off the diagonal and kNoTrafficLookahead on
/// it. Driven with batch_factor 1.0, every shard commits to the same time
/// each round, `window` at a time. FOCUS_CHECKs `window` positive.
std::vector<Duration> uniform_lookahead(std::size_t shards, Duration window);

/// Drives N shard kernels through conservative rounds. Does not own the
/// shards; they must outlive the driver. Construction requires all shard
/// clocks to agree (normally: freshly built kernels at t=0).
class ShardedSimulator {
 public:
  /// Runs after each round on the coordinator thread, with every worker
  /// parked: safe to read/mutate any shard (merge staged cross-shard
  /// messages, run audits, sample state). Receives the committed fleet time
  /// — the minimum committed time; per-shard commit times are in
  /// committed_times().
  using BarrierHook = std::function<void(SimTime)>;

  /// Returns the next stop point (see the header comment); a time at or
  /// before now() means none. Called on the coordinator before each round.
  using StopSource = std::function<SimTime()>;

  /// `lookahead` is the flattened row-major per-(src,dst)-shard
  /// minimum-delay matrix (shards² entries — Topology::lookahead_matrix() or
  /// uniform_lookahead()); entries equal to kNoTrafficLookahead are skipped
  /// (no constraint). `threads` is the worker count (clamped to
  /// [1, shards]); 1 = inline. `batch_factor` is the hysteresis multiplier:
  /// a shard runs only once it can stride at least `batch_factor × (its
  /// tightest incoming lookahead)` — 1.0 disables batching (classic CMB),
  /// larger values trade commit granularity for fewer, wider windows.
  ShardedSimulator(std::vector<Simulator*> shards,
                   std::vector<Duration> lookahead, unsigned threads = 1,
                   double batch_factor = 2.0);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  void set_barrier_hook(BarrierHook hook) { hook_ = std::move(hook); }
  void set_stop_source(StopSource stop) { stop_source_ = std::move(stop); }

  /// Advance every shard to exactly `t`, one round at a time, invoking the
  /// barrier hook after each round commits. Shard kernels must not be run
  /// directly between calls (FOCUS_CHECKed): the driver's committed times
  /// would go stale.
  void run_until(SimTime t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Committed fleet time: every shard has executed all events <= now().
  /// This is the minimum per-shard committed time; individual shards may be
  /// ahead (see committed_times()), but at the end of every run_until all
  /// shards have converged to the target.
  SimTime now() const noexcept { return now_; }

  std::size_t num_shards() const noexcept { return shards_.size(); }
  unsigned threads() const noexcept { return threads_; }
  Simulator& shard(std::size_t i) { return *shards_[i]; }
  const Simulator& shard(std::size_t i) const { return *shards_[i]; }

  /// Per-shard committed times (all equal to now() under a uniform
  /// matrix). Barrier-time only — read from the hook or between run_until
  /// calls. This is what a per-destination stager merge checks deliveries
  /// against.
  const std::vector<SimTime>& committed_times() const noexcept {
    return committed_;
  }

  // -- Window statistics (deterministic, sim-time based; barrier-time only) --

  /// Coordinator rounds so far. Each round costs one worker wake/park cycle
  /// plus one hook (merge) invocation.
  std::uint64_t rounds() const noexcept { return rounds_; }

  /// Windows shard `i` actually executed (under a uniform matrix every shard
  /// runs every round, so this equals rounds()). events/shard_windows is the
  /// events-per-window figure per-edge matrices exist to raise.
  std::uint64_t shard_windows(std::size_t i) const {
    return windows_run_[i];
  }

  /// Total simulated width (µs) of the windows shard `i` executed; divide by
  /// shard_windows(i) for the mean window width.
  Duration shard_window_width(std::size_t i) const {
    return window_width_sum_[i];
  }

  /// Total events executed across all shards. Barrier-time only.
  std::uint64_t executed() const noexcept;

  // -- Wall-clock scheduler profiling (opt-in, observation-only) ------------

  /// Wall-clock accounting for one shard, accumulated over every coordinator
  /// round while wall profiling is enabled. The three parts partition each
  /// round's wall time exactly: busy_ns + stall_ns + idle_ns == wall_ns.
  ///  - busy:  this shard's kernel was executing events
  ///  - stall: the shard ran this round but finished before the round's
  ///           slowest participant (barrier stall — the cost lock-step
  ///           windows impose and per-edge matrices exist to shrink)
  ///  - idle:  the shard sat the round out entirely (hysteresis held it
  ///           back, or it was already at the target)
  struct ShardProfile {
    std::int64_t busy_ns = 0;
    std::int64_t stall_ns = 0;
    std::int64_t idle_ns = 0;
    std::int64_t wall_ns = 0;  ///< total coordinator round wall time
  };

  /// Enable/disable wall-clock profiling (default off). Observation-only:
  /// profiling reads a wall clock but never feeds any scheduling decision,
  /// so digests are byte-identical with it on or off. Barrier-time only.
  void set_wall_profiling(bool on) noexcept { wall_profiling_ = on; }
  bool wall_profiling() const noexcept { return wall_profiling_; }

  /// Per-shard profiles (all zero until wall profiling is enabled).
  /// Barrier-time only.
  const std::vector<ShardProfile>& shard_profiles() const noexcept {
    return profiles_;
  }

  /// Horizon-limiter attribution: how many of `shard`'s committed windows
  /// had their horizon bound by the incoming edge from `src`.
  /// `src == num_shards()` counts windows bound by the run target (or a stop
  /// point) instead of any edge (the unconstrained case). Deterministic
  /// (sim-time derived), barrier-time only.
  std::uint64_t limited_by(std::size_t shard, std::size_t src) const {
    return limited_by_[shard * (shards_.size() + 1) + src];
  }

  /// Order-sensitive FNV-1a fold of the per-shard digests, in shard order;
  /// a lone shard's kernel digest is returned as is, so a one-shard world
  /// reports exactly its kernel's digest. Byte-identical across
  /// worker-thread counts for the same seed; the determinism ctest
  /// (tests/test_sharded.cpp) enforces this. Barrier-time only (between
  /// run_until calls or inside the barrier hook).
  std::uint64_t digest() const noexcept;

 private:
  void worker_main(unsigned index);
  /// Run this worker's shards (round-robin subset `index, index+threads,
  /// ...`) up to each shard's entry in round_targets_, stamping the thread's
  /// log lines with the clock of the shard currently executing.
  void run_assigned(unsigned index);
  static std::int64_t coordinator_time(const void* ctx);

  /// Safe horizon of shard `i` clamped to `t`: min over incoming edges with
  /// finite lookahead of committed_[src] + lookahead_[src][i]. `limiter`
  /// (optional) receives the src index of the binding edge, or
  /// shards_.size() when the target `t` itself binds (first strictly-smaller
  /// edge wins ties against t, lowest src wins ties between edges — both
  /// deterministic).
  SimTime horizon(std::size_t i, SimTime t,
                  std::size_t* limiter = nullptr) const;
  /// One coordinator round: pick the shards to run (hysteresis eligibility,
  /// or the single-lowest-index fallback), publish round_targets_, execute,
  /// commit, hook. Pure function of committed_, the matrix and `t` — never
  /// of worker count.
  void run_round(SimTime t);
  /// Dispatch round_targets_ to the workers (or run inline) and wait.
  void execute_round();

  std::vector<Simulator*> shards_;
  unsigned threads_;
  BarrierHook hook_;
  StopSource stop_source_;
  SimTime now_ = 0;

  std::vector<Duration> lookahead_;   ///< shards² row-major
  double batch_factor_ = 1.0;
  std::vector<Duration> min_incoming_;  ///< tightest finite incoming edge
  /// No shard has a finite incoming edge: rounds may end at stop points.
  bool uncoupled_ = true;
  std::vector<SimTime> committed_;      ///< per-shard committed time
  std::vector<SimTime> round_targets_;  ///< worker hand-off targets
  std::uint64_t rounds_ = 0;
  std::vector<std::uint64_t> windows_run_;
  std::vector<Duration> window_width_sum_;

  // Wall-clock profiling (observation-only; see set_wall_profiling). Each
  // round_busy_ns_ entry is written only by the worker that owns the shard
  // during a round and read/reset only by the coordinator while workers are
  // parked — the same confinement discipline as the shards themselves.
  bool wall_profiling_ = false;
  std::vector<ShardProfile> profiles_;
  std::vector<std::int64_t> round_busy_ns_;
  // Limiter attribution: shards_ x (shards_+1) counts, written at
  // commit time by the coordinator; round_limiter_ carries each shard's
  // binding edge from selection to commit within one round.
  std::vector<std::uint64_t> limited_by_;
  std::vector<std::size_t> round_limiter_;

  // Round hand-off (threads_ > 1): the coordinator publishes round_targets_
  // and bumps epoch_; each worker runs its shards to their targets and bumps
  // done_.
  // This mutex is the only cross-thread channel in the driver — shard event
  // state itself is never shared mid-window.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  unsigned done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace focus::sim
