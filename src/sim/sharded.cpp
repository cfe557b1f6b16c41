#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>  // focus-lint: allow(determinism): opt-in profiling only
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace focus::sim {

namespace {
// Deterministic coordination counters (sim-time quantities only — the
// wall-clock side lives in the opt-in ShardProfile accounting below, which
// observes but never steers the schedule).
const obs::MetricId kRoundsMetric = obs::MetricId::counter("sharded.rounds");
const obs::MetricId kShardWindowsMetric =
    obs::MetricId::counter("sharded.shard_windows");
const obs::MetricId kWindowWidthMetric =
    obs::MetricId::counter("sharded.window_width_us");

/// Monotonic wall clock for the opt-in scheduler profile. This is the ONE
/// place src/sim touches a wall clock: the readings feed ShardProfile
/// accounting only, never a scheduling decision, so digests are identical
/// with profiling on or off (tests/test_telemetry.cpp pins this).
std::int64_t wall_now_ns() {
  // focus-lint: allow(determinism): observation-only profiling clock
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  // focus-lint: allow(determinism): observation-only profiling clock
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}
}  // namespace

std::vector<Duration> uniform_lookahead(std::size_t shards, Duration window) {
  FOCUS_CHECK_GT(window, 0)
      << "conservative window must be positive (Topology::lookahead_floor)";
  std::vector<Duration> matrix(shards * shards, window);
  for (std::size_t s = 0; s < shards; ++s) {
    matrix[s * shards + s] = kNoTrafficLookahead;
  }
  return matrix;
}

ShardedSimulator::ShardedSimulator(std::vector<Simulator*> shards,
                                   std::vector<Duration> lookahead,
                                   unsigned threads, double batch_factor)
    : shards_(std::move(shards)),
      threads_(std::clamp<unsigned>(
          threads, 1u, static_cast<unsigned>(shards_.empty() ? 1 : shards_.size()))),
      lookahead_(std::move(lookahead)),
      batch_factor_(batch_factor) {
  FOCUS_CHECK(!shards_.empty()) << "sharded run needs at least one shard";
  const std::size_t n = shards_.size();
  FOCUS_CHECK_EQ(lookahead_.size(), n * n)
      << "the driver needs a full shards x shards lookahead matrix";
  FOCUS_CHECK_GE(batch_factor_, 1.0)
      << "hysteresis below one window would stall horizon advances";
  // Tightest finite incoming edge per shard — the hysteresis unit. A shard
  // with no finite incoming edge is unconstrained and always runs straight
  // to the run_until target.
  min_incoming_.assign(n, kNoTrafficLookahead);
  for (std::size_t dst = 0; dst < n; ++dst) {
    for (std::size_t src = 0; src < n; ++src) {
      if (src == dst) continue;
      const Duration l = lookahead_[src * n + dst];
      FOCUS_CHECK_GT(l, 0)
          << "lookahead matrix entries must be positive (shard " << src
          << " -> " << dst << ")";
      min_incoming_[dst] = std::min(min_incoming_[dst], l);
    }
    if (min_incoming_[dst] != kNoTrafficLookahead) uncoupled_ = false;
  }
  for (const Simulator* shard : shards_) {
    FOCUS_CHECK(shard != nullptr);
    FOCUS_CHECK_EQ(shard->now(), shards_.front()->now())
        << "shard clocks must agree at driver construction";
  }
  now_ = shards_.front()->now();
  committed_.assign(n, now_);
  round_targets_.assign(n, now_);
  windows_run_.assign(n, 0);
  window_width_sum_.assign(n, 0);
  profiles_.assign(n, ShardProfile{});
  round_busy_ns_.assign(n, 0);
  limited_by_.assign(n * (n + 1), 0);
  round_limiter_.assign(n, n);
  // The coordinator thread's log lines carry the committed fleet time; each
  // shard's own install (Simulator ctor) only matters on the thread that
  // executes it, which run_assigned re-establishes per window.
  Logger::set_time_source(&ShardedSimulator::coordinator_time, this);
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
  Logger::clear_time_source(this);
}

std::int64_t ShardedSimulator::coordinator_time(const void* ctx) {
  return static_cast<const ShardedSimulator*>(ctx)->now_;
}

void ShardedSimulator::run_assigned(unsigned index) {
  for (std::size_t s = index; s < shards_.size(); s += threads_) {
    Simulator* shard = shards_[s];
    // A shard whose target equals its clock sits this round out.
    const SimTime shard_target = round_targets_[s];
    if (shard_target <= shard->now()) continue;
    // Stamp this thread's log lines with the clock of the shard it is
    // currently executing.
    Logger::set_time_source(
        [](const void* ctx) {
          return static_cast<const Simulator*>(ctx)->now();
        },
        shard);
    if (wall_profiling_) {
      // round_busy_ns_[s] is confined to this worker for the round (the
      // coordinator reset it before publishing the epoch; it reads it back
      // only after done_cv_ — both orderings ride the existing mutex
      // hand-off, so this stays TSan-clean).
      const std::int64_t t0 = wall_now_ns();
      shard->run_until(shard_target);
      round_busy_ns_[s] = wall_now_ns() - t0;
    } else {
      shard->run_until(shard_target);
    }
    Logger::clear_time_source(shard);
  }
}

void ShardedSimulator::worker_main(unsigned index) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    run_assigned(index);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++done_;
    }
    done_cv_.notify_one();
  }
}

void ShardedSimulator::execute_round() {
  std::int64_t round_start_ns = 0;
  if (wall_profiling_) {
    round_start_ns = wall_now_ns();
    std::fill(round_busy_ns_.begin(), round_busy_ns_.end(), 0);
  }
  if (workers_.empty()) {
    run_assigned(0);
    // run_assigned left the thread's log-time slot cleared; restore the
    // coordinator stamp for barrier-hook logging.
    Logger::set_time_source(&ShardedSimulator::coordinator_time, this);
  } else {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = 0;
      ++epoch_;
    }
    work_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return done_ == workers_.size(); });
    }
  }
  if (wall_profiling_) {
    // Fold this round into the per-shard profiles. Runs before run_round
    // advances committed_, so `ran` can be derived from the same targets the
    // workers saw. busy is clamped to the round wall (the worker
    // and coordinator read the clock at slightly different moments), which
    // makes busy + stall + idle == wall hold exactly per shard.
    const std::int64_t round_wall = wall_now_ns() - round_start_ns;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ShardProfile& p = profiles_[i];
      p.wall_ns += round_wall;
      if (round_targets_[i] > committed_[i]) {
        const std::int64_t busy = std::min(round_busy_ns_[i], round_wall);
        p.busy_ns += busy;
        p.stall_ns += round_wall - busy;
      } else {
        p.idle_ns += round_wall;
      }
    }
  }
}

SimTime ShardedSimulator::horizon(std::size_t i, SimTime t,
                                  std::size_t* limiter) const {
  const std::size_t n = shards_.size();
  SimTime h = t;
  std::size_t bound_by = n;  // n = the run_until target binds
  for (std::size_t src = 0; src < n; ++src) {
    if (src == i) continue;
    const Duration l = lookahead_[src * n + i];
    if (l == kNoTrafficLookahead) continue;  // declared no-traffic edge
    const SimTime edge_h = committed_[src] + l;
    if (edge_h < h) {
      h = edge_h;
      bound_by = src;
    }
  }
  if (limiter != nullptr) *limiter = bound_by;
  return h;
}

void ShardedSimulator::run_round(SimTime t) {
  const std::size_t n = shards_.size();
  // Select the shards to run. Pure function of (committed_, matrix, t):
  // worker count never enters, so the same seed commits the same sequence of
  // (shard, target) pairs — the digest contract.
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) round_targets_[i] = committed_[i];
  for (std::size_t i = 0; i < n; ++i) {
    if (committed_[i] >= t) continue;
    std::size_t limiter = n;
    const SimTime h = horizon(i, t, &limiter);
    if (h <= committed_[i]) continue;
    // Hysteresis: without it, per-edge horizons re-couple transitively and
    // the whole fleet paces at the tightest edge. A shard runs only with a
    // full batch of its tightest incoming lookahead in hand — or when it can
    // close out the run_until target, so runs always terminate exactly at t.
    const Duration w = min_incoming_[i];
    const bool batched =
        w == kNoTrafficLookahead ||
        static_cast<double>(h - committed_[i]) >=
            batch_factor_ * static_cast<double>(w);
    if (h == t || batched) {
      round_targets_[i] = h;
      round_limiter_[i] = limiter;
      any = true;
    }
  }
  if (!any) {
    // No shard holds a full batch: wake exactly one — the lowest-indexed
    // among those furthest behind. Running one sibling alone is what
    // staggers sub-shard pairs half a cycle apart; waking every minimum
    // shard would keep siblings in lock-step at half the effective stride.
    // Progress is guaranteed: the globally-least-committed shard's horizon
    // clears its committed time by at least 1µs (every incoming source is at
    // or past it, and lookaheads are positive).
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (committed_[i] >= t) continue;
      if (pick == n || committed_[i] < committed_[pick]) pick = i;
    }
    FOCUS_CHECK_LT(pick, n) << "run_round called with all shards at target";
    std::size_t limiter = n;
    const SimTime h = horizon(pick, t, &limiter);
    FOCUS_CHECK_GT(h, committed_[pick])
        << "per-edge deadlock: least-committed shard cannot advance";
    round_targets_[pick] = h;
    round_limiter_[pick] = limiter;
  }

  execute_round();

  for (std::size_t i = 0; i < n; ++i) {
    if (round_targets_[i] <= committed_[i]) continue;
    ++windows_run_[i];
    window_width_sum_[i] += round_targets_[i] - committed_[i];
    ++limited_by_[i * (n + 1) + round_limiter_[i]];
    obs::metrics().add(kShardWindowsMetric, 1);
    obs::metrics().add(
        kWindowWidthMetric,
        static_cast<double>(round_targets_[i] - committed_[i]));
    committed_[i] = round_targets_[i];
  }
  ++rounds_;
  obs::metrics().add(kRoundsMetric, 1);
  now_ = *std::min_element(committed_.begin(), committed_.end());
  // Workers are parked between rounds, so the hook may mutate any shard
  // (merge staged cross-shard messages — against committed_times(), since
  // shards sit at different clocks — audit, sample).
  if (hook_) hook_(now_);
}

void ShardedSimulator::run_until(SimTime t) {
  FOCUS_CHECK_GE(t, now_) << "sharded time cannot run backwards";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    FOCUS_CHECK_EQ(shards_[i]->now(), committed_[i])
        << "shard " << i << " kernel was run outside the driver";
  }
  while (now_ < t) {
    SimTime target = t;
    // Stop points split a round only where that cannot change the schedule:
    // with no finite edge every shard runs straight to its target anyway.
    if (uncoupled_ && stop_source_) {
      const SimTime stop = stop_source_();
      if (stop > now_ && stop < t) target = stop;
    }
    run_round(target);
  }
}

std::uint64_t ShardedSimulator::executed() const noexcept {
  std::uint64_t total = 0;
  for (const Simulator* shard : shards_) total += shard->executed();
  return total;
}

std::uint64_t ShardedSimulator::digest() const noexcept {
  if (shards_.size() == 1) return shards_.front()->digest();
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const Simulator* shard : shards_) {
    std::uint64_t d = shard->digest();
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (d >> (byte * 8)) & 0xffu;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  }
  return h;
}

}  // namespace focus::sim
