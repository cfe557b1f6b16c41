// One repetition of a benchmark workload against the public Testbed / Client
// API, printed as one JSON object on stdout. run.py repeats it, takes
// medians, and checks determinism across repetitions; this program only
// measures and validates a single run.
//
//   focus_perfbench --workload <name> --seed <n> [--workers <n>] [--trace]
//   focus_perfbench --store-micro --seed <n>
//
// The output splits every figure by kind:
//   "sim"   deterministic sim-time figures (identical for a given seed, on
//           any host, at any worker count, with tracing on or off);
//   "host"  wall-clock and memory figures of this process;
//   "trace" per-stage figures read from the spans (only with --trace).
// "violations" lists every correctness-gate failure; run.py fails the run
// when it is non-empty.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "harness/scenario.hpp"
#include "harness/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/kvstore.hpp"

namespace {

using namespace focus;
using Clock = std::chrono::steady_clock;

/// A workload: the fleet and the open-loop query load driven against it.
struct Workload {
  const char* name;
  std::size_t nodes;
  bool sharded;        ///< SUB=2/EDGE=2 per-edge sharded driver, else legacy
  double qps;          ///< open-loop arrival rate on the client's kernel
  Duration window;     ///< the timed simulated window
  std::size_t hot_set; ///< 0 = a fresh random query per arrival
  Duration freshness;  ///< Query::freshness of every issued query
};

// Why each workload exists is recorded in README.md next to this file.
constexpr Workload kWorkloads[] = {
    {"query-400", 400, false, 50, 30 * kSecond, 0, 0},
    {"cached-reads-400", 400, false, 1000, 20 * kSecond, 64, 2 * kSecond},
    {"churn-10k", 10000, true, 1, 5 * kSecond, 0, 0},
};

constexpr double kVolatility = 0.02;
constexpr Duration kConvergePoll = 1 * kMillisecond;
constexpr Duration kConvergeMax = 60 * kSecond;
constexpr Duration kDrainStep = 100 * kMillisecond;
constexpr Duration kDrainMax = 30 * kSecond;
constexpr int kQueryLimit = 5;
constexpr std::size_t kMaxViolations = 20;

const char* const kKinds[] = {
    "swim.event",         "swim.member_list",   "swim.ping",
    "focus.member_state", "focus.node_query",   "focus.group_query",
    "focus.group_response", "focus.group_report",
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

long current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return pages_resident * sysconf(_SC_PAGESIZE);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Samples strictly above the nearest-rank percentile p.
std::size_t beyond(const std::vector<double>& sorted, double p) {
  const double v = percentile(sorted, p);
  return static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Group memberships of a fully joined fleet: one per agent and dynamic
/// attribute.
std::size_t expected_memberships(harness::Testbed& bed) {
  return bed.num_agents() * bed.service().config().schema.dynamic_attrs().size();
}

/// Every scalar in a telemetry snapshot, by name.
std::map<std::string, double> scalars(const obs::MetricSet& set) {
  std::map<std::string, double> out;
  set.for_each(
      [&](obs::MetricId id, double v) { out[std::string(id.name())] = v; },
      [](obs::MetricId, const FixedHistogram&) {});
  return out;
}

/// The settle() condition, polled by the benchmark at its own fixed step so
/// the set-up does not depend on the program's settle cadence.
bool converged(harness::Testbed& bed) {
  for (const auto& agent : bed.agents()) {
    if (!agent.registered()) return false;
  }
  std::size_t known = 0;
  bed.service().dgm().for_each_group(
      [&](const core::Dgm::GroupInfo& g) { known += g.members.size(); });
  return known >= expected_memberships(bed) * 9 / 10;
}

/// When the fleet converged, to the microsecond, read back from the service
/// once converged() holds: the later of the last registration and the join
/// confirmation that brought the DGM to 90% of the expected memberships.
SimTime convergence_time(harness::Testbed& bed) {
  SimTime last_registration = 0;
  for (const auto& [node, entry] : bed.service().registrar().directory()) {
    last_registration = std::max(last_registration, entry.registered_at);
  }
  std::vector<SimTime> joins;
  bed.service().dgm().for_each_group([&](const core::Dgm::GroupInfo& g) {
    g.members.for_each_member(
        [&](const core::MemberTable::Slot& slot) { joins.push_back(slot.joined); });
  });
  if (joins.empty()) return bed.now();
  std::sort(joins.begin(), joins.end());
  const std::size_t needed = std::max<std::size_t>(1, expected_memberships(bed) * 9 / 10);
  return std::max(last_registration, joins[std::min(needed, joins.size()) - 1]);
}

/// Counters summed over the fleet and the service, read between runs.
struct Counters {
  std::uint64_t events = 0;
  net::EndpointStats server;
  std::uint64_t agent_bytes = 0;
  agent::NodeManagerStats agents;
  core::RouterStats router;
  core::DgmStats dgm;
  std::map<std::string, double> obs;
  std::uint64_t rounds = 0;
  std::uint64_t windows = 0;
  std::vector<sim::ShardedSimulator::ShardProfile> profiles;
};

Counters read_counters(harness::Testbed& bed) {
  Counters c;
  c.events = bed.executed();
  c.server = bed.server_stats();
  for (auto& a : bed.agents()) {
    c.agent_bytes += bed.transport_for(a.node()).stats().of(a.node()).bytes_total();
    const agent::NodeManagerStats& s = a.stats();
    c.agents.group_moves += s.group_moves;
    c.agents.queries_coordinated += s.queries_coordinated;
    c.agents.member_responses += s.member_responses;
  }
  c.router = bed.service().router().stats();
  c.dgm = bed.service().dgm().stats();
  c.obs = scalars(bed.telemetry_snapshot());
  if (const sim::ShardedSimulator* d = bed.sharded(); d != nullptr) {
    c.rounds = d->rounds();
    for (std::size_t s = 0; s < d->num_shards(); ++s) c.windows += d->shard_windows(s);
    c.profiles = d->shard_profiles();
  }
  return c;
}

/// One issued query and what became of it.
struct Issued {
  std::size_t query = 0;  ///< index into the query table
  SimTime due = 0;        ///< scheduled send time (latency origin)
  SimTime done = -1;      ///< completion time; -1 = unanswered
  bool error = false;
  bool timed_out = false;
};

class Rep {
 public:
  Rep(const Workload& w, std::uint64_t seed, unsigned workers, bool traced)
      : w_(w), seed_(seed), workers_(workers), traced_(traced) {}

  Json run();

 private:
  void violation(std::string what) {
    ++violation_count_;
    if (violations_.size() < kMaxViolations) violations_.push_back(std::move(what));
  }
  void on_result(std::size_t index, harness::Testbed& bed,
                 const Result<core::QueryResult>& r);
  void add_stage_latencies(Json& trace) const;

  const Workload& w_;
  std::uint64_t seed_;
  unsigned workers_;
  bool traced_;
  std::vector<core::Query> queries_;
  std::vector<Issued> issued_;
  std::vector<double> staleness_ms_;
  std::vector<std::string> violations_;
  std::size_t violation_count_ = 0;
  std::uint64_t late_ticks_ = 0;
};

void Rep::on_result(std::size_t index, harness::Testbed& bed,
                    const Result<core::QueryResult>& r) {
  Issued& q = issued_[index];
  const SimTime now = bed.simulator_for(harness::kAppNode).now();
  if (q.done >= 0) {
    violation("query " + std::to_string(index) + " completed twice");
    return;
  }
  q.done = now;
  if (!r.ok()) {
    q.error = true;
    return;
  }
  const core::QueryResult& result = r.value();
  q.timed_out = result.timed_out;
  const core::Query& query = queries_[q.query];
  const std::string tag = "query " + std::to_string(index) + ": ";
  if (query.limit > 0 && result.entries.size() > static_cast<std::size_t>(query.limit)) {
    violation(tag + std::to_string(result.entries.size()) + " entries over limit " +
              std::to_string(query.limit));
  }
  std::set<NodeId> seen;
  for (const core::ResultEntry& e : result.entries) {
    if (!seen.insert(e.node).second) violation(tag + "duplicate " + to_string(e.node));
    for (const core::QueryTerm& term : query.terms) {
      const double* v = e.values.find(term.attr);
      if (v == nullptr || !term.matches(*v)) {
        violation(tag + to_string(e.node) + " fails term on " +
                  std::string(term.attr.name()));
      }
    }
    staleness_ms_.push_back(static_cast<double>(now - e.timestamp) / 1e3);
  }
}

void Rep::add_stage_latencies(Json& trace) const {
  static const obs::Name kRouter = obs::Name::intern("router.query");
  static const obs::Name kCollect = obs::Name::intern("group.collect");
  static const obs::Name kEval = obs::Name::intern("member.eval");
  const std::vector<obs::SpanRecord>& spans = obs::tracer().spans();
  std::vector<double> router, collect, eval;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == kRouter && s.end >= s.start) {
      router.push_back(static_cast<double>(s.end - s.start) / 1e3);
    } else if (s.name == kCollect && s.end >= s.start) {
      collect.push_back(static_cast<double>(s.end - s.start) / 1e3);
    } else if (s.name == kEval && s.parent_id > 0 && s.parent_id <= spans.size()) {
      // A member evaluation is an instant under its group.collect span:
      // its stage latency is the dissemination delay from collection start.
      eval.push_back(static_cast<double>(s.start - spans[s.parent_id - 1].start) / 1e3);
    }
  }
  const std::pair<const char*, std::vector<double>*> stages[] = {
      {"router", &router}, {"collect", &collect}, {"member_eval", &eval}};
  for (const auto& [name, samples] : stages) {
    std::sort(samples->begin(), samples->end());
    const std::string base = std::string("focus.stage.") + name;
    trace[base + "_p50_ms"] = percentile(*samples, 50);
    trace[base + "_p99_ms"] = percentile(*samples, 99);
    trace[base + "_samples"] = samples->size();
  }
}

Json Rep::run() {
  obs::tracer().set_enabled(traced_);
  harness::TestbedConfig config;
  config.num_nodes = w_.nodes;
  config.seed = seed_;
  config.agent.dynamics.volatility = kVolatility;
  if (w_.sharded) {
    config.shards = workers_;
    config.data_sub_shards = 2;
    config.edge_sub_shards = 2;
    config.per_edge_windows = true;
    config.wall_profiling = traced_;
  }

  // --- set-up: build + start() + settle() --------------------------------
  const auto setup_start = Clock::now();
  const long rss_before = current_rss_bytes();
  harness::Testbed bed(config);
  const double build_s = seconds_since(setup_start);
  const double bytes_per_node = static_cast<double>(current_rss_bytes() - rss_before) /
                                static_cast<double>(w_.nodes);
  bed.start();
  const SimTime started = bed.now();
  while (!converged(bed) && bed.now() - started < kConvergeMax) {
    bed.run_for(kConvergePoll);
  }
  if (!converged(bed)) violation("fleet did not converge within 60 sim s");
  const double converge_sim_s = to_seconds(convergence_time(bed) - started);
  if (!bed.settle()) violation("settle() returned false");
  const double setup_s = seconds_since(setup_start);

  // --- the open-loop query generator on the client's own kernel ----------
  sim::Simulator& client_sim = bed.simulator_for(harness::kAppNode);
  Rng qrng(seed_ ^ 0x51e57);
  const auto interval = static_cast<Duration>(1e6 / w_.qps);
  const auto next_query = [&] {
    return harness::make_placement_query(qrng, kQueryLimit).fresh_within(w_.freshness);
  };
  for (std::size_t i = 0; i < w_.hot_set; ++i) queries_.push_back(next_query());
  issued_.reserve(static_cast<std::size_t>(w_.window / interval) + 1);
  const SimTime armed = client_sim.now();
  const sim::TimerId timer = client_sim.every(interval, [&] {
    const std::size_t index = issued_.size();
    const SimTime due = armed + static_cast<SimTime>(index + 1) * interval;
    if (client_sim.now() != due) ++late_ticks_;
    std::size_t qi = 0;
    if (w_.hot_set > 0) {
      qi = qrng.index(w_.hot_set);
    } else {
      qi = queries_.size();
      queries_.push_back(next_query());
    }
    issued_.push_back(Issued{qi, due});
    bed.client().query(queries_[qi], [this, index, &bed](Result<core::QueryResult> r) {
      on_result(index, bed, r);
    });
  });

  // --- the timed window ---------------------------------------------------
  const Counters pre = read_counters(bed);
  const auto run_start = Clock::now();
  bed.run_for(w_.window);
  const double run_s = seconds_since(run_start);
  client_sim.cancel(timer);
  const Counters post = read_counters(bed);

  // --- drain (untimed): every issued query must complete -----------------
  const auto answered = [&] {
    return static_cast<std::size_t>(std::count_if(
        issued_.begin(), issued_.end(), [](const Issued& q) { return q.done >= 0; }));
  };
  for (Duration d = 0; answered() < issued_.size() && d < kDrainMax; d += kDrainStep) {
    bed.run_for(kDrainStep);
  }

  // --- end-to-end figures -------------------------------------------------
  std::vector<double> latency_ms;
  std::uint64_t errors = 0, timed_out = 0, unanswered = 0;
  for (const Issued& q : issued_) {
    if (q.done < 0) {
      ++unanswered;
      continue;
    }
    errors += q.error ? 1 : 0;
    timed_out += q.timed_out ? 1 : 0;
    if (!q.error) latency_ms.push_back(static_cast<double>(q.done - q.due) / 1e3);
  }
  if (unanswered > 0) {
    violation(std::to_string(unanswered) + " queries unanswered after drain");
  }
  if (late_ticks_ > 0) {
    violation(std::to_string(late_ticks_) + " generator ticks fired late");
  }
  if (issued_.empty()) violation("no queries issued");
  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(staleness_ms_.begin(), staleness_ms_.end());

  const double window_s = to_seconds(w_.window);
  const auto delta = [&](const std::string& name) {
    const auto a = post.obs.find(name);
    const auto b = pre.obs.find(name);
    return (a == post.obs.end() ? 0.0 : a->second) -
           (b == pre.obs.end() ? 0.0 : b->second);
  };
  const auto events = static_cast<double>(post.events - pre.events);

  Json sim = Json::object();
  sim["converge_sim_s"] = converge_sim_s;
  sim["query_mean_ms"] = mean(latency_ms);
  sim["queries_issued"] = issued_.size();
  sim["queries_failed"] = errors + timed_out + unanswered;
  sim["client.query.p50_ms"] = percentile(latency_ms, 50);
  // The tail is the highest percentile with at least ten samples beyond it;
  // 0 (reported as 0 ms) when there are too few samples for any.
  double tail_pct = 0;
  for (const double p : {99.0, 90.0, 50.0}) {
    if (beyond(latency_ms, p) >= 10) {
      tail_pct = p;
      break;
    }
  }
  sim["client.query.tail_ms"] = tail_pct > 0 ? percentile(latency_ms, tail_pct) : 0.0;
  sim["client.query.tail_pct"] = tail_pct;
  sim["client.query.samples"] = latency_ms.size();
  sim["client.query.fail_ratio"] =
      ratio(static_cast<double>(errors + timed_out + unanswered),
            static_cast<double>(issued_.size()));
  sim["staleness_p99_ms"] = percentile(staleness_ms_, 99);
  sim["staleness_samples"] = staleness_ms_.size();
  sim["server_kbps"] =
      static_cast<double>((post.server - pre.server).bytes_total()) / 1024.0 / window_s;
  sim["agent_kbps"] = static_cast<double>(post.agent_bytes - pre.agent_bytes) / 1024.0 /
                      static_cast<double>(bed.num_agents()) / window_s;

  // --- per-layer sim counters, over the timed window ---------------------
  const auto since = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const auto ends_with = [](const std::string& name, std::string_view suffix) {
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  sim["sim.events"] = events;
  double msgs = 0, bytes = 0;
  for (const auto& [name, v] : post.obs) {
    if (name.rfind("net.", 0) != 0) continue;
    if (ends_with(name, ".msgs")) msgs += delta(name);
    if (ends_with(name, ".bytes")) bytes += delta(name);
  }
  sim["net.msgs"] = msgs;
  sim["net.bytes"] = bytes;
  for (const char* kind : kKinds) {
    const std::string base = std::string("net.") + kind;
    sim[base + ".msgs"] = delta(base + ".msgs");
    sim[base + ".bytes"] = delta(base + ".bytes");
  }
  sim["net.swim.event.payload_builds_per_msg"] =
      ratio(delta("net.swim.event.payload_builds"), delta("net.swim.event.msgs"));
  {
    obs::MetricSet snap = bed.telemetry_snapshot();
    obs::MetricId rtt;
    sim["gossip.probe_rtt_p99_ms"] =
        obs::find_metric("gossip.probe_rtt_us", &rtt) && !snap.histogram(rtt).empty()
            ? snap.histogram(rtt).quantile(0.99) / 1e3
            : 0.0;
  }
  sim["gossip.suspect_to_dead"] = delta("gossip.suspect_to_dead");
  const agent::NodeManagerStats& a0 = pre.agents;
  const agent::NodeManagerStats& a1 = post.agents;
  const double coordinated = since(a1.queries_coordinated, a0.queries_coordinated);
  sim["agent.group_moves"] = since(a1.group_moves, a0.group_moves);
  sim["agent.queries_coordinated"] = coordinated;
  sim["agent.member_responses_per_query"] =
      ratio(since(a1.member_responses, a0.member_responses), coordinated);
  const core::RouterStats& r0 = pre.router;
  const core::RouterStats& r1 = post.router;
  const double routed = since(r1.queries, r0.queries);
  sim["focus.cache.hit_ratio"] = ratio(since(r1.cache_served, r0.cache_served), routed);
  sim["focus.cache.expired"] = delta("focus.cache.expired");
  sim["focus.router.group_queries_per_query"] =
      ratio(since(r1.group_queries_sent, r0.group_queries_sent), routed);
  sim["focus.router.node_pulls_per_query"] =
      ratio(since(r1.node_pulls_sent, r0.node_pulls_sent), routed);
  sim["focus.router.empty_routes"] = since(r1.empty_routes, r0.empty_routes);
  sim["focus.router.timeouts"] = since(r1.timeouts, r0.timeouts);
  sim["focus.router.delegated"] = since(r1.delegated, r0.delegated);
  sim["focus.dgm.reports_processed"] =
      since(post.dgm.reports_processed, pre.dgm.reports_processed);
  sim["focus.dgm.transitions"] = delta("focus.dgm.transitions");
  sim["focus.dgm.forks_created"] = since(post.dgm.forks_created, pre.dgm.forks_created);
  const double windows = since(post.windows, pre.windows);
  sim["sharded.rounds"] = since(post.rounds, pre.rounds);
  sim["sharded.windows"] = windows;
  sim["sharded.events_per_window"] = ratio(events, windows);

  Json host = Json::object();
  host["setup_s"] = setup_s;
  host["run_s"] = run_s;
  host["peak_rss_mb"] = static_cast<double>(peak_rss_kb()) / 1024.0;
  host["sim.ns_per_event"] = ratio(run_s * 1e9, events);
  host["harness.build_s"] = build_s;
  host["harness.start_settle_s"] = setup_s - build_s;
  host["harness.bytes_per_node"] = bytes_per_node;

  Json trace = Json::object();
  if (traced_) {
    add_stage_latencies(trace);
    if (!post.profiles.empty()) {
      double busy = 0, stall = 0, idle = 0, max_busy = 0;
      for (std::size_t s = 0; s < post.profiles.size(); ++s) {
        const auto& a = post.profiles[s];
        const auto& b = pre.profiles[s];
        const auto shard_busy = static_cast<double>(a.busy_ns - b.busy_ns) / 1e9;
        busy += shard_busy;
        stall += static_cast<double>(a.stall_ns - b.stall_ns) / 1e9;
        idle += static_cast<double>(a.idle_ns - b.idle_ns) / 1e9;
        max_busy = std::max(max_busy, shard_busy);
      }
      trace["sharded.busy_s"] = busy;
      trace["sharded.stall_s"] = stall;
      trace["sharded.idle_s"] = idle;
      trace["sharded.stall_frac"] = ratio(stall, busy + stall);
      trace["sharded.busy_imbalance"] =
          ratio(max_busy, busy / static_cast<double>(post.profiles.size()));
    }
  }

  Json violations = Json::array();
  for (const std::string& v : violations_) violations.push_back(v);
  if (violation_count_ > violations_.size()) {
    violations.push_back(std::to_string(violation_count_ - violations_.size()) + " more");
  }

  Json out = Json::object();
  out["workload"] = w_.name;
  out["seed"] = static_cast<double>(seed_);
  out["workers"] =
      static_cast<double>(bed.sharded() != nullptr ? bed.sharded()->threads() : 0);
  out["traced"] = traced_;
  out["digest"] = std::to_string(bed.digest());
  out["events_total"] = static_cast<double>(bed.executed());
  out["violations"] = std::move(violations);
  out["sim"] = std::move(sim);
  out["host"] = std::move(host);
  out["trace"] = std::move(trace);
  return out;
}

/// Quorum put/get/scan on a standalone store::Cluster at the testbed's
/// ClusterConfig, on its own kernel: host ns per operation, the median of
/// several batches (each batch drains the kernel, so it includes every
/// replica round trip the operation schedules).
Json store_micro(std::uint64_t seed) {
  constexpr int kKeys = 2000;
  constexpr int kScans = 20;
  constexpr int kBatches = 5;
  sim::Simulator simulator;
  store::Cluster cluster(simulator, harness::TestbedConfig{}.store, seed);
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    const NodeId node{harness::kAgentBase + static_cast<std::uint32_t>(i)};
    keys.push_back(to_string(node));
  }

  int failures = 0;
  const auto batch_ns = [&](auto&& issue, int ops) {
    std::vector<double> per_op;
    for (int b = 0; b < kBatches; ++b) {
      const auto start = Clock::now();
      issue();
      simulator.run();
      per_op.push_back(seconds_since(start) * 1e9 / ops);
    }
    std::sort(per_op.begin(), per_op.end());
    return per_op[per_op.size() / 2];
  };
  const double put_ns = batch_ns(
      [&] {
        for (int i = 0; i < kKeys; ++i) {
          std::map<std::string, Json> columns;
          const Region region = harness::region_of_index(static_cast<std::size_t>(i));
          columns["region"] = to_string(region);
          columns["command_port"] = 1.0;
          cluster.put("nodes", keys[static_cast<std::size_t>(i)], std::move(columns),
                      [&](Result<bool> r) { failures += r.ok() && r.value() ? 0 : 1; });
        }
      },
      kKeys);
  const double get_ns = batch_ns(
      [&] {
        for (const std::string& key : keys) {
          cluster.get("nodes", key, [&](Result<store::Row> r) {
            failures += r.ok() && r.value().columns.count("region") == 1 ? 0 : 1;
          });
        }
      },
      kKeys);
  const double scan_ns = batch_ns(
      [&] {
        for (int i = 0; i < kScans; ++i) {
          cluster.scan("nodes", [&](auto r) {
            const bool ok = r.ok() && r.value().size() == static_cast<std::size_t>(kKeys);
            failures += ok ? 0 : 1;
          });
        }
      },
      kScans);
  Json out = Json::object();
  out["store.micro.put_ns"] = put_ns;
  out["store.micro.get_ns"] = get_ns;
  out["store.micro.scan_ns"] = scan_ns;
  out["failures"] = failures;
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: focus_perfbench --workload <name> --seed <n> [--workers <n>]"
               " [--trace]\n"
               "       focus_perfbench --store-micro --seed <n>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 7;
  unsigned workers = 1;
  bool traced = false;
  bool store = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--workers" && has_value) {
      workers = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--store-micro") {
      store = true;
    } else {
      return usage();
    }
  }
  if (store) {
    std::printf("%s\n", store_micro(seed).dump().c_str());
    return 0;
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      std::printf("%s\n", Rep(w, seed, workers, traced).run().dump().c_str());
      return 0;
    }
  }
  return usage();
}
