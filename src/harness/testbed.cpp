#include "harness/testbed.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace focus::harness {

Region region_of_index(std::size_t i) {
  switch (i % 4) {
    case 0: return Region::Ohio;
    case 1: return Region::Canada;
    case 2: return Region::Oregon;
    default: return Region::California;
  }
}

void TestbedConfig::sync_agent_config() {
  agent.gossip = service.gossip;
  agent.report_interval = service.report_interval;
  agent.delta_reports = service.delta_reports;
  agent.full_report_interval = service.full_report_interval;
}

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)) {
  // Fresh observability state per world (tests and benches build many
  // testbeds per process). FOCUS_TRACE=path turns span recording on before
  // the reset; reset() clears buffers but keeps the enabled flag.
  if (const char* path = std::getenv("FOCUS_TRACE");
      path != nullptr && *path != '\0') {
    trace_path_ = path;
    obs::tracer().set_enabled(true);
  }
  obs::tracer().reset();
  obs::reset_all_metrics();

  // Continuous telemetry env hooks (all observation-only): FOCUS_RECORD=<ms>
  // turns on time-series sampling, FOCUS_SLO=<path> arms the assertion spec,
  // FOCUS_TIMESERIES=<path> dumps the series at destruction.
  if (const char* ms = std::getenv("FOCUS_RECORD");
      ms != nullptr && *ms != '\0') {
    config_.record_interval = std::atoll(ms) * kMillisecond;
  }
  if (const char* path = std::getenv("FOCUS_SLO");
      path != nullptr && *path != '\0') {
    config_.slo_path = path;
  }
  if (const char* path = std::getenv("FOCUS_TIMESERIES");
      path != nullptr && *path != '\0') {
    timeseries_path_ = path;
  }
  if (config_.record_interval > 0) {
    recorder_ = std::make_unique<obs::Recorder>(config_.record_interval);
  }

  config_.sync_agent_config();
  Rng rng(config_.seed);

  // Placement before any shard lookup; place() never draws randomness, so
  // hoisting it above the transport forks is digest-neutral.
  topology_.place(kServerNode, Region::AppEdge);
  topology_.place(kAppNode, Region::AppEdge);
  topology_.place(kBrokerNode, Region::AppEdge);

  // The shard layout is workload config: fix it before any shard index is
  // computed so Topology::shard_of is stable for the world's lifetime.
  if (config_.shards == 0) {
    topology_.set_single_shard();
  } else {
    for (std::size_t r = 0; r < kNumDataRegions; ++r) {
      topology_.set_sub_shards(static_cast<Region>(r), config_.data_sub_shards);
    }
    topology_.set_sub_shards(Region::AppEdge, config_.edge_sub_shards);
  }
  const std::size_t num_shards = topology_.num_shards();
  const std::size_t service_shard = topology_.shard_of(kServerNode);
  // Nothing can cross shards in a one-shard world: its transport stays out
  // of sharded mode, so sends pay no shard_of lookup and nothing is staged.
  if (num_shards > 1) stager_ = std::make_unique<net::ShardStager>(num_shards);
  // Kernels and transports in shard order; the service shard reuses
  // simulator_ / transport_. Transports fork the seed rng in shard order —
  // with no sub-shard splits that is the four data regions first and the
  // app edge (= service shard) last; the one-kernel layout forks exactly
  // once. Both are the fork layouts the pinned digests were taken with.
  for (std::size_t s = 0; s < num_shards; ++s) {
    sim::Simulator* sim = nullptr;
    if (s == service_shard) {
      sim = &simulator_;
    } else {
      owned_sims_.push_back(std::make_unique<sim::Simulator>());
      sim = owned_sims_.back().get();
    }
    shard_sims_.push_back(sim);
    auto transport =
        std::make_unique<net::SimTransport>(*sim, topology_, rng.fork());
    transport->set_loss_rate(config_.loss_rate);
    if (stager_) transport->enable_sharding(s, stager_.get());
    shard_transports_.push_back(transport.get());
    if (s == service_shard) {
      transport_ = std::move(transport);
    } else {
      owned_transports_.push_back(std::move(transport));
    }
  }

  // The cluster's seed is one fork at this position; every fork below (and
  // so every pinned digest) depends on it staying here.
  store_ = std::make_unique<store::Cluster>(simulator_, config_.store,
                                            rng.fork().next_u64());
  service_ = std::make_unique<core::Service>(simulator_, *transport_,
                                             *store_, kServerNode,
                                             config_.service,
                                             core::ServerCostModel{},
                                             rng.fork().next_u64());
  // The app client lives on kAppNode's own shard (an edge sub-shard when the
  // app edge is split); with no splits that is the service shard.
  client_ = std::make_unique<core::Client>(simulator_for(kAppNode),
                                           transport_for(kAppNode),
                                           net::Address{kAppNode, 10},
                                           service_->north_addr());

  // One immutable config and one resource walk plan for the whole fleet
  // (memory compaction: agents hold handles, not copies).
  agent_config_ = std::make_shared<const agent::AgentConfig>(config_.agent);
  step_plan_ = agent::ResourceModel::make_step_plan(config_.service.schema);

  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    const NodeId id{kAgentBase + static_cast<std::uint32_t>(i)};
    const Region region = region_of_index(i);
    topology_.place(id, region);
    agents_.emplace_back(simulator_for(id), transport_for(id), id, region,
                         service_->south_addr(), config_.service.schema,
                         agent_config_, rng.fork(), step_plan_);
  }

  // One scheduler for every layout; per_edge_windows only picks its matrix.
  // Per-edge horizons let each shard advance as far as its own incoming
  // edges allow; the uniform matrix at the layout's floor (the cross-region
  // floor, or a split region's intra-region floor when that is tighter)
  // with batch factor 1 steps every shard in lock-step global windows. A
  // one-shard layout has no finite edge under either matrix.
  if (config_.per_edge_windows) {
    driver_ = std::make_unique<sim::ShardedSimulator>(
        shard_sims_, topology_.lookahead_matrix(), config_.shards);
  } else {
    driver_ = std::make_unique<sim::ShardedSimulator>(
        shard_sims_,
        sim::uniform_lookahead(num_shards, topology_.sharded_lookahead_floor()),
        config_.shards, /*batch_factor=*/1.0);
  }
  driver_->set_barrier_hook([this](SimTime t) {
    // Shards may sit at different committed times: each destination's merge
    // barrier is its own horizon, not the fleet minimum.
    if (stager_) {
      stager_->merge_at_barrier(driver_->committed_times(), shard_transports_);
    }
    if (next_audit_ > 0 && t >= next_audit_) {
      ++audits_run_;
      const core::AuditReport report = audit();
      FOCUS_CHECK(report.ok())
          << "periodic structural audit #" << audits_run_ << " at t=" << t
          << "us\n"
          << report.to_string();
      next_audit_ = t + config_.audit_interval;
    }
    // Telemetry sampling rides the same barrier: workers are parked, so
    // aggregated_metrics() is quiescent. Rounds quantize the cadence on
    // coupled layouts — the recorder stores actual interval ends, so rates
    // stay exact.
    if (recorder_ && t >= recorder_->next_due()) sample_telemetry(t);
  });
  // Stop points: the next audit and recorder due times.
  driver_->set_stop_source([this] {
    SimTime stop = std::numeric_limits<SimTime>::max();
    if (next_audit_ > 0) stop = next_audit_;
    if (recorder_) stop = std::min(stop, recorder_->next_due());
    return stop;
  });
  if (config_.wall_profiling) driver_->set_wall_profiling(true);
  next_audit_ = config_.audit_interval;
}

Testbed::~Testbed() {
  // Stop agents before the transports/service go away. The workers are
  // parked (no run is in flight), so touching shard state from this thread
  // is ordered by the driver's last barrier.
  for (auto& agent : agents_) agent.stop();
  if (!trace_path_.empty()) write_trace(trace_path_);
  if (!timeseries_path_.empty()) write_timeseries(timeseries_path_);
  if (!config_.slo_path.empty()) {
    // Advisory at teardown: gates that must *fail* on violation call
    // check_slos() themselves (bench/scenario_throughput --slo exits
    // non-zero; tests assert on the report).
    const obs::slo::Report report = check_slos();
    if (!report.ok()) {
      FOCUS_LOG(Warn, "testbed", "SLO report:\n" << report.to_string());
    }
  }
}

void Testbed::write_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    FOCUS_LOG(Warn, "testbed", "cannot open trace output " << path);
    return;
  }
  out << obs::chrome_trace_json(obs::tracer(), recorder_.get());
}

std::map<std::string, net::MsgKindStats> Testbed::traffic_totals() const {
  // Sum the per-kind traffic tables over every shard's transport; std::map
  // keeps the kind order stable.
  std::map<std::string, net::MsgKindStats> totals;
  const auto fold = [&totals](const net::SimTransport& t) {
    t.stats().for_each_kind(
        [&totals](std::string_view kind, const net::MsgKindStats& s) {
          net::MsgKindStats& agg = totals[std::string(kind)];
          agg.msgs += s.msgs;
          agg.payload_builds += s.payload_builds;
          agg.bytes += s.bytes;
        });
  };
  for (const net::SimTransport* t : shard_transports_) fold(*t);
  return totals;
}

obs::MetricSet Testbed::telemetry_snapshot() const {
  obs::MetricSet snap = obs::aggregated_metrics();
  // Re-publish the per-kind traffic table as cumulative counters so the
  // recorder can delta them and SLOs can bound per-kind rates and the
  // payload-build fanout ratio. The registrations intern; the string work
  // here runs on the sampling cadence, never on a message hot path.
  for (const auto& [kind, s] : traffic_totals()) {
    const std::string prefix = "net." + kind;
    snap.add(obs::MetricId::counter(prefix + ".msgs"),
             static_cast<double>(s.msgs));
    snap.add(obs::MetricId::counter(prefix + ".bytes"),
             static_cast<double>(s.bytes));
    snap.add(obs::MetricId::counter(prefix + ".payload_builds"),
             static_cast<double>(s.payload_builds));
  }
  for (std::size_t i = 0; i < driver_->num_shards(); ++i) {
    const std::string prefix = "sharded.shard" + std::to_string(i);
    snap.add(obs::MetricId::counter(prefix + ".windows"),
             static_cast<double>(driver_->shard_windows(i)));
    snap.add(obs::MetricId::counter(prefix + ".window_width_us"),
             static_cast<double>(driver_->shard_window_width(i)));
    snap.add(obs::MetricId::counter(prefix + ".events"),
             static_cast<double>(driver_->shard(i).executed()));
    snap.set(obs::MetricId::gauge(prefix + ".committed_us"),
             static_cast<double>(driver_->committed_times()[i]));
    if (driver_->wall_profiling()) {
      const sim::ShardedSimulator::ShardProfile& p =
          driver_->shard_profiles()[i];
      snap.add(obs::MetricId::counter(prefix + ".busy_us"),
               static_cast<double>(p.busy_ns) / 1000.0);
      snap.add(obs::MetricId::counter(prefix + ".stall_us"),
               static_cast<double>(p.stall_ns) / 1000.0);
      snap.add(obs::MetricId::counter(prefix + ".idle_us"),
               static_cast<double>(p.idle_ns) / 1000.0);
    }
  }
  return snap;
}

void Testbed::sample_telemetry(SimTime t) {
  recorder_->sample(telemetry_snapshot(), t);
}

obs::slo::Report Testbed::check_slos() const {
  obs::slo::Report report;
  if (config_.slo_path.empty()) return report;
  Result<std::vector<obs::slo::Spec>> specs =
      obs::slo::load_specs(config_.slo_path);
  if (!specs.ok()) {
    report.errors.push_back(specs.error().message);
    return report;
  }
  return obs::slo::evaluate(specs.value(), telemetry_snapshot(),
                            recorder_.get(), now());
}

void Testbed::write_timeseries(const std::string& path) const {
  if (!recorder_) {
    FOCUS_LOG(Warn, "testbed",
              "timeseries requested but recording is off "
              "(set record_interval / FOCUS_RECORD)");
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    FOCUS_LOG(Warn, "testbed", "cannot open timeseries output " << path);
    return;
  }
  out << obs::timeseries_json(*recorder_).pretty() << '\n';
}

void Testbed::write_metrics(const std::string& path) const {
  Json doc = obs::metrics_json(obs::aggregated_metrics());
  const std::map<std::string, net::MsgKindStats> totals = traffic_totals();
  Json traffic = Json::object();
  for (const auto& [kind, s] : totals) {
    Json entry = Json::object();
    entry["msgs"] = s.msgs;
    entry["payload_builds"] = s.payload_builds;
    entry["bytes"] = s.bytes;
    traffic[kind] = std::move(entry);
  }
  doc["traffic_by_kind"] = std::move(traffic);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    FOCUS_LOG(Warn, "testbed", "cannot open metrics output " << path);
    return;
  }
  out << doc.pretty() << '\n';
}

void Testbed::start() {
  for (auto& agent : agents_) agent.start();
}

bool Testbed::settle(Duration max) {
  const SimTime deadline = now() + max;
  while (now() < deadline) {
    run_for(500 * kMillisecond);
    bool all_registered = true;
    for (const auto& agent : agents_) {
      if (!agent.registered()) {
        all_registered = false;
        break;
      }
    }
    if (!all_registered) continue;
    // Wait until the DGM has heard at least one report per populated group
    // (i.e. groups know their members).
    std::size_t known_members = 0;
    service_->dgm().for_each_group([&](const core::Dgm::GroupInfo& group) {
      known_members += group.members.size();
    });
    const std::size_t expected =
        agents_.size() * service_->config().schema.dynamic_attrs().size();
    if (known_members >= expected * 9 / 10) return true;
  }
  return false;
}

Result<core::QueryResult> Testbed::query_and_wait(core::Query query,
                                                  Duration max_wait) {
  bool done = false;
  Result<core::QueryResult> out = make_error(Errc::Timeout, "no response");
  client_->query(std::move(query), [&](Result<core::QueryResult> r) {
    out = std::move(r);
    done = true;
  });
  const SimTime deadline = now() + max_wait;
  while (!done && now() < deadline) {
    run_for(10 * kMillisecond);
  }
  return out;
}

}  // namespace focus::harness
