#include "focus/query_router.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace focus::core {

namespace {
// Interned once at static init; recording sites touch only dense handles.
const obs::Name kSpanRouterQuery = obs::Name::intern("router.query");
const obs::Name kLabelCache = obs::Name::intern("cache");
const obs::Name kLabelDelegated = obs::Name::intern("delegated");
const obs::Name kLabelEmpty = obs::Name::intern("empty");
const obs::Name kLabelTimeout = obs::Name::intern("timeout");
const obs::Name kArgEntries = obs::Name::intern("entries");
const obs::Name kArgGroups = obs::Name::intern("groups");
const obs::MetricId kQueryCount = obs::MetricId::counter("focus.query.count");
const obs::MetricId kQueryDelegated =
    obs::MetricId::counter("focus.query.delegated");
const obs::MetricId kQueryEmpty =
    obs::MetricId::counter("focus.query.empty_route");
const obs::MetricId kQueryTimeout =
    obs::MetricId::counter("focus.query.timeout");
const obs::MetricId kQueryLatency =
    obs::MetricId::histogram("focus.query.latency_us");
const obs::MetricId kQueryStaleness =
    obs::MetricId::histogram("focus.query.staleness_us");
const obs::MetricId kGroupsQueried =
    obs::MetricId::histogram("focus.query.groups_queried");
}  // namespace

QueryRouter::QueryRouter(sim::Simulator& simulator, net::Transport& transport,
                         net::Address north_addr, const ServiceConfig& config,
                         const ServerCostModel& cost, Dgm& dgm,
                         const Registrar& registrar, store::Cluster& store,
                         Rng rng, std::function<void(Duration)> charge)
    : simulator_(simulator),
      transport_(transport),
      north_addr_(north_addr),
      config_(config),
      cost_(cost),
      dgm_(dgm),
      registrar_(registrar),
      store_(store),
      rng_(std::move(rng)),
      charge_(std::move(charge)),
      cache_(config.cache_max_entries) {}

void QueryRouter::handle_query(const net::Message& msg) {
  const auto& qp = msg.as<QueryPayload>();
  ++stats_.queries;
  obs::metrics().add(kQueryCount, 1);
  charge_(cost_.query_route_cpu);

  Pending pending;
  pending.id = next_id_++;
  pending.client_id = qp.query_id;
  pending.query = qp.query;
  pending.query_hash = pending.query.cache_hash();
  pending.reply_to = qp.reply_to;
  pending.issued_at = simulator_.now();

  obs::Tracer& tr = obs::tracer();
  if (tr.enabled()) {
    pending.trace = msg.trace;
    if (!pending.trace) {
      // Untraced sender (e.g. a raw payload in a test): derive the same root
      // id a traced client would have used, so ids stay deterministic.
      pending.trace.trace_id = obs::make_trace_id(qp.reply_to.node, qp.query_id);
    }
    pending.span = tr.begin_span(pending.trace.trace_id, msg.trace.span_id,
                                 kSpanRouterQuery, north_addr_.node,
                                 simulator_.now());
    // Work we fan out (group/node pulls) parents under the router span.
    pending.trace.span_id = pending.span;
  }

  // Step 1: the cache (checked first, §VI). The probe is an integer-keyed
  // lookup on the precomputed hash — no strings touched.
  if (const auto* hit = cache_.lookup(pending.query_hash, pending.query,
                                      simulator_.now(),
                                      pending.query.freshness)) {
    charge_(cost_.cache_hit_cpu);
    ++stats_.cache_served;
    tr.set_label(pending.span, kLabelCache);
    QueryResult result = hit->result;
    result.source = ResponseSource::Cache;
    result.issued_at = pending.issued_at;
    result.completed_at = simulator_.now();
    respond(pending, std::move(result));
    return;
  }

  // Step 2: static-only queries go to the data store (§VIII-A-3).
  if (!pending.query.has_dynamic_terms()) {
    route_static(std::move(pending));
    return;
  }

  route_dynamic(std::move(pending));
}

FOCUS_HOT Dgm::Candidates QueryRouter::pick_smallest(
    const Query& query) const {
  if (config_.route_all_terms) {
    // Ablation: union of every term's candidate groups — the degenerate
    // routing §VI warns about. Dedup keys on the packed GroupId, which is
    // stable for the life of the DGM state; keying on GroupInfo pointers
    // would make the set's behaviour (and any future iteration of it)
    // depend on allocation order.
    Dgm::Candidates all;
    std::set<GroupId> seen;
    for (const auto& term : query.terms) {
      for (const auto* group : dgm_.candidate_groups(term, query.location).groups) {
        if (seen.insert(group->gid).second) {
          all.groups.push_back(group);
          all.total_members += group->members.size();
        }
      }
    }
    return all;
  }
  // Strict `<` means ties keep the earlier term: with equal candidate sizes
  // the FIRST term in query order wins. This is deliberate and relied on by
  // tests — routing must not depend on term-iteration accidents.
  Dgm::Candidates best;
  std::size_t best_total = std::numeric_limits<std::size_t>::max();
  for (const auto& term : query.terms) {
    auto candidates = dgm_.candidate_groups(term, query.location);
    if (candidates.total_members < best_total) {
      best_total = candidates.total_members;
      best = std::move(candidates);
    }
  }
  return best;
}

void QueryRouter::route_dynamic(Pending pending) {
  const auto candidates = pick_smallest(pending.query);
  const auto transitioning = dgm_.transition_nodes();

  // Delegation under load (§VI): tell the client which members to contact.
  if (config_.delegation_threshold > 0 &&
      static_cast<int>(pending_.size()) >= config_.delegation_threshold &&
      !candidates.groups.empty()) {
    std::vector<DelegateTarget> targets;
    targets.reserve(candidates.groups.size());
    for (const auto* group : candidates.groups) {
      const NodeId coordinator =
          group->members.nth_member(rng_.index(group->members.size())).node;
      const NodeEntry* entry = registrar_.find(coordinator);
      if (entry == nullptr) continue;
      targets.push_back(DelegateTarget{group->name, entry->command_addr,
                                       config_.collect_window(group->members.size()),
                                       group->members.size()});
    }
    if (!targets.empty()) {
      ++stats_.delegated;
      obs::metrics().add(kQueryDelegated, 1);
      obs::tracer().set_label(pending.span, kLabelDelegated);
      respond_delegated(pending, std::move(targets));
      return;
    }
  }

  // Directed pulls: one random member per candidate group (randomization
  // load-balances across members, §VII), plus direct pulls to nodes in
  // transition so no node is missed (§VII).
  int groups_sent = 0;
  for (const auto* group : candidates.groups) {
    // nth_member(index(n)) draws the same uniform integer the old
    // build-a-vector-then-pick code did, without materializing the ids.
    if (group->members.empty()) continue;
    const NodeId coordinator =
        group->members.nth_member(rng_.index(group->members.size())).node;
    const NodeEntry* entry = registrar_.find(coordinator);
    if (entry == nullptr) continue;
    auto payload = std::make_shared<GroupQueryPayload>();
    payload->query_id = pending.id;
    payload->group = group->name;
    payload->query = pending.query;
    payload->reply_to = north_addr_;
    payload->collect_window = config_.collect_window(group->members.size());
    transport_.send(net::Message{north_addr_, entry->command_addr, kGroupQuery,
                                 std::move(payload), pending.trace});
    ++groups_sent;
    ++stats_.group_queries_sent;
  }

  int nodes_sent = 0;
  for (const auto& [node, command_addr] : transitioning) {
    auto payload = std::make_shared<NodeQueryPayload>();
    payload->query_id = pending.id;
    payload->reply_to = north_addr_;
    transport_.send(net::Message{north_addr_, command_addr, kNodeQuery,
                                 std::move(payload), pending.trace});
    ++nodes_sent;
    ++stats_.node_pulls_sent;
  }

  pending.awaiting_groups = groups_sent;
  pending.awaiting_nodes = nodes_sent;
  pending.groups_queried = groups_sent;

  if (groups_sent == 0 && nodes_sent == 0) {
    // Nothing can match (no populated candidate groups, nobody in
    // transition): answer empty immediately.
    ++stats_.empty_routes;
    obs::metrics().add(kQueryEmpty, 1);
    obs::tracer().set_label(pending.span, kLabelEmpty);
    QueryResult result;
    result.source = ResponseSource::Groups;
    result.issued_at = pending.issued_at;
    result.completed_at = simulator_.now();
    respond(pending, std::move(result));
    return;
  }

  const std::uint64_t id = pending.id;
  pending.timeout_timer = simulator_.schedule_after(
      config_.query_timeout, [this, id] { finalize(id, /*timed_out=*/true); });
  pending_.emplace(id, std::move(pending));
}

void QueryRouter::route_static(Pending pending) {
  const std::string table = registrar_.smallest_static_table(pending.query);
  const std::uint64_t id = pending.id;
  pending.source = ResponseSource::Store;
  pending.awaiting_groups = 0;
  pending.awaiting_nodes = 0;
  pending_.emplace(id, std::move(pending));
  charge_(cost_.store_op_cpu);

  // The store round trip provides realistic latency/failure behaviour; the
  // row filtering itself uses the primary in-memory tables that mirror it.
  store_.scan(table.empty() ? "nodes" : table, [this, id](auto rows_result) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    Pending& p = it->second;
    if (rows_result.ok()) {
      for (const NodeEntry* entry : registrar_.match_static(p.query)) {
        ResultEntry e;
        e.node = entry->node;
        e.region = entry->region;
        e.timestamp = simulator_.now();
        p.entries.push_back(std::move(e));
      }
      ++stats_.store_served;
      finalize(id, /*timed_out=*/false);
    } else {
      std::string error = "store scan failed: ";
      error += rows_result.error().message;
      FOCUS_LOG(Warn, "router", error);
      finalize(id, /*timed_out=*/false, std::move(error));
    }
  });
}

void QueryRouter::handle_group_response(const net::Message& msg) {
  const auto& gr = msg.as<GroupResponsePayload>();
  auto it = pending_.find(gr.query_id);
  if (it == pending_.end()) return;  // late response after finalize
  Pending& pending = it->second;
  charge_(cost_.response_cpu_base +
          cost_.response_cpu_per_entry * static_cast<Duration>(gr.entries.size()));
  for (const auto& entry : gr.entries) {
    if (pending.seen.insert(entry.node).second) {
      pending.entries.push_back(entry);
    }
  }
  if (pending.awaiting_groups > 0) --pending.awaiting_groups;

  const bool limit_satisfied =
      pending.query.limit > 0 &&
      static_cast<int>(pending.entries.size()) >= pending.query.limit;
  if (limit_satisfied ||
      (pending.awaiting_groups == 0 && pending.awaiting_nodes == 0)) {
    finalize(gr.query_id, /*timed_out=*/false);
  }
}

void QueryRouter::handle_node_state(const net::Message& msg) {
  const auto& ns = msg.as<NodeStatePayload>();
  auto it = pending_.find(ns.query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  charge_(cost_.response_cpu_base);
  if (pending.query.matches(ns.state) &&
      pending.seen.insert(ns.state.node).second) {
    ResultEntry entry;
    entry.node = ns.state.node;
    entry.region = ns.state.region;
    entry.values = ns.state.dynamic_values;
    entry.timestamp = ns.state.timestamp;
    pending.entries.push_back(std::move(entry));
  }
  if (pending.awaiting_nodes > 0) --pending.awaiting_nodes;
  const bool limit_satisfied =
      pending.query.limit > 0 &&
      static_cast<int>(pending.entries.size()) >= pending.query.limit;
  if (limit_satisfied ||
      (pending.awaiting_groups == 0 && pending.awaiting_nodes == 0)) {
    finalize(ns.query_id, /*timed_out=*/false);
  }
}

void QueryRouter::finalize(std::uint64_t id, bool timed_out, std::string error) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  simulator_.cancel(pending.timeout_timer);
  if (timed_out) {
    ++stats_.timeouts;
    obs::metrics().add(kQueryTimeout, 1);
    obs::tracer().set_label(pending.span, kLabelTimeout);
  }

  QueryResult result;
  result.entries = std::move(pending.entries);
  if (pending.query.limit > 0 &&
      static_cast<int>(result.entries.size()) > pending.query.limit) {
    result.entries.resize(static_cast<std::size_t>(pending.query.limit));
  }
  result.source = pending.source;
  result.issued_at = pending.issued_at;
  result.completed_at = simulator_.now();
  result.groups_queried = pending.groups_queried;
  result.timed_out = timed_out;
  result.error = std::move(error);

  // Responses fetched from the groups are cached with their fetch time so
  // later queries can trade freshness for latency (§VI).
  if (result.source == ResponseSource::Groups) {
    cache_.insert(pending.query_hash, pending.query, result, simulator_.now());
  }
  respond(pending, std::move(result));
  pending_.erase(it);
}

void QueryRouter::respond(const Pending& pending, QueryResult result) {
  // Model the service-stack overhead (REST/JSON/JVM) on the response path.
  result.completed_at = simulator_.now() + cost_.api_latency;

  // Always-on metrics: per-query latency, result staleness (age of the
  // oldest entry served — the paper's freshness/bandwidth trade-off axis),
  // and the directed-pull fanout.
  obs::metrics().observe(
      kQueryLatency, static_cast<double>(result.completed_at - result.issued_at));
  if (!result.entries.empty()) {
    SimTime oldest = result.entries.front().timestamp;
    for (const auto& entry : result.entries) {
      oldest = std::min(oldest, entry.timestamp);
    }
    obs::metrics().observe(
        kQueryStaleness, static_cast<double>(result.completed_at - oldest));
  }
  obs::metrics().observe(kGroupsQueried,
                         static_cast<double>(result.groups_queried));

  obs::Tracer& tr = obs::tracer();
  if (pending.span != 0) {
    tr.set_arg(pending.span, kArgEntries,
               static_cast<double>(result.entries.size()));
    tr.set_arg(pending.span, kArgGroups,
               static_cast<double>(result.groups_queried));
    tr.end_span(pending.span, result.completed_at);
  }

  auto payload = std::make_shared<QueryResponsePayload>();
  payload->query_id = pending.client_id;
  payload->result = std::move(result);
  net::Message msg{north_addr_, pending.reply_to, kQueryResponse,
                   std::move(payload), pending.trace};
  simulator_.schedule_after(cost_.api_latency, [this, msg = std::move(msg)]() mutable {
    transport_.send(std::move(msg));
  });
}

void QueryRouter::respond_delegated(const Pending& pending,
                                    std::vector<DelegateTarget> targets) {
  obs::tracer().end_span(pending.span, simulator_.now());
  auto payload = std::make_shared<QueryResponsePayload>();
  payload->query_id = pending.client_id;
  payload->delegated = true;
  payload->targets = std::move(targets);
  payload->result.issued_at = pending.issued_at;
  payload->result.completed_at = simulator_.now();
  transport_.send(net::Message{north_addr_, pending.reply_to, kQueryResponse,
                               std::move(payload), pending.trace});
}

}  // namespace focus::core
