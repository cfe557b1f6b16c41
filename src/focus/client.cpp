#include "focus/client.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace focus::core {

namespace {
const obs::Name kSpanClientQuery = obs::Name::intern("client.query");
const obs::Name kLabelTimeout = obs::Name::intern("timeout");
const obs::Name kLabelDelegated = obs::Name::intern("delegated");
const obs::MetricId kClientLatency =
    obs::MetricId::histogram("client.query.latency_us");
const obs::MetricId kClientTimeouts =
    obs::MetricId::counter("client.query.timeout");
}  // namespace

Client::Client(sim::Simulator& simulator, net::Transport& transport,
               net::Address self, net::Address service_north, Duration timeout)
    : simulator_(simulator),
      transport_(transport),
      self_(self),
      service_(service_north),
      timeout_(timeout) {
  transport_.bind(self_, [this](const net::Message& m) { on_message(m); });
}

Client::~Client() { transport_.unbind(self_); }

void Client::query(Query query, Callback cb) {
  const std::uint64_t id = next_id_++;
  Pending pending;
  pending.query = query;
  pending.cb = std::move(cb);
  pending.issued_at = simulator_.now();
  obs::Tracer& tr = obs::tracer();
  if (tr.enabled()) {
    pending.trace.trace_id = obs::make_trace_id(self_.node, id);
    pending.span = tr.begin_span(pending.trace.trace_id, /*parent_id=*/0,
                                 kSpanClientQuery, self_.node, pending.issued_at);
    pending.trace.span_id = pending.span;
  }
  pending.timeout_timer = simulator_.schedule_after(timeout_, [this, id] {
    ++stats_.timeouts;
    obs::metrics().add(kClientTimeouts, 1);
    const auto it = pending_.find(id);
    if (it != pending_.end()) {
      obs::tracer().set_label(it->second.span, kLabelTimeout);
    }
    finish(id, make_error(Errc::Timeout, "no response from FOCUS"));
  });
  const obs::TraceContext trace = pending.trace;
  pending_.emplace(id, std::move(pending));
  ++stats_.queries_sent;

  auto payload = std::make_shared<QueryPayload>();
  payload->query_id = id;
  payload->query = std::move(query);
  payload->reply_to = self_;
  transport_.send(
      net::Message{self_, service_, kQuery, std::move(payload), trace});
}

void Client::on_message(const net::Message& msg) {
  if (msg.kind == kQueryResponse) {
    handle_response(msg);
  } else if (msg.kind == kGroupResponse) {
    handle_group_response(msg);
  } else if (msg.kind == kViewAck) {
    handle_view_ack(msg);
  } else if (msg.kind == kViewNotify) {
    handle_view_notify(msg);
  }
}

void Client::subscribe_view(Query query, ViewReadyCallback on_ready,
                            ViewUpdateCallback on_update) {
  const std::uint64_t tag = next_view_tag_++;
  pending_views_.emplace(tag, PendingView{std::move(on_ready), std::move(on_update)});
  auto payload = std::make_shared<ViewRegisterPayload>();
  payload->client_tag = tag;
  payload->query = std::move(query);
  payload->subscriber = self_;
  transport_.send(net::Message{self_, service_, kViewRegister, std::move(payload)});
}

void Client::unsubscribe_view(std::uint64_t view_id) {
  view_handlers_.erase(view_id);
  auto payload = std::make_shared<ViewUnregisterPayload>();
  payload->view_id = view_id;
  transport_.send(net::Message{self_, service_, kViewUnregister, std::move(payload)});
}

void Client::handle_view_ack(const net::Message& msg) {
  const auto& ack = msg.as<ViewAckPayload>();
  auto it = pending_views_.find(ack.client_tag);
  if (it == pending_views_.end()) return;
  PendingView pending = std::move(it->second);
  pending_views_.erase(it);
  if (!ack.error.empty()) {
    if (pending.on_ready) {
      pending.on_ready(ack.view_id, make_error(Errc::Unavailable, ack.error));
    }
    return;
  }
  view_handlers_.emplace(ack.view_id, std::move(pending.on_update));
  if (pending.on_ready) pending.on_ready(ack.view_id, ack.initial);
}

void Client::handle_view_notify(const net::Message& msg) {
  const auto& notify = msg.as<ViewNotifyPayload>();
  auto it = view_handlers_.find(notify.view_id);
  if (it == view_handlers_.end()) return;
  ++stats_.view_updates;
  ViewUpdate update;
  update.view_id = notify.view_id;
  update.entered = notify.entered;
  update.entry = notify.entry;
  if (it->second) it->second(update);
}

void Client::handle_response(const net::Message& msg) {
  const auto& resp = msg.as<QueryResponsePayload>();
  auto it = pending_.find(resp.query_id);
  if (it == pending_.end()) return;
  if (resp.delegated) {
    ++stats_.delegations_handled;
    obs::tracer().set_label(it->second.span, kLabelDelegated);
    start_delegated(it->second, resp.query_id, resp.targets);
    return;
  }
  ++stats_.responses;
  if (!resp.result.error.empty()) {
    finish(resp.query_id, make_error(Errc::Unavailable, resp.result.error));
    return;
  }
  QueryResult result = resp.result;
  result.issued_at = it->second.issued_at;  // measure client-observed latency
  result.completed_at = simulator_.now();
  finish(resp.query_id, std::move(result));
}

void Client::start_delegated(Pending& pending, std::uint64_t id,
                             const std::vector<DelegateTarget>& targets) {
  pending.delegated = true;
  pending.awaiting = static_cast<int>(targets.size());
  for (const auto& target : targets) {
    auto payload = std::make_shared<GroupQueryPayload>();
    payload->query_id = id;
    payload->group = target.group;
    payload->query = pending.query;
    payload->reply_to = self_;
    payload->collect_window = target.collect_window;
    transport_.send(net::Message{self_, target.member, kGroupQuery,
                                 std::move(payload), pending.trace});
  }
  if (pending.awaiting == 0) {
    QueryResult result;
    result.source = ResponseSource::Direct;
    result.issued_at = pending.issued_at;
    result.completed_at = simulator_.now();
    finish(id, std::move(result));
  }
}

void Client::handle_group_response(const net::Message& msg) {
  const auto& gr = msg.as<GroupResponsePayload>();
  auto it = pending_.find(gr.query_id);
  if (it == pending_.end() || !it->second.delegated) return;
  Pending& pending = it->second;
  for (const auto& entry : gr.entries) {
    if (pending.seen.insert(entry.node).second) pending.entries.push_back(entry);
  }
  if (--pending.awaiting > 0) {
    const bool limit_satisfied =
        pending.query.limit > 0 &&
        static_cast<int>(pending.entries.size()) >= pending.query.limit;
    if (!limit_satisfied) return;
  }
  QueryResult result;
  result.entries = std::move(pending.entries);
  if (pending.query.limit > 0 &&
      static_cast<int>(result.entries.size()) > pending.query.limit) {
    result.entries.resize(static_cast<std::size_t>(pending.query.limit));
  }
  result.source = ResponseSource::Direct;
  result.issued_at = pending.issued_at;
  result.completed_at = simulator_.now();
  ++stats_.responses;
  finish(gr.query_id, std::move(result));
}

void Client::finish(std::uint64_t id, Result<QueryResult> result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  simulator_.cancel(it->second.timeout_timer);
  if (result.ok()) {
    obs::metrics().observe(
        kClientLatency,
        static_cast<double>(simulator_.now() - it->second.issued_at));
  }
  obs::tracer().end_span(it->second.span, simulator_.now());
  Callback cb = std::move(it->second.cb);
  pending_.erase(it);
  cb(std::move(result));
}

}  // namespace focus::core
