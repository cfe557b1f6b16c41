#include "focus/views.hpp"

#include "common/logging.hpp"

namespace focus::core {

ViewManager::ViewManager(sim::Simulator& simulator, net::Transport& transport,
                         net::Address south_addr, net::Address north_addr,
                         const Registrar& registrar, SeedFn seed)
    : simulator_(simulator),
      transport_(transport),
      south_addr_(south_addr),
      north_addr_(north_addr),
      registrar_(registrar),
      seed_(std::move(seed)) {}

void ViewManager::handle_register(const net::Message& msg) {
  const auto& reg = msg.as<ViewRegisterPayload>();
  const std::uint64_t id = next_id_++;
  View view;
  view.id = id;
  view.query = reg.query;
  // Views materialize full match sets; a limit would make membership
  // order-dependent, so it is ignored.
  view.query.limit = 0;
  view.subscriber = reg.subscriber;
  views_.emplace(id, std::move(view));
  ++stats_.registered;

  // Install the predicate on every currently registered node.
  const std::vector<ViewSpec> spec{{id, views_.at(id).query}};
  for (const auto& [node, entry] : registrar_.directory()) {
    push_install(entry.command_addr, spec, {});
  }

  // Seed through the ordinary query path, then ack the subscriber with the
  // initial membership. Events arriving before the seed are merged on top.
  // A failed seed (store outage on a static query) withdraws the view: a
  // view acked with only the events that raced the seed would read as a
  // complete match set.
  const std::uint64_t client_tag = reg.client_tag;
  const net::Address subscriber = reg.subscriber;
  seed_(views_.at(id).query, [this, id, client_tag, subscriber](QueryResult result) {
    auto it = views_.find(id);
    if (it == views_.end()) return;  // unregistered while seeding
    auto ack = std::make_shared<ViewAckPayload>();
    ack->client_tag = client_tag;
    ack->view_id = id;
    if (!result.error.empty()) {
      withdraw(id);
      ack->error = std::move(result.error);
    } else {
      for (const auto& entry : result.entries) {
        it->second.members.emplace(entry.node, entry);
      }
      for (const auto& [node, entry] : it->second.members) {
        ack->initial.push_back(entry);
      }
    }
    transport_.send(net::Message{north_addr_, subscriber, kViewAck, std::move(ack)});
  });
}

void ViewManager::handle_unregister(const net::Message& msg) {
  const auto& unreg = msg.as<ViewUnregisterPayload>();
  if (withdraw(unreg.view_id)) ++stats_.unregistered;
}

bool ViewManager::withdraw(std::uint64_t view_id) {
  if (views_.erase(view_id) == 0) return false;
  for (const auto& [node, entry] : registrar_.directory()) {
    push_install(entry.command_addr, {}, {view_id});
  }
  return true;
}

void ViewManager::handle_event(const net::Message& msg) {
  const auto& event = msg.as<ViewEventPayload>();
  auto it = views_.find(event.view_id);
  if (it == views_.end()) return;  // event for a withdrawn view
  View& view = it->second;
  ++stats_.events;

  ResultEntry entry;
  entry.node = event.state.node;
  entry.region = event.state.region;
  entry.values = event.state.dynamic_values;
  entry.timestamp = event.state.timestamp;

  if (event.entered) {
    const bool inserted = view.members.insert_or_assign(entry.node, entry).second;
    if (inserted) notify(view, true, entry);
  } else {
    if (view.members.erase(entry.node) > 0) notify(view, false, entry);
  }
}

void ViewManager::notify(const View& view, bool entered, const ResultEntry& entry) {
  auto payload = std::make_shared<ViewNotifyPayload>();
  payload->view_id = view.id;
  payload->entered = entered;
  payload->entry = entry;
  transport_.send(
      net::Message{north_addr_, view.subscriber, kViewNotify, std::move(payload)});
  ++stats_.notifications;
}

void ViewManager::push_install(const net::Address& command_addr,
                               const std::vector<ViewSpec>& install,
                               const std::vector<std::uint64_t>& withdraw) {
  auto payload = std::make_shared<ViewInstallPayload>();
  payload->install = install;
  payload->withdraw = withdraw;
  transport_.send(
      net::Message{south_addr_, command_addr, kViewInstall, std::move(payload)});
}

std::vector<ViewSpec> ViewManager::active_specs() const {
  std::vector<ViewSpec> out;
  out.reserve(views_.size());
  for (const auto& [id, view] : views_) out.push_back(ViewSpec{id, view.query});
  return out;
}

std::vector<ResultEntry> ViewManager::members_of(std::uint64_t view_id) const {
  std::vector<ResultEntry> out;
  auto it = views_.find(view_id);
  if (it == views_.end()) return out;
  out.reserve(it->second.members.size());
  for (const auto& [node, entry] : it->second.members) out.push_back(entry);
  return out;
}

}  // namespace focus::core
