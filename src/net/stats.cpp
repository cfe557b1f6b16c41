#include "net/stats.hpp"

#include "common/check.hpp"

namespace focus::net {

void NetStats::record_send(MsgKind kind,
                           const std::shared_ptr<const Payload>& payload,
                           std::size_t wire_bytes) {
  const std::size_t i = kind.value();
  if (per_kind_.size() <= i) per_kind_.resize(i + 1);
  MsgKindStats& s = per_kind_[i];
  ++s.msgs;
  s.bytes += wire_bytes;
  if (payload != nullptr &&
      (payload != last_payload_ || kind.value() != last_kind_value_)) {
    ++s.payload_builds;
  }
  last_payload_ = payload;
  last_kind_value_ = kind.value();
  last_wire_bytes_ = wire_bytes;
}

FOCUS_HOT std::size_t NetStats::record_send(const Message& msg) {
  const bool same_payload = msg.payload != nullptr && msg.payload == last_payload_;
  const std::size_t bytes = same_payload ? last_wire_bytes_ : msg.wire_bytes();
  FOCUS_DCHECK_EQ(bytes, msg.wire_bytes())
      << "payload mutated within a fanout burst: " << msg.kind.name();
  record_send(msg.kind, msg.payload, bytes);
  return bytes;
}

void NetStats::end_burst() {
  last_payload_.reset();
  last_kind_value_ = 0;
}

MsgKindStats NetStats::of_kind(MsgKind kind) const {
  const std::size_t i = kind.value();
  return i < per_kind_.size() ? per_kind_[i] : MsgKindStats{};
}

EndpointStats NetStats::of(NodeId node) const {
  const Endpoint* e = endpoints_.find(node);
  return e == nullptr ? EndpointStats{} : e->traffic;
}

EndpointStats NetStats::total() const {
  EndpointStats sum;
  endpoints_.for_each([&sum](const Endpoint& e) { sum += e.traffic; });
  return sum;
}

void NetStats::reset() {
  endpoints_.for_each([](Endpoint& e) { e.traffic = EndpointStats{}; });
  per_kind_.clear();
  end_burst();
  delivered_ = 0;
  dropped_ = 0;
}

}  // namespace focus::net
