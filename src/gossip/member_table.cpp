#include "gossip/member_table.hpp"

#include "common/check.hpp"
#include "gossip/growth.hpp"

namespace focus::gossip {

std::uint32_t MemberTable::insert(NodeId id, MemberState initial) {
  FOCUS_DCHECK(find_slot(id) == kNoSlot)
      << "duplicate member insert " << to_string(id);
  const auto pos = static_cast<std::uint32_t>(cold_.size());
  if (cold_.size() == cold_.capacity()) {
    const std::size_t cap = grown_capacity(cold_.capacity());
    state_.reserve(cap);
    incarnation_.reserve(cap);
    since_.reserve(cap);
    cold_.reserve(cap);
  }
  state_.push_back(initial);
  incarnation_.push_back(0);
  since_.push_back(0);
  Cold& cold = cold_.emplace_back();
  cold.id = id;
  index_.find_or_insert(id).slot = pos;
  gone_ += static_cast<std::size_t>(is_gone(initial));
  dirty_ = true;
  return pos;
}

// The alive-view rebuild is the protocol-period scan the SoA layout exists
// for: it reads the one-byte state column only (focus-lint's hot-path
// hygiene fixture covers this shape).
FOCUS_HOT const std::vector<std::uint32_t>& MemberTable::alive_slots() const {
  if (dirty_) {
    alive_cache_.clear();
    alive_cache_.reserve(state_.size());
    for (std::uint32_t i = 0; i < state_.size(); ++i) {
      if (is_alive(state_[i])) alive_cache_.push_back(i);
    }
    dirty_ = false;
  }
  return alive_cache_;
}

void MemberTable::erase_slot(std::uint32_t pos) {
  gone_ -= static_cast<std::size_t>(is_gone(state_[pos]));
  index_.erase(cold_[pos].id);
  const auto last = static_cast<std::uint32_t>(cold_.size() - 1);
  if (pos != last) {
    state_[pos] = state_[last];
    incarnation_[pos] = incarnation_[last];
    since_[pos] = since_[last];
    cold_[pos] = cold_[last];
    index_.find(cold_[pos].id)->slot = pos;
  }
  state_.pop_back();
  incarnation_.pop_back();
  since_.pop_back();
  cold_.pop_back();
  dirty_ = true;
}

}  // namespace focus::gossip
