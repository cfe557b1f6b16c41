#include "net/endpoints.hpp"

#include <bit>

namespace focus::net {

Endpoint& EndpointTable::insert(NodeId node) {
  FOCUS_CHECK_LT(entries_.size(), std::size_t{kEmpty}) << "endpoint table full";
  // Keep the cells at most half full so probe runs stay short.
  if ((entries_.size() + 1) * 2 > cells_.size()) {
    const std::size_t size = cells_.empty() ? 16 : cells_.size() * 2;
    cells_.assign(size, Cell{});
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(size));
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      cells_[probe(entries_[i].node)] =
          Cell{entries_[i].node.value, static_cast<std::uint32_t>(i)};
    }
  }
  cells_[probe(node)] = Cell{node.value, static_cast<std::uint32_t>(entries_.size())};
  Endpoint& e = entries_.emplace_back();
  e.node = node;
  return e;
}

}  // namespace focus::net
