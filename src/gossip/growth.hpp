#pragma once
// Growth policy for per-membership gossip vectors.
//
// A group's member columns and piggyback buffer are sized by one join
// snapshot and then grow by a few members at a time, and a fleet holds tens
// of thousands of them: the library's doubling leaves up to half of every
// such vector as slack. These vectors grow by 1.25x instead (a constant, not
// an option), still amortized O(1) per append.

#include <cstddef>
#include <vector>

namespace focus::gossip {

/// Capacity after `cap`: 1.25x, at least 4 more.
constexpr std::size_t grown_capacity(std::size_t cap) noexcept {
  return cap + (cap / 4 > 4 ? cap / 4 : 4);
}

/// Make room for one more element of `v` at the 1.25x rate.
template <typename T>
void reserve_one_more(std::vector<T>& v) {
  if (v.size() == v.capacity()) v.reserve(grown_capacity(v.capacity()));
}

}  // namespace focus::gossip
