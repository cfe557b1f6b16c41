#include "net/topology.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace focus::net {

namespace {
constexpr auto idx(Region r) { return static_cast<std::size_t>(r); }
}  // namespace

Topology::Topology() {
  // One-way latencies in milliseconds, approximating public inter-region
  // EC2 measurements for the paper's four North American regions. AppEdge
  // (the FOCUS server / querying app) is modelled as close to Ohio.
  constexpr double ms[kRegions][kRegions] = {
      //            Ohio  Canada Oregon Calif  AppEdge
      /* Ohio   */ {0.5,  13.0,  25.0,  25.0,  3.0},
      /* Canada */ {13.0, 0.5,   30.0,  35.0,  14.0},
      /* Oregon */ {25.0, 30.0,  0.5,   10.0,  26.0},
      /* Calif  */ {25.0, 35.0,  10.0,  0.5,   26.0},
      /* AppEdge*/ {3.0,  14.0,  26.0,  26.0,  0.2},
  };
  for (std::size_t a = 0; a < kRegions; ++a) {
    for (std::size_t b = 0; b < kRegions; ++b) {
      latency_[a][b] = static_cast<Duration>(ms[a][b] * kMillisecond);
    }
  }
  sub_count_.fill(1);
  for (std::size_t r = 0; r < kRegions; ++r) {
    shard_base_[r] = static_cast<std::uint32_t>(r);
  }
  rebuild_lookahead_cache();
}

void Topology::place(NodeId node, Region region) {
  if (node.value >= placement_.size()) {
    placement_.resize(node.value + 1, Region::AppEdge);
  }
  placement_[node.value] = region;
}

void Topology::set_sub_shards(Region r, unsigned k) {
  sub_count_[idx(r)] = k < 1 ? 1u : k;
  std::uint32_t base = 0;
  for (std::size_t i = 0; i < kRegions; ++i) {
    shard_base_[i] = base;
    base += sub_count_[i];
  }
  num_shards_ = base;
  rebuild_lookahead_cache();
}

void Topology::set_single_shard() {
  sub_count_.fill(1);
  shard_base_.fill(0);
  num_shards_ = 1;
  rebuild_lookahead_cache();
}

Region Topology::region_of_shard(std::size_t s) const noexcept {
  // 5 regions: a reverse scan over shard_base_ beats keeping a parallel map.
  for (std::size_t r = kRegions; r-- > 1;) {
    if (s >= shard_base_[r]) return static_cast<Region>(r);
  }
  return static_cast<Region>(0);
}

Duration Topology::base_latency(Region a, Region b) const {
  return latency_[idx(a)][idx(b)];
}

Duration Topology::sample_latency(NodeId from, NodeId to, Rng& rng) const {
  const Duration base = base_latency(region_of(from), region_of(to));
  const double factor = rng.uniform(1.0 - jitter_, 1.0 + jitter_);
  return std::max<Duration>(1, static_cast<Duration>(static_cast<double>(base) * factor));
}

void Topology::rebuild_lookahead_cache() {
  // Truncate every floor the same way sample_latency does, so each cached
  // value is a true lower bound on the corresponding sampled delay.
  const auto shrunk = [this](Duration base) {
    return std::max<Duration>(
        1, static_cast<Duration>(static_cast<double>(base) * (1.0 - jitter_)));
  };

  Duration cross = 0;
  for (std::size_t a = 0; a < kRegions; ++a) {
    for (std::size_t b = 0; b < kRegions; ++b) {
      if (a == b) continue;
      const Duration s = shrunk(latency_[a][b]);
      cross = (cross == 0) ? s : std::min(cross, s);
    }
  }
  cached_cross_floor_ = cross;

  for (std::size_t r = 0; r < kRegions; ++r) {
    cached_intra_floor_[r] = shrunk(latency_[r][r]);
  }

  Duration sharded = cached_cross_floor_;
  for (std::size_t r = 0; r < kRegions; ++r) {
    if (sub_count_[r] > 1) sharded = std::min(sharded, cached_intra_floor_[r]);
  }
  cached_sharded_floor_ = sharded;

  // Per-edge matrix: per-pair cross-region floors, intra-region floors only
  // between sibling sub-shards of a split region, and an unconstrained
  // diagonal (same-shard sends never leave their kernel).
  lookahead_matrix_.assign(num_shards_ * num_shards_, kNoTrafficLookahead);
  for (std::size_t src = 0; src < num_shards_; ++src) {
    const Region rs = region_of_shard(src);
    for (std::size_t dst = 0; dst < num_shards_; ++dst) {
      if (src == dst) continue;
      const Region rd = region_of_shard(dst);
      lookahead_matrix_[src * num_shards_ + dst] =
          rs == rd ? cached_intra_floor_[idx(rs)]
                   : shrunk(latency_[idx(rs)][idx(rd)]);
    }
  }
}

void Topology::set_lookahead_override(std::size_t src_shard,
                                      std::size_t dst_shard,
                                      Duration lookahead) {
  FOCUS_CHECK_LT(src_shard, num_shards_);
  FOCUS_CHECK_LT(dst_shard, num_shards_);
  FOCUS_CHECK(src_shard != dst_shard)
      << "the diagonal is always unconstrained; overriding it is a bug";
  FOCUS_CHECK_GT(lookahead, 0);
  lookahead_matrix_[src_shard * num_shards_ + dst_shard] = lookahead;
}

void Topology::set_latency(Region a, Region b, Duration one_way) {
  latency_[idx(a)][idx(b)] = one_way;
  latency_[idx(b)][idx(a)] = one_way;
  rebuild_lookahead_cache();
}

void Topology::set_jitter(double fraction) {
  jitter_ = fraction;
  rebuild_lookahead_cache();
}

}  // namespace focus::net
