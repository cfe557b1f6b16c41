#pragma once
// Seeded random number generation. Every scenario owns one Rng; components
// that need independent streams fork() child generators so that adding a
// component never perturbs the draws seen by another.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.hpp"

namespace focus {

/// Deterministic random source built on mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedf0c5u) : engine_(seed) {}

  /// Derive an independent child generator; used to give each node/agent its
  /// own stream.
  Rng fork() { return Rng(engine_()); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    FOCUS_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool chance(double p) { return uniform() < p; }

  /// Exponentially distributed duration with the given mean (for Poisson
  /// arrival processes).
  double exponential(double mean) {
    FOCUS_CHECK_GT(mean, 0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal draw.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Pick a uniformly random element index for a container of size n.
  std::size_t index(std::size_t n) {
    FOCUS_CHECK_GT(n, 0u) << "cannot draw an index from an empty container";
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Pick a uniformly random element from a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    FOCUS_CHECK(!v.empty());
    return v[index(v.size())];
  }

  /// Draw min(k, m) distinct indices from [0, m), passing each to `pick` in
  /// draw order. Makes the same draws and picks as a partial Fisher-Yates
  /// over an identity array of size m (step i swaps position i with a
  /// uniform j in [i, m) and picks what lands at i), but in O(k): only the
  /// positions a swap displaced are stored, in `moved`, an open-addressing
  /// table of (position + 1) << 32 | value cells (0 = empty) at most half
  /// full. The caller owns `moved` so repeated draws allocate nothing.
  template <typename Pick>
  void sample_indices(std::size_t m, std::size_t k, std::vector<std::uint64_t>& moved,
                      Pick&& pick) {
    FOCUS_DCHECK_LT(m, std::size_t{1} << 32);
    const std::size_t n = std::min(k, m);
    std::size_t cells = 4;
    while (cells < 2 * n) cells *= 2;
    moved.assign(cells, 0);
    const std::size_t mask = cells - 1;
    auto cell_of = [&moved, mask](std::size_t pos) -> std::uint64_t& {
      const std::uint64_t tag = static_cast<std::uint64_t>(pos + 1) << 32;
      std::size_t c = ((pos * 0x9E3779B97F4A7C15ull) >> 40) & mask;
      while (moved[c] != 0 && (moved[c] >> 32 << 32) != tag) c = (c + 1) & mask;
      return moved[c];
    };
    auto value_at = [](std::uint64_t cell, std::size_t pos) {
      return cell != 0 ? static_cast<std::uint32_t>(cell) : static_cast<std::uint32_t>(pos);
    };
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(m - i) - 1));
      // swap(a[i], a[j]) then pick a[i]: position i is never read again, so
      // only a[j] is written back.
      const std::uint32_t vi = value_at(cell_of(i), i);
      std::uint64_t& cj = cell_of(j);
      const std::uint32_t vj = value_at(cj, j);
      cj = (static_cast<std::uint64_t>(j + 1) << 32) | vi;
      pick(vj);
    }
  }

  /// Shuffle a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Sample up to k distinct elements from v (order randomized).
  template <typename T>
  std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> pool = v;
    shuffle(pool);
    if (pool.size() > k) pool.resize(k);
    return pool;
  }

  /// Raw 64-bit draw (used for hashing-style decisions).
  std::uint64_t next_u64() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace focus
