#pragma once
// Query structures (§V-A "Query Structure"): attribute-oriented queries with
// per-attribute bounds, a result limit, and a freshness parameter.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "focus/attribute.hpp"

namespace focus::core {

/// One dynamic-attribute constraint: lower <= value <= upper (inclusive).
/// Exact matches set lower == upper, mirroring the paper's query structure.
struct QueryTerm {
  AttrId attr;
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();

  /// True when `value` satisfies the bounds.
  bool matches(double value) const { return value >= lower && value <= upper; }

  bool operator==(const QueryTerm&) const = default;
};

/// One static-attribute constraint: exact text match.
struct StaticTerm {
  AttrId attr;
  std::string value;

  bool operator==(const StaticTerm&) const = default;
};

/// A node-finding query. All terms are conjunctive (AND), which is the
/// paper's model; OR queries are issued as multiple queries by callers.
struct Query {
  std::vector<QueryTerm> terms;         ///< dynamic numeric constraints
  std::vector<StaticTerm> static_terms; ///< static exact-match constraints
  std::optional<Region> location;       ///< restrict to one region
  int limit = 0;                        ///< max results; 0 = unlimited
  Duration freshness = 0;               ///< acceptable staleness; 0 = realtime

  /// True when the node state satisfies every term. Nodes missing a
  /// constrained attribute do not match.
  bool matches(const NodeState& state) const;

  /// True when the query has dynamic-attribute terms (and therefore must be
  /// routed to p2p groups rather than the static store).
  bool has_dynamic_terms() const noexcept { return !terms.empty(); }

  /// Canonical 64-bit cache hash: identical queries (ignoring freshness) map
  /// to the same value regardless of term order, so a fresh cached result
  /// can satisfy a repeat query. Allocation-free — per-term mixes are folded
  /// with a commutative combine instead of sorting rendered strings. Hash
  /// equality is necessary but not sufficient; the cache verifies hits with
  /// same_cache_identity().
  std::uint64_t cache_hash() const;

  /// Exact identity comparison matching cache_hash: same term multiset, same
  /// static-term multiset, same location and limit (freshness excluded).
  bool same_cache_identity(const Query& other) const;

  /// Fluent builders for readable call sites. Strings intern implicitly.
  Query& where(AttrId attr, double lower, double upper);
  Query& where_at_least(AttrId attr, double lower);
  Query& where_at_most(AttrId attr, double upper);
  Query& where_exactly(AttrId attr, double value);
  Query& where_static(AttrId attr, std::string value);
  Query& in_region(Region r);
  Query& take(int n);
  Query& fresh_within(Duration d);

  bool operator==(const Query&) const = default;
};

/// Where a query answer came from (§X-D Fig. 8c distinguishes these).
enum class ResponseSource { Cache, Groups, Store, Direct };

/// Readable name of a response source.
const char* to_string(ResponseSource s);

/// One matching node in a query result.
struct ResultEntry {
  NodeId node;
  Region region = Region::AppEdge;
  AttrValueMap values;                   ///< the node's dynamic values
  SimTime timestamp = 0;                 ///< when those values were read
};

/// A complete query answer.
struct QueryResult {
  std::vector<ResultEntry> entries;
  ResponseSource source = ResponseSource::Groups;
  SimTime issued_at = 0;
  SimTime completed_at = 0;
  /// Groups the query was actually sent to (diagnostics / tests).
  int groups_queried = 0;
  /// True when the collection window expired before every member replied.
  bool timed_out = false;
  /// Non-empty when the service could not answer at all (a static query's
  /// store scan failed). Client turns it into Errc::Unavailable, so an
  /// outage never reads as "no node matches".
  std::string error;

  /// End-to-end latency of the query.
  Duration latency() const { return completed_at - issued_at; }

  /// True when `node` appears in the entries.
  bool contains(NodeId node) const;
};

}  // namespace focus::core
