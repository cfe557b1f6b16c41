#pragma once
// Structural-invariant auditor: walks live Registrar / DGM / router-cache /
// simulator state and verifies the paper's correctness claims hold — the
// properties the transition table (§VII) exists to protect. Callable from
// tests at any point, and periodically from the harness testbed under
// TestbedConfig::audit_interval.
//
// Invariants checked (each violation carries the invariant's name):
//   group-membership   a node is a member of at most one group per dynamic
//                      attribute; duplicates are tolerated only while the
//                      node is in transition or within the churn grace
//                      window (see kChurnGrace below)
//   group-naming       a group's name, parsed key, and value range agree
//                      with the deterministic naming scheme (group_naming.hpp)
//   group-structure    representatives are members, member regions match a
//                      geo-scoped group's region, timestamps do not lead the
//                      clock
//   transition-table   every transitioning node is reachable (directory entry
//                      with the same command address) and entries expire no
//                      later than one maintenance period after their TTL
//   cache              entry timestamps lie in [0, now] and occupancy is
//                      within the configured capacity
//   simulator          the event queue never holds an entry earlier than the
//                      virtual clock (monotonicity)
//   registrar          static primary tables and the node directory mirror
//                      each other exactly
//   gossip             per-agent gossip structures are internally consistent:
//                      piggyback entries keep one slot per node with a copy
//                      budget in (0, piggyback_copies], buffered events have
//                      retransmission budget within config and are recorded
//                      as seen, delta-sync cursors never lead the member
//                      epoch, and the member slab's alive cache and id index
//                      agree with the slab itself. (Payload immutability
//                      after send is enforced separately: the transport
//                      stamps each message's wire size at send and a
//                      FOCUS_DCHECK re-derives it at delivery.)

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace focus::sim {
class Simulator;
}

namespace focus::gossip {
class GroupAgent;
}

namespace focus::core {

class Dgm;
class QueryCache;
class Registrar;
class Service;
struct ServiceConfig;

/// One violated invariant.
struct AuditViolation {
  std::string invariant;  ///< which rule broke (names above)
  std::string detail;     ///< offending node/group/entry and values
};

/// Outcome of an audit pass.
struct AuditReport {
  std::vector<AuditViolation> violations;
  std::size_t checks_run = 0;  ///< individual predicates evaluated

  bool ok() const noexcept { return violations.empty(); }

  /// Merge another report into this one (used by audit_service).
  void merge(AuditReport other);

  /// Multi-line human-readable summary (empty string when ok).
  std::string to_string() const;
};

/// Group membership, naming, structure, and transition-table invariants.
AuditReport audit_groups(const Dgm& dgm, const Registrar& registrar,
                         const ServiceConfig& config, SimTime now);

/// Node directory vs. static primary tables.
AuditReport audit_registrar(const Registrar& registrar);

/// Response-cache timestamp and occupancy invariants.
AuditReport audit_cache(const QueryCache& cache, SimTime now);

/// Event-queue monotonicity of the simulation kernel.
AuditReport audit_simulator(const sim::Simulator& simulator);

/// Gossip-layer structural invariants of one group agent (piggyback copy
/// budgets, event retransmission bookkeeping, delta-sync cursors, member-slab
/// cache coherence). `now` is the simulator clock.
AuditReport audit_gossip(const gossip::GroupAgent& agent, SimTime now);

/// Every structural audit over one service instance at simulated time `now`
/// (groups, registrar, cache). Kernels are audited separately
/// (audit_simulator), one per shard.
AuditReport audit_service(const Service& service, SimTime now);

}  // namespace focus::core
