// Lease state machine for replicated service tiers (DESIGN.md §9–§10, §17).
//
// Leadership in a replica set rests on time-bounded leases: the leader
// renews every kRenewInterval, and each backup that hears a renewal
// extends its local grant to the arrival time + kLeaseDuration (while a
// pair is healthy the engine computes those arrivals instead of
// simulating them, DESIGN.md §17). A backup whose grant expires considers
// leadership vacant and arms a promotion timer at
//
//   promote_at = lease_expiry + kPromoteStagger * replica_index
//
// — the deterministic seniority rule: the lowest-index live backup fires
// first and announces itself (its first renewal broadcast doubles as the
// NEW_LEADER announcement), which re-grants every later candidate's lease
// and disarms their staggered timers. Simulated clocks share one event
// queue, so no clock-skew epsilon is modelled.

#ifndef SRC_REPLICATION_LEASE_H_
#define SRC_REPLICATION_LEASE_H_

#include <algorithm>
#include <cstdint>

#include "src/sim/time.h"

namespace keypad {

// How long one grant lasts without renewal.
inline constexpr SimDuration kLeaseDuration = SimDuration::Seconds(2);
// Leader renewal period. Several renewals fit in one lease, so a single
// lost renewal does not trigger a spurious failover.
inline constexpr SimDuration kRenewInterval = SimDuration::Millis(500);
// Seniority stagger between candidate promotion slots.
inline constexpr SimDuration kPromoteStagger = SimDuration::Millis(400);

// One replica's local view of the lease it granted to the current leader.
class LeaseState {
 public:
  // Extends the grant to heard_at + kLeaseDuration; a renewal heard
  // earlier never shortens the grant a later one made.
  void Grant(SimTime heard_at) {
    expiry_ = std::max(expiry_, heard_at + kLeaseDuration);
  }
  // Forces the grant to lapse (e.g. a rejoining replica with no leader in
  // sight becomes an immediate promotion candidate).
  void Expire(SimTime now) { expiry_ = now; }

  SimTime expiry() const { return expiry_; }

  // When this replica's promotion slot opens (seniority rule above).
  SimTime PromoteAt(size_t replica_index) const {
    return expiry_ + kPromoteStagger * static_cast<int64_t>(replica_index);
  }

 private:
  SimTime expiry_;
};

}  // namespace keypad

#endif  // SRC_REPLICATION_LEASE_H_
