// Consistent-hash ring placing audit IDs on key-service shards.
//
// Each shard contributes `vnodes_per_shard` points to a 64-bit ring; an
// audit ID belongs to the first point at or after its own hash (wrapping).
// Placement is a pure function of (shard_count, seed, vnodes_per_shard) —
// every client that shares the ring parameters computes identical routes,
// with no coordination service in the loop. Audit IDs are already uniform
// random 192-bit values (that's what makes them unlinkable, §3.1), so a
// cheap mix of their leading bytes spreads them evenly.

#ifndef SRC_KEYSERVICE_SHARD_RING_H_
#define SRC_KEYSERVICE_SHARD_RING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/ids.h"

namespace keypad {

class ShardRing {
 public:
  ShardRing(size_t shard_count, uint64_t seed, int vnodes_per_shard = 64);

  size_t ShardFor(const AuditId& audit_id) const;
  size_t shard_count() const { return shard_count_; }

 private:
  size_t shard_count_;
  uint64_t seed_;
  // Sorted (ring position, shard) points.
  std::vector<std::pair<uint64_t, uint32_t>> points_;
};

}  // namespace keypad

#endif  // SRC_KEYSERVICE_SHARD_RING_H_
