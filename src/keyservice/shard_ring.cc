#include "src/keyservice/shard_ring.h"

#include <algorithm>

#include "src/util/hash.h"

namespace keypad {

ShardRing::ShardRing(size_t shard_count, uint64_t seed, int vnodes_per_shard)
    : shard_count_(shard_count == 0 ? 1 : shard_count), seed_(seed) {
  if (vnodes_per_shard < 1) {
    vnodes_per_shard = 1;
  }
  points_.reserve(shard_count_ * static_cast<size_t>(vnodes_per_shard));
  for (uint32_t shard = 0; shard < shard_count_; ++shard) {
    for (int vnode = 0; vnode < vnodes_per_shard; ++vnode) {
      uint64_t position =
          HashMix64(seed_ ^ HashMix64((static_cast<uint64_t>(shard) << 32) |
                                      static_cast<uint64_t>(vnode)));
      points_.emplace_back(position, shard);
    }
  }
  std::sort(points_.begin(), points_.end());
}

size_t ShardRing::ShardFor(const AuditId& audit_id) const {
  if (shard_count_ == 1) {
    return 0;
  }
  uint64_t h = 0;
  for (size_t i = 0; i < 8; ++i) {
    h = (h << 8) | audit_id.v[i];
  }
  h = HashMix64(seed_ ^ h);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const std::pair<uint64_t, uint32_t>& point, uint64_t value) {
        return point.first < value;
      });
  if (it == points_.end()) {
    it = points_.begin();  // Wrap around the ring.
  }
  return it->second;
}

}  // namespace keypad
