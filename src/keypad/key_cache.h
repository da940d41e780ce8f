// Client-side cache of remote keys K_R_F with expiration and in-use refresh
// (§3.3, §4 "Key Expiration").
//
// Semantics from the paper:
//  * Every cached key expires Texp after it was (re)fetched; a background
//    purger securely erases expired keys.
//  * If the key was reused during its expiration period, the purger
//    re-requests it from the key service (producing an audit record). If
//    the response arrives, the expiration is extended; otherwise the key is
//    removed. Thus keys never expire while in use, absent network failures.
//  * The set of keys in memory at T_loss is exactly what the forensic
//    auditor must assume compromised; the cache keeps a time-integral of
//    its size so Fig. 11's "average number of in-memory keys" is exact.
//
// Layout (DESIGN.md §13): the old std::map + one-timer-per-entry design put
// an O(log n) ordered tree and a heap event on every open()'s fast path. The
// store is now a sharded open-addressing hash table — the same layout a
// lock-free in-kernel cache would use, with the id's own random bytes as the
// hash — and expiry runs as one epoch sweep per shard, armed at the shard's
// earliest expiry instead of one timer per key. Sweeps fire at exactly the
// same virtual times the per-entry timers did, so expiry-visible behaviour
// (and the exposure-window integral) is bit-identical; the table just does
// it with O(1) probes and 16 standing events instead of n.

#ifndef SRC_KEYPAD_KEY_CACHE_H_
#define SRC_KEYPAD_KEY_CACHE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

class KeyCache {
 public:
  // `refresh` re-fetches a key asynchronously; it reports the new key (or
  // failure) through the callback. May be empty (no refresh; keys simply
  // expire), which tests use for strict-expiry behaviour.
  using RefreshFn = std::function<void(
      const AuditId&, std::function<void(Result<Bytes>)>)>;

  KeyCache(EventQueue* queue, SimDuration texp);
  ~KeyCache();

  void set_refresh(RefreshFn refresh) { refresh_ = std::move(refresh); }
  void set_texp(SimDuration texp) { texp_ = texp; }

  // Returns the key and marks the entry used (which arms the in-use
  // refresh at expiry).
  std::optional<Bytes> Lookup(const AuditId& id);
  bool Contains(const AuditId& id) const;

  void Insert(const AuditId& id, Bytes key);

  // Securely erases one key.
  void Erase(const AuditId& id);
  // Securely erases everything (hibernation / shutdown). Returns the IDs
  // erased so the caller can send eviction notices.
  std::vector<AuditId> Clear();

  size_t size() const { return size_; }
  std::vector<AuditId> CurrentKeys() const;

  // --- Statistics. ----------------------------------------------------------
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t insertions() const { return insertions_; }
  uint64_t refreshes_started() const { return refreshes_started_; }
  // Epoch-sweep observability: sweep wakeups and keys erased by them.
  uint64_t sweeps() const { return sweeps_; }
  uint64_t expired_swept() const { return expired_swept_; }
  // Time-average of size() over [since, now].
  double AverageSizeSince(SimTime since) const;
  void ResetStats();

 private:
  static constexpr size_t kShardCount = 16;       // Power of two.
  static constexpr size_t kInitialSlots = 16;     // Per shard, power of two.

  struct Slot {
    enum class State : uint8_t { kEmpty, kFull, kTombstone };
    State state = State::kEmpty;
    AuditId id;
    Bytes key;
    SimTime expires_at;
    bool used_since_fetch = false;
    bool refreshing = false;
  };

  struct Shard {
    std::vector<Slot> slots;
    size_t full = 0;      // kFull slots.
    size_t occupied = 0;  // kFull + kTombstone (probe-chain load).
    EventQueue::EventId sweep_event = EventQueue::kInvalidEvent;
    SimTime sweep_at;
  };

  // The id is 192 uniformly random bits (paper §4): its leading bytes are
  // already an ideal hash.
  static uint64_t HashOf(const AuditId& id) {
    uint64_t h = 0;
    for (size_t i = 0; i < 8; ++i) {
      h = (h << 8) | id.v[i];
    }
    return h;
  }
  Shard& ShardFor(const AuditId& id) {
    return shards_[HashOf(id) % kShardCount];
  }
  const Shard& ShardFor(const AuditId& id) const {
    return shards_[HashOf(id) % kShardCount];
  }

  Slot* Find(Shard& shard, const AuditId& id);
  const Slot* Find(const Shard& shard, const AuditId& id) const;
  Slot* InsertSlot(Shard& shard, const AuditId& id);  // Grows as needed.
  void Grow(Shard& shard);
  void EraseSlot(Shard& shard, Slot& slot);

  // Re-arms `shard`'s sweep if `at` is earlier than the armed wakeup (or
  // nothing is armed).
  void ArmSweepIfEarlier(size_t shard_index, SimTime at);
  // Expires everything due in the shard, then re-arms at the next-earliest
  // non-refreshing entry.
  void Sweep(size_t shard_index);

  void Accumulate();  // Folds size()*dt into the integral.

  EventQueue* queue_;
  SimDuration texp_;
  RefreshFn refresh_;
  Shard shards_[kShardCount];
  size_t size_ = 0;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t refreshes_started_ = 0;
  uint64_t sweeps_ = 0;
  uint64_t expired_swept_ = 0;

  // Integral of size() over time for exact averages.
  SimTime integral_reset_time_;
  SimTime last_change_;
  double size_time_integral_ = 0;  // In (keys * seconds).
};

}  // namespace keypad

#endif  // SRC_KEYPAD_KEY_CACHE_H_
