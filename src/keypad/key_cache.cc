#include "src/keypad/key_cache.h"

#include <algorithm>

namespace keypad {

KeyCache::KeyCache(EventQueue* queue, SimDuration texp)
    : queue_(queue),
      texp_(texp),
      integral_reset_time_(queue->Now()),
      last_change_(queue->Now()) {
  for (Shard& shard : shards_) {
    shard.slots.resize(kInitialSlots);
  }
}

KeyCache::~KeyCache() {
  for (Shard& shard : shards_) {
    queue_->Cancel(shard.sweep_event);
    for (Slot& slot : shard.slots) {
      if (slot.state == Slot::State::kFull) {
        SecureZero(slot.key);
      }
    }
  }
}

void KeyCache::Accumulate() {
  SimTime now = queue_->Now();
  size_time_integral_ +=
      static_cast<double>(size_) * (now - last_change_).seconds_f();
  last_change_ = now;
}

// --- Open-addressing machinery. ---------------------------------------------

KeyCache::Slot* KeyCache::Find(Shard& shard, const AuditId& id) {
  const size_t mask = shard.slots.size() - 1;
  // Low bits picked the shard; probe on the next ones.
  size_t i = (HashOf(id) >> 4) & mask;
  for (size_t step = 0; step < shard.slots.size(); ++step) {
    Slot& slot = shard.slots[i];
    if (slot.state == Slot::State::kEmpty) {
      return nullptr;
    }
    if (slot.state == Slot::State::kFull && slot.id == id) {
      return &slot;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

const KeyCache::Slot* KeyCache::Find(const Shard& shard,
                                     const AuditId& id) const {
  return const_cast<KeyCache*>(this)->Find(const_cast<Shard&>(shard), id);
}

void KeyCache::Grow(Shard& shard) {
  std::vector<Slot> old = std::move(shard.slots);
  shard.slots.clear();
  shard.slots.resize(old.size() * 2);
  shard.occupied = shard.full;  // Tombstones die with the old table.
  const size_t mask = shard.slots.size() - 1;
  for (Slot& slot : old) {
    if (slot.state != Slot::State::kFull) {
      continue;
    }
    size_t i = (HashOf(slot.id) >> 4) & mask;
    while (shard.slots[i].state == Slot::State::kFull) {
      i = (i + 1) & mask;
    }
    shard.slots[i] = std::move(slot);
  }
}

KeyCache::Slot* KeyCache::InsertSlot(Shard& shard, const AuditId& id) {
  // Keep probe chains short: grow at 3/4 occupancy (tombstones included).
  if ((shard.occupied + 1) * 4 >= shard.slots.size() * 3) {
    Grow(shard);
  }
  const size_t mask = shard.slots.size() - 1;
  size_t i = (HashOf(id) >> 4) & mask;
  Slot* tombstone = nullptr;
  while (true) {
    Slot& slot = shard.slots[i];
    if (slot.state == Slot::State::kEmpty) {
      Slot* target = tombstone != nullptr ? tombstone : &slot;
      if (target == &slot) {
        ++shard.occupied;  // Tombstone reuse keeps the chain length.
      }
      target->state = Slot::State::kFull;
      target->id = id;
      ++shard.full;
      ++size_;
      return target;
    }
    if (slot.state == Slot::State::kTombstone && tombstone == nullptr) {
      tombstone = &slot;
    }
    i = (i + 1) & mask;
  }
}

void KeyCache::EraseSlot(Shard& shard, Slot& slot) {
  SecureZero(slot.key);
  slot.key.clear();
  slot.state = Slot::State::kTombstone;
  slot.used_since_fetch = false;
  slot.refreshing = false;
  --shard.full;
  --size_;
}

// --- Epoch sweeps. ----------------------------------------------------------

void KeyCache::ArmSweepIfEarlier(size_t shard_index, SimTime at) {
  Shard& shard = shards_[shard_index];
  if (shard.sweep_event != EventQueue::kInvalidEvent && shard.sweep_at <= at) {
    return;
  }
  queue_->Cancel(shard.sweep_event);
  shard.sweep_at = at;
  shard.sweep_event =
      queue_->Schedule(at, [this, shard_index] { Sweep(shard_index); });
}

void KeyCache::Sweep(size_t shard_index) {
  Shard& shard = shards_[shard_index];
  shard.sweep_event = EventQueue::kInvalidEvent;
  ++sweeps_;
  SimTime now = queue_->Now();

  // Two-phase: scan first, then act by id — a refresh fn that completes
  // synchronously may itself mutate (and rehash) the table.
  std::vector<AuditId> to_refresh;
  std::vector<AuditId> to_erase;
  for (const Slot& slot : shard.slots) {
    if (slot.state != Slot::State::kFull || slot.refreshing ||
        slot.expires_at > now) {
      continue;
    }
    if (slot.used_since_fetch && refresh_) {
      to_refresh.push_back(slot.id);
    } else {
      to_erase.push_back(slot.id);
    }
  }

  if (!to_erase.empty()) {
    Accumulate();
    for (const AuditId& id : to_erase) {
      if (Slot* slot = Find(shard, id)) {
        EraseSlot(shard, *slot);
        ++expired_swept_;
      }
    }
  }
  for (const AuditId& id : to_refresh) {
    Slot* slot = Find(shard, id);
    if (slot == nullptr || slot->refreshing) {
      continue;
    }
    // The key was in use during its lifetime: refresh it in the background
    // (the key service logs a kRefresh access). The key stays usable while
    // the refresh is in flight so in-use files never hiccup.
    slot->refreshing = true;
    slot->used_since_fetch = false;
    ++refreshes_started_;
    refresh_(id, [this, id, shard_index](Result<Bytes> result) {
      Shard& s = shards_[shard_index];
      Slot* refreshed = Find(s, id);
      if (refreshed == nullptr) {
        return;  // Erased meanwhile (revocation, hibernation).
      }
      if (!result.ok()) {
        Erase(id);
        return;
      }
      refreshed->refreshing = false;
      SecureZero(refreshed->key);
      refreshed->key = std::move(*result);
      refreshed->expires_at = queue_->Now() + texp_;
      ArmSweepIfEarlier(shard_index, refreshed->expires_at);
    });
  }

  // Re-arm at the next-earliest live entry (refreshing slots re-arm
  // themselves when their fetch lands).
  bool found = false;
  SimTime next;
  for (const Slot& slot : shard.slots) {
    if (slot.state != Slot::State::kFull || slot.refreshing) {
      continue;
    }
    if (!found || slot.expires_at < next) {
      found = true;
      next = slot.expires_at;
    }
  }
  if (found) {
    ArmSweepIfEarlier(shard_index, next);
  }
}

// --- Public surface. --------------------------------------------------------

std::optional<Bytes> KeyCache::Lookup(const AuditId& id) {
  Slot* slot = Find(ShardFor(id), id);
  if (slot == nullptr) {
    ++misses_;
    return std::nullopt;
  }
  slot->used_since_fetch = true;
  ++hits_;
  return slot->key;
}

bool KeyCache::Contains(const AuditId& id) const {
  return Find(ShardFor(id), id) != nullptr;
}

void KeyCache::Insert(const AuditId& id, Bytes key) {
  Accumulate();
  ++insertions_;
  size_t shard_index = HashOf(id) % kShardCount;
  Shard& shard = shards_[shard_index];
  Slot* slot = Find(shard, id);
  if (slot != nullptr) {
    SecureZero(slot->key);
  } else {
    slot = InsertSlot(shard, id);
  }
  slot->key = std::move(key);
  slot->expires_at = queue_->Now() + texp_;
  slot->used_since_fetch = false;
  slot->refreshing = false;
  ArmSweepIfEarlier(shard_index, slot->expires_at);
}

void KeyCache::Erase(const AuditId& id) {
  Shard& shard = ShardFor(id);
  Slot* slot = Find(shard, id);
  if (slot == nullptr) {
    return;
  }
  Accumulate();
  EraseSlot(shard, *slot);
  // An armed sweep aimed at this entry just wakes spuriously and re-arms.
}

std::vector<AuditId> KeyCache::Clear() {
  Accumulate();
  std::vector<AuditId> erased;
  erased.reserve(size_);
  for (Shard& shard : shards_) {
    queue_->Cancel(shard.sweep_event);
    shard.sweep_event = EventQueue::kInvalidEvent;
    for (Slot& slot : shard.slots) {
      if (slot.state == Slot::State::kFull) {
        SecureZero(slot.key);
        erased.push_back(slot.id);
      }
      slot = Slot();
    }
    shard.full = 0;
    shard.occupied = 0;
  }
  size_ = 0;
  // Callers (and the old map-based cache) see ids in ascending order.
  std::sort(erased.begin(), erased.end());
  return erased;
}

std::vector<AuditId> KeyCache::CurrentKeys() const {
  std::vector<AuditId> out;
  out.reserve(size_);
  for (const Shard& shard : shards_) {
    for (const Slot& slot : shard.slots) {
      if (slot.state == Slot::State::kFull) {
        out.push_back(slot.id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double KeyCache::AverageSizeSince(SimTime since) const {
  SimTime start = since > integral_reset_time_ ? since : integral_reset_time_;
  SimTime now = queue_->Now();
  double window = (now - start).seconds_f();
  if (window <= 0) {
    return static_cast<double>(size_);
  }
  // size_time_integral_ covers [integral_reset_time_, last_change_]; add the
  // tail at current size. For since > reset time this is an approximation
  // only if the caller reset stats later than `since`; benches reset first.
  double integral =
      size_time_integral_ +
      static_cast<double>(size_) * (now - last_change_).seconds_f();
  return integral / window;
}

void KeyCache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
  insertions_ = 0;
  refreshes_started_ = 0;
  sweeps_ = 0;
  expired_swept_ = 0;
  size_time_integral_ = 0;
  integral_reset_time_ = queue_->Now();
  last_change_ = queue_->Now();
}

}  // namespace keypad
