// One probe per table on the key-service request path (DESIGN.md §28).
//
// The key index and the reply cache are hashed, and hot-key residency
// lives in the key records. These tests pin what the ordered tables used
// to give for free: snapshot bytes and kRestore rows that do not depend on
// insertion order, a hot-key LRU that counts exactly like the old
// list-plus-map design (kept below as the oracle), a reply cache whose
// single table keeps the old eviction order, and an id hash that no
// client-chosen id prefix can pile into one bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/keyservice/key_service.h"
#include "src/rpc/reply_cache.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

AuditId IdFromIndex(size_t i) {
  AuditId id;
  id.v[0] = 0xA5;  // Never zero.
  for (size_t b = 0; b < 8; ++b) {
    id.v[16 + b] = static_cast<uint8_t>(i >> (8 * b));
  }
  id.v[8] = static_cast<uint8_t>(i * 37);
  return id;
}

// --- Order-free state. ------------------------------------------------------

struct Binding {
  std::string device;
  AuditId id;
  Bytes key;
};

std::vector<Binding> Bindings() {
  std::vector<Binding> out;
  for (size_t i = 0; i < 300; ++i) {
    out.push_back({i % 3 == 0 ? "phone" : "laptop", IdFromIndex(i * 7919),
                   Bytes(32, static_cast<uint8_t>(i))});
  }
  return out;
}

// A service holding `bindings`, adopted through one replicated delta in the
// given order (no rows, so both services' logs start identical).
void Load(KeyService& service, std::vector<Binding> bindings, bool reverse) {
  service.RegisterDeviceWithSecret("laptop", Bytes(32, 1));
  service.RegisterDeviceWithSecret("phone", Bytes(32, 2));
  service.RegisterDeviceWithSecret("replacement", Bytes(32, 3));
  if (reverse) {
    std::reverse(bindings.begin(), bindings.end());
  }
  KeyService::Delta delta;
  for (const Binding& b : bindings) {
    delta.changes.push_back(KeyChange{b.device, b.id, b.key});
  }
  ASSERT_TRUE(service.ApplyReplicated(delta).ok());
}

TEST(OrderFreeStateTest, SnapshotBytesIgnoreInsertionOrder) {
  EventQueue queue;
  KeyService forward(&queue, 7);
  KeyService backward(&queue, 7);
  Load(forward, Bindings(), false);
  Load(backward, Bindings(), true);
  ASSERT_EQ(forward.key_count(), 300u);

  Bytes snapshot = forward.Snapshot();
  EXPECT_EQ(snapshot, backward.Snapshot());

  // Each side adopts the other's bytes and writes them back unchanged.
  ASSERT_TRUE(backward.Restore(snapshot).ok());
  EXPECT_EQ(backward.Snapshot(), snapshot);
  ASSERT_TRUE(forward.Restore(backward.Snapshot()).ok());
  EXPECT_EQ(forward.Snapshot(), snapshot);
  EXPECT_EQ(forward.key_count(), 300u);
}

TEST(OrderFreeStateTest, TransferLogsRestoreRowsInAscendingIdOrder) {
  EventQueue queue;
  KeyService forward(&queue, 9);
  KeyService backward(&queue, 9);
  Load(forward, Bindings(), false);
  Load(backward, Bindings(), true);
  for (KeyService* service : {&forward, &backward}) {
    ASSERT_TRUE(service->DisableDevice("laptop").ok());
    ASSERT_TRUE(service->TransferDeviceKeys("laptop", "replacement").ok());
  }

  std::vector<AuditId> restored;
  for (const auto& entry : forward.log().entries()) {
    if (entry.op == AccessOp::kRestore) {
      EXPECT_EQ(entry.device_id, "replacement");
      restored.push_back(entry.audit_id);
    }
  }
  ASSERT_EQ(restored.size(), 200u);  // Every laptop binding, none of the phone's.
  EXPECT_TRUE(std::is_sorted(restored.begin(), restored.end()));
  EXPECT_EQ(forward.log().entries().back().entry_hash,
            backward.log().entries().back().entry_hash);
  EXPECT_EQ(forward.Snapshot(), backward.Snapshot());
  EXPECT_EQ(forward.key_count(), 500u);
}

// --- The hot-key LRU against the old design. -------------------------------

// The list-plus-ordered-map LRU the key records replaced, as an oracle.
class ReferenceLru {
 public:
  using Key = std::pair<std::string, AuditId>;
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  // A release: a hit refreshes the line, a miss inserts it.
  void Release(const Key& key) {
    if (Touch(key)) {
      ++hits;
    } else {
      ++misses;
      Insert(key);
    }
  }
  void Insert(const Key& key) {
    if (Touch(key)) {
      return;
    }
    if (index_.size() >= capacity_) {
      index_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(key);
    index_.emplace(key, lru_.begin());
  }
  void Erase(const Key& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
      ++invalidations;
    }
  }
  void EraseDevice(const std::string& device) {
    auto it = index_.lower_bound(Key{device, AuditId{}});
    while (it != index_.end() && it->first.first == device) {
      lru_.erase(it->second);
      it = index_.erase(it);
      ++invalidations;
    }
  }
  void Clear() {
    lru_.clear();
    index_.clear();
  }
  size_t size() const { return index_.size(); }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;

 private:
  bool Touch(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  size_t capacity_;
  std::list<Key> lru_;
  std::map<Key, std::list<Key>::iterator> index_;
};

TEST(HotKeyLruModelTest, CountsMatchTheListAndMapDesignStepByStep) {
  EventQueue queue;
  KeyService service(&queue, 11);
  ReferenceLru model(KeyService::kHotKeyCapacity);
  const std::vector<std::string> devices = {"laptop", "phone", "tablet"};
  for (const auto& device : devices) {
    service.RegisterDevice(device);
  }
  const size_t kKeys = KeyService::kHotKeyCapacity + 1500;
  std::vector<ReferenceLru::Key> keys;
  std::map<ReferenceLru::Key, bool> live;  // Key -> disabled.
  std::map<std::string, bool> revoked;

  size_t step = 0;
  auto expect_same = [&](const char* what) {
    KeyService::LoadStats stats = service.load_stats();
    ASSERT_EQ(stats.hot_hits, model.hits) << what << " at step " << step;
    ASSERT_EQ(stats.hot_misses, model.misses) << what << " at step " << step;
    ASSERT_EQ(stats.hot_invalidations, model.invalidations)
        << what << " at step " << step;
    ASSERT_EQ(stats.hot_size, model.size()) << what << " at step " << step;
    ++step;
  };

  // Creates: every minted key starts resident, so the coldest fall out.
  for (size_t i = 0; i < kKeys; ++i) {
    ReferenceLru::Key key{devices[i % devices.size()], IdFromIndex(i)};
    ASSERT_TRUE(service.CreateKey(key.first, key.second).ok());
    model.Insert(key);
    keys.push_back(key);
    live[key] = false;
    expect_same("create");
  }

  SimRandom rng(42);
  auto fetch = [&](const ReferenceLru::Key& key) {
    auto result = service.GetKey(key.first, key.second);
    auto it = live.find(key);
    bool servable =
        !revoked[key.first] && it != live.end() && !it->second;
    ASSERT_EQ(result.ok(), servable) << "step " << step;
    if (servable) {
      model.Release(key);
    }
    expect_same("fetch");
  };
  // A skewed fetch mix: a hot head that stays resident and a long tail
  // that misses and evicts.
  auto fetch_some = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      size_t pick = rng.UniformDouble() < 0.6 ? rng.UniformU64(512)
                                              : rng.UniformU64(kKeys);
      fetch(keys[pick]);
    }
  };
  fetch_some(6000);

  // A per-key disable and a destroy invalidate their lines.
  ASSERT_TRUE(service.DisableKey(keys[3].first, keys[3].second).ok());
  model.Erase(keys[3]);
  live[keys[3]] = true;
  expect_same("disable key");
  ASSERT_TRUE(service.DestroyKey(keys[4].first, keys[4].second).ok());
  model.Erase(keys[4]);
  live.erase(keys[4]);
  expect_same("destroy");
  fetch(keys[3]);
  fetch(keys[4]);
  fetch_some(2000);

  // A replicated apply: a re-bound key, a disable and an erase, each of
  // which drops residency; a new binding arrives cold.
  KeyService::Delta delta;
  delta.changes.push_back(KeyChange{keys[5].first, keys[5].second,
                                    Bytes(32, 0x55)});
  delta.changes.push_back(
      KeyChange{keys[6].first, keys[6].second, Bytes(), true, false});
  delta.changes.push_back(
      KeyChange{keys[7].first, keys[7].second, Bytes(), false, true});
  ReferenceLru::Key fresh{"tablet", IdFromIndex(kKeys + 1)};
  delta.changes.push_back(KeyChange{fresh.first, fresh.second, Bytes(32, 1)});
  ASSERT_TRUE(service.ApplyReplicated(delta).ok());
  for (size_t i : {5, 6, 7}) {
    model.Erase(keys[i]);
  }
  live[keys[6]] = true;
  live.erase(keys[7]);
  live[fresh] = false;
  keys.push_back(fresh);
  expect_same("replicated apply");
  fetch(fresh);
  fetch(keys[5]);
  fetch_some(2000);

  // A device revocation drops every line of that device.
  ASSERT_TRUE(service.DisableDevice("phone").ok());
  model.EraseDevice("phone");
  revoked["phone"] = true;
  expect_same("revoke device");
  fetch_some(2000);

  // A snapshot restore starts every record cold.
  ASSERT_TRUE(service.Restore(service.Snapshot()).ok());
  model.Clear();
  expect_same("restore");
  fetch_some(3000);

  // The test hook drops residency the same way.
  service.DropHotKeysForTesting();
  model.Clear();
  expect_same("drop");
  fetch_some(1000);
  EXPECT_GT(model.hits, 0u);
  EXPECT_GT(model.misses, 1000u);
  EXPECT_TRUE(service.log().Verify().ok());
}

// --- The reply cache's single table. ----------------------------------------

TEST(ReplyCacheTableTest, RetransmissionInFlightIsDroppedThenReplayed) {
  ReplyCache cache;
  const std::string* reply = nullptr;
  EXPECT_EQ(cache.Admit({1, 1}, &reply), ReplyCache::Arrival::kNew);
  EXPECT_EQ(cache.Admit({1, 1}, &reply), ReplyCache::Arrival::kInFlight);
  EXPECT_EQ(cache.in_flight_drops(), 1u);
  EXPECT_EQ(cache.size(), 0u);  // In-flight entries are not replies.
  EXPECT_FALSE(cache.Lookup({1, 1}).has_value());

  cache.Complete({1, 1}, "answer");
  ASSERT_EQ(cache.Admit({1, 1}, &reply), ReplyCache::Arrival::kCompleted);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(*reply, "answer");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplyCacheTableTest, ClearInFlightKeepsCompletedReplies) {
  ReplyCache cache;
  const std::string* reply = nullptr;
  ASSERT_EQ(cache.Admit({1, 1}, &reply), ReplyCache::Arrival::kNew);
  cache.Complete({1, 1}, "done");
  ASSERT_EQ(cache.Admit({1, 2}, &reply), ReplyCache::Arrival::kNew);

  cache.ClearInFlight();  // The server restarted mid-request.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Admit({1, 1}, &reply), ReplyCache::Arrival::kCompleted);
  // The lost request's retry executes again.
  EXPECT_EQ(cache.Admit({1, 2}, &reply), ReplyCache::Arrival::kNew);
  EXPECT_EQ(cache.in_flight_drops(), 0u);
}

TEST(ReplyCacheTableTest, CapacityEvictionIsFifoInCompletionOrder) {
  ReplyCache cache(/*capacity=*/3, /*max_age=*/SimDuration::Seconds(10));
  // Completion order, not key order, decides who goes first.
  const std::vector<ReplyCache::RequestKey> order = {
      {9, 9}, {1, 2}, {5, 5}, {1, 1}, {7, 0}};
  for (const auto& key : order) {
    cache.Complete(key, "r");
  }
  EXPECT_FALSE(cache.Lookup({9, 9}).has_value());
  EXPECT_FALSE(cache.Lookup({1, 2}).has_value());
  for (const auto& key : {order[2], order[3], order[4]}) {
    EXPECT_TRUE(cache.Lookup(key).has_value());
  }
  EXPECT_EQ(cache.capacity_evictions(), 2u);
  EXPECT_EQ(cache.age_evictions(), 0u);
}

TEST(ReplyCacheTableTest, AgeEvictionRunsBeforeCapacityEviction) {
  ReplyCache cache(/*capacity=*/2, /*max_age=*/SimDuration::Seconds(10));
  SimTime t;
  cache.Complete({1, 1}, "a", t);
  cache.Complete({1, 2}, "b", t + SimDuration::Seconds(5));
  // At t+12 the first reply has aged out, which leaves room for the third:
  // nothing is evicted for capacity.
  cache.Complete({1, 3}, "c", t + SimDuration::Seconds(12));
  EXPECT_EQ(cache.age_evictions(), 1u);
  EXPECT_EQ(cache.capacity_evictions(), 0u);
  EXPECT_FALSE(cache.Lookup({1, 1}).has_value());
  EXPECT_TRUE(cache.Lookup({1, 2}).has_value());
  EXPECT_TRUE(cache.Lookup({1, 3}).has_value());
}

// --- The id hash. -----------------------------------------------------------

TEST(IdHashTest, EveryByteReachesTheHash) {
  AuditId base = IdFromIndex(12345);
  for (size_t byte = 0; byte < base.v.size(); ++byte) {
    AuditId other = base;
    other.v[byte] ^= 0x01;
    EXPECT_NE(base.Hash(), other.Hash()) << "byte " << byte;
    EXPECT_NE(std::hash<AuditId>{}(base), std::hash<AuditId>{}(other));
  }
  DirId dir;
  DirId last = dir;
  last.v.back() = 1;
  EXPECT_NE(dir.Hash(), last.Hash());
}

// Journaled creates whose ids share their first eight bytes (or all but
// the last two) must still spread across the key index's buckets.
TEST(IdHashTest, JournaledIdsWithASharedPrefixSpreadAcrossBuckets) {
  for (size_t varying_from : {8u, 22u}) {
    EventQueue queue;
    KeyService service(&queue, 13);
    service.RegisterDevice("phone");
    std::vector<KeyService::JournalEntry> journal;
    const size_t kIds = 4000;
    for (size_t i = 0; i < kIds; ++i) {
      KeyService::JournalEntry entry;
      entry.audit_id.v.fill(0x42);
      for (size_t b = varying_from; b < 24 && b < varying_from + 8; ++b) {
        entry.audit_id.v[b] =
            static_cast<uint8_t>(i >> (8 * (b - varying_from)));
      }
      entry.op = AccessOp::kCreate;
      entry.key = Bytes(32, 7);
      journal.push_back(std::move(entry));
    }
    ASSERT_TRUE(service.UploadJournal("phone", journal).ok());
    ASSERT_EQ(service.key_count(), kIds);
    EXPECT_LE(service.MaxKeyBucketForTesting(), 8u)
        << "ids varying from byte " << varying_from;
  }
}

}  // namespace
}  // namespace keypad
