// Read-path overhaul tests (DESIGN.md §13): the server-side hot-key cache
// must be audit-preserving (every hit still lands exactly one correctly
// typed log entry), the typed multi-get must type and order its rows like
// the lone calls it replaces, revoked devices must never be served from a
// stale resident copy, the batched router path must leave verifiable
// chains, the sharded client key cache must be observably identical to the
// simple map baseline (including the exposure-window time integral), and
// the v2 sequence prefetcher must stay behind its confidence gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/keypad/key_cache.h"
#include "src/keypad/prefetcher.h"
#include "src/keyservice/key_service.h"
#include "src/keyservice/key_service_client.h"
#include "src/net/link.h"
#include "src/net/profile.h"
#include "src/rpc/rpc.h"

namespace keypad {
namespace {

std::vector<AuditId> RandomIds(size_t n, uint64_t seed) {
  SecureRandom rng(seed);
  std::vector<AuditId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(AuditId::Random(rng));
  }
  return ids;
}

// Log rows for one device, in seq order.
std::vector<AccessOp> OpsFor(const KeyService& service,
                             const std::string& device) {
  std::vector<AccessOp> ops;
  for (const auto& entry : service.log().entries()) {
    if (entry.device_id == device) {
      ops.push_back(entry.op);
    }
  }
  return ops;
}

// --- Hot-key cache: audit-preserving fast path. -----------------------------

TEST(HotKeyCacheTest, EveryHotHitStillAppendsOneTypedEntry) {
  EventQueue queue;
  KeyService service(&queue, /*rng_seed=*/0xA1);
  service.RegisterDevice("laptop");
  AuditId id = RandomIds(1, 1)[0];
  ASSERT_TRUE(service.CreateKey("laptop", id).ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.GetKey("laptop", id, AccessOp::kDemandFetch).ok());
  }
  ASSERT_TRUE(service.GetKey("laptop", id, AccessOp::kRefresh).ok());

  // One kCreate, three kDemandFetch, one kRefresh — cache hits included.
  std::vector<AccessOp> expected = {
      AccessOp::kCreate, AccessOp::kDemandFetch, AccessOp::kDemandFetch,
      AccessOp::kDemandFetch, AccessOp::kRefresh};
  EXPECT_EQ(OpsFor(service, "laptop"), expected);
  // CreateKey marked the record resident, so every fetch was a hot hit.
  EXPECT_EQ(service.load_stats().hot_hits, 4u);
  EXPECT_EQ(service.load_stats().hot_misses, 0u);
  EXPECT_TRUE(service.log().Verify().ok());
}

TEST(HotKeyCacheTest, ColdFetchMissesThenHits) {
  EventQueue queue;
  KeyService service(&queue, 0xA2);
  service.RegisterDevice("laptop");
  AuditId id = RandomIds(1, 2)[0];
  ASSERT_TRUE(service.CreateKey("laptop", id).ok());
  service.DropHotKeysForTesting();

  ASSERT_TRUE(service.GetKey("laptop", id).ok());
  EXPECT_EQ(service.load_stats().hot_misses, 1u);
  ASSERT_TRUE(service.GetKey("laptop", id).ok());
  EXPECT_EQ(service.load_stats().hot_hits, 1u);
  EXPECT_EQ(service.load_stats().hot_size, 1u);
}

TEST(HotKeyCacheTest, KeyMutationsInvalidateResidentLines) {
  EventQueue queue;
  KeyService service(&queue, 0xA3);
  service.RegisterDevice("laptop");
  auto ids = RandomIds(2, 3);
  ASSERT_TRUE(service.CreateKey("laptop", ids[0]).ok());
  ASSERT_TRUE(service.CreateKey("laptop", ids[1]).ok());
  ASSERT_TRUE(service.GetKey("laptop", ids[0]).ok());

  // Disable, then destroy: the resident copies must not serve.
  ASSERT_TRUE(service.DisableKey("laptop", ids[0]).ok());
  EXPECT_FALSE(service.GetKey("laptop", ids[0]).ok());
  ASSERT_TRUE(service.DestroyKey("laptop", ids[1]).ok());
  EXPECT_FALSE(service.GetKey("laptop", ids[1]).ok());
  EXPECT_GE(service.load_stats().hot_invalidations, 2u);
  EXPECT_TRUE(service.log().Verify().ok());
}

TEST(HotKeyCacheTest, EnvKnobForcesItOff) {
  // The ablation knob is KeyServiceOptions::hot_key_cache.
  EventQueue queue;
  KeyServiceOptions options;
  options.hot_key_cache = false;
  KeyService service(&queue, 0xA4, options);
  service.RegisterDevice("laptop");
  AuditId id = RandomIds(1, 4)[0];
  ASSERT_TRUE(service.CreateKey("laptop", id).ok());
  ASSERT_TRUE(service.GetKey("laptop", id).ok());
  ASSERT_TRUE(service.GetKey("laptop", id).ok());
  EXPECT_EQ(service.load_stats().hot_hits, 0u);
  EXPECT_EQ(service.load_stats().hot_size, 0u);
}

// --- Typed multi-get. --------------------------------------------------------

TEST(MultiGetTest, TypesAndOrdersRowsLikeTheLoneCalls) {
  EventQueue queue;
  KeyService service(&queue, 0xB1);
  service.RegisterDevice("laptop");
  auto ids = RandomIds(3, 5);
  for (const auto& id : ids) {
    ASSERT_TRUE(service.CreateKey("laptop", id).ok());
  }

  auto result = service.GetKeysTyped(
      "laptop", {{ids[0], AccessOp::kDemandFetch},
                 {ids[1], AccessOp::kPrefetch},
                 {ids[2], AccessOp::kPrefetch}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->keys.size(), 3u);
  EXPECT_TRUE(result->misses.empty());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(result->keys[i].first, ids[i]) << "position " << i;
  }

  std::vector<AccessOp> expected = {
      AccessOp::kCreate, AccessOp::kCreate, AccessOp::kCreate,
      AccessOp::kDemandFetch, AccessOp::kPrefetch, AccessOp::kPrefetch};
  EXPECT_EQ(OpsFor(service, "laptop"), expected);

  // The batch's rows sealed as one commit group.
  const auto& entries = service.log().entries();
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_EQ(entries[3].group_start, entries[5].group_start);
  EXPECT_TRUE(service.log().Verify().ok());
}

TEST(MultiGetTest, PerItemMissesDontFailTheBatch) {
  EventQueue queue;
  KeyService service(&queue, 0xB2);
  service.RegisterDevice("laptop");
  auto ids = RandomIds(3, 6);
  ASSERT_TRUE(service.CreateKey("laptop", ids[0]).ok());
  ASSERT_TRUE(service.CreateKey("laptop", ids[1]).ok());
  ASSERT_TRUE(service.DisableKey("laptop", ids[1]).ok());
  // ids[2] never existed.

  auto result = service.GetKeysTyped(
      "laptop", {{ids[0], AccessOp::kDemandFetch},
                 {ids[1], AccessOp::kDemandFetch},
                 {ids[2], AccessOp::kPrefetch}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->keys.size(), 1u);
  EXPECT_EQ(result->keys[0].first, ids[0]);
  ASSERT_EQ(result->misses.size(), 2u);
  EXPECT_EQ(result->misses[0].audit_id, ids[1]);
  EXPECT_EQ(result->misses[0].status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(result->misses[1].audit_id, ids[2]);
  EXPECT_EQ(result->misses[1].status.code(), StatusCode::kNotFound);

  // The disabled key earned a kDenied row; the missing id earned nothing.
  std::vector<AccessOp> ops = OpsFor(service, "laptop");
  EXPECT_EQ(std::count(ops.begin(), ops.end(), AccessOp::kDenied), 1);
  EXPECT_EQ(std::count(ops.begin(), ops.end(), AccessOp::kDemandFetch), 1);
}

// --- Revocation fencing. -----------------------------------------------------

TEST(RevocationTest, RevokedBatchEarnsDeniedRowsAndNegativeCacheHits) {
  EventQueue queue;
  KeyService service(&queue, 0xC1);
  service.RegisterDevice("laptop");
  auto ids = RandomIds(3, 7);
  for (const auto& id : ids) {
    ASSERT_TRUE(service.CreateKey("laptop", id).ok());
  }
  ASSERT_TRUE(service.DisableDevice("laptop").ok());

  auto result = service.GetKeysTyped("laptop",
                                     {{ids[0], AccessOp::kDemandFetch},
                                      {ids[1], AccessOp::kPrefetch},
                                      {ids[2], AccessOp::kPrefetch}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);

  // One kDenied per attempted id, all after the kRevoke row.
  std::vector<AccessOp> ops = OpsFor(service, "laptop");
  EXPECT_EQ(std::count(ops.begin(), ops.end(), AccessOp::kDenied), 3);
  bool revoked = false;
  for (AccessOp op : ops) {
    if (op == AccessOp::kRevoke) {
      revoked = true;
      continue;
    }
    if (revoked) {
      EXPECT_EQ(op, AccessOp::kDenied) << "grant-typed row after kRevoke";
    }
  }

  // The second storm of attempts is served by the negative cache.
  EXPECT_FALSE(service.GetKey("laptop", ids[0]).ok());
  EXPECT_GE(service.load_stats().negative_hits, 1u);
  // Revocation dropped the device's resident lines.
  EXPECT_EQ(service.load_stats().hot_size, 0u);
  EXPECT_TRUE(service.log().Verify().ok());
}

TEST(RevocationTest, ReenableClearsTheNegativeCache) {
  EventQueue queue;
  KeyService service(&queue, 0xC2);
  service.RegisterDevice("laptop");
  AuditId id = RandomIds(1, 8)[0];
  ASSERT_TRUE(service.CreateKey("laptop", id).ok());
  ASSERT_TRUE(service.DisableDevice("laptop").ok());
  EXPECT_FALSE(service.GetKey("laptop", id).ok());
  ASSERT_TRUE(service.EnableDevice("laptop").ok());
  EXPECT_TRUE(service.GetKey("laptop", id).ok());
  EXPECT_TRUE(service.log().Verify().ok());
}

// The single-endpoint stub (unsharded deployments, the paired phone) sends
// every batch as key.get_multi, so each attempted id earns its row.
DeploymentOptions UnshardedOpts() {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  return options;
}

size_t DeniedRows(const KeyService& service, const std::string& device) {
  std::vector<AccessOp> ops = OpsFor(service, device);
  return std::count(ops.begin(), ops.end(), AccessOp::kDenied);
}

TEST(RevocationTest, UnshardedBatchesAuditEveryAttemptedId) {
  Deployment dep(UnshardedOpts());
  ASSERT_EQ(dep.key_router(), nullptr);
  auto ids = RandomIds(4, 9);
  for (const auto& id : ids) {
    ASSERT_TRUE(dep.key_client().CreateKey(id).ok());
  }
  ASSERT_TRUE(dep.key_service().DisableDevice(dep.device_id()).ok());

  EXPECT_FALSE(
      dep.key_client().FetchGroup(ids[0], {ids[1], ids[2], ids[3]}).ok());
  EXPECT_EQ(DeniedRows(dep.key_service(), dep.device_id()), 4u);
  EXPECT_FALSE(dep.key_client().GetKeys({ids[1], ids[2], ids[3]}).ok());
  EXPECT_EQ(DeniedRows(dep.key_service(), dep.device_id()), 7u);
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
}

TEST(RevocationTest, DisabledPrefetchKeyLogsADeniedRow) {
  Deployment dep(UnshardedOpts());
  auto ids = RandomIds(3, 10);
  for (const auto& id : ids) {
    ASSERT_TRUE(dep.key_client().CreateKey(id).ok());
  }
  ASSERT_TRUE(dep.key_service().DisableKey(dep.device_id(), ids[2]).ok());

  auto group = dep.key_client().FetchGroup(ids[0], {ids[1], ids[2]});
  ASSERT_TRUE(group.ok());
  ASSERT_EQ(group->prefetched.size(), 1u);
  EXPECT_EQ(group->prefetched[0].first, ids[1]);
  EXPECT_EQ(DeniedRows(dep.key_service(), dep.device_id()), 1u);
  EXPECT_EQ(dep.key_service().log().entries().back().audit_id, ids[2]);
}

// --- The key.get_multi frame. ----------------------------------------------

// A reply whose lengths do not match the request fails the call: a key is
// never handed to the wrong id.
TEST(MultiGetTest, MismatchedReplyFailsTheCall) {
  EventQueue queue;
  NetworkLink link(&queue, LanProfile());
  RpcServer server(&queue, SimDuration::Micros(50));
  RpcClient rpc(&queue, &link, &server);
  KeyServiceClient client(&rpc, "laptop", Bytes(32, 0x11));
  auto ids = RandomIds(2, 15);
  const Bytes key(32, 0x42);
  auto reply = [](std::vector<Bytes> keys, size_t misses) {
    WireValue::Array key_values;
    for (auto& k : keys) {
      key_values.push_back(WireValue(std::move(k)));
    }
    WireValue::Array miss_values;
    for (size_t i = 0; i < misses; ++i) {
      WireValue::Struct miss;
      miss.emplace("code",
                   WireValue(static_cast<int64_t>(StatusCode::kNotFound)));
      miss.emplace("msg", WireValue(std::string("no such key")));
      miss_values.push_back(WireValue(std::move(miss)));
    }
    WireValue::Struct out;
    out.emplace("keys", WireValue(std::move(key_values)));
    out.emplace("misses", WireValue(std::move(miss_values)));
    return WireValue(std::move(out));
  };
  WireValue next;
  server.RegisterMethod("key.get_multi",
                        [&next](const WireValue::Array&) -> Result<WireValue> {
                          return next;
                        });
  std::vector<KeyClient::MultiGetItem> items = {
      {ids[0], AccessOp::kDemandFetch}, {ids[1], AccessOp::kPrefetch}};

  next = reply({key}, 0);  // Too few keys.
  EXPECT_EQ(client.GetKeysTyped(items).status().code(), StatusCode::kDataLoss);
  next = reply({key, Bytes()}, 0);  // An empty slot without its miss.
  EXPECT_EQ(client.GetKeysTyped(items).status().code(), StatusCode::kDataLoss);
  next = reply({key, key}, 1);  // A miss without its empty slot.
  EXPECT_EQ(client.GetKeysTyped(items).status().code(), StatusCode::kDataLoss);
  next = reply({key, key, key}, 0);  // Too many keys.
  EXPECT_EQ(client.GetKeysTyped(items).status().code(), StatusCode::kDataLoss);

  next = reply({Bytes(), key}, 1);
  auto result = client.GetKeysTyped(items);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->keys.size(), 1u);
  EXPECT_EQ(result->keys[0].first, ids[1]);
  ASSERT_EQ(result->misses.size(), 1u);
  EXPECT_EQ(result->misses[0].audit_id, ids[0]);
  EXPECT_EQ(result->misses[0].status.code(), StatusCode::kNotFound);
}

// --- Batched router path (end to end over RPC). ------------------------------

DeploymentOptions ShardedOpts(int shards) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.key_shards = shards;
  return options;
}

TEST(BatchedRouterTest, DemandFetchesAuditCorrectlyAndChainsVerify) {
  Deployment dep(ShardedOpts(3));
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);
  ASSERT_TRUE(router->batch_fetch());

  auto ids = RandomIds(24, 9);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
  }
  for (const auto& id : ids) {
    ASSERT_TRUE(router->GetKey(id, AccessOp::kDemandFetch).ok());
  }

  size_t demand_rows = 0;
  for (size_t s = 0; s < 3; ++s) {
    const KeyService& shard = dep.key_replica(s, 0);
    EXPECT_TRUE(shard.log().Verify().ok()) << "shard " << s;
    for (const auto& entry : shard.log().entries()) {
      if (entry.op == AccessOp::kDemandFetch) {
        ++demand_rows;
      }
    }
  }
  EXPECT_EQ(demand_rows, ids.size());
  EXPECT_GE(router->stats().batch_rpcs, 1u);
  EXPECT_EQ(router->stats().batched_keys, ids.size());
}

TEST(BatchedRouterTest, DirectoryPrefetchRowsTypeAsPrefetch) {
  Deployment dep(ShardedOpts(3));
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(12, 10);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
  }
  auto keys = router->GetKeys(ids);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), ids.size());

  size_t prefetch_rows = 0;
  for (size_t s = 0; s < 3; ++s) {
    for (const auto& entry : dep.key_replica(s, 0).log().entries()) {
      EXPECT_NE(entry.op, AccessOp::kDemandFetch);
      if (entry.op == AccessOp::kPrefetch) {
        ++prefetch_rows;
      }
    }
  }
  EXPECT_EQ(prefetch_rows, ids.size());
}

TEST(BatchedRouterTest, FetchGroupLandsDemandRowBeforeItsPrefetchRows) {
  Deployment dep(ShardedOpts(2));
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(10, 11);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
  }
  std::vector<AuditId> prefetch(ids.begin() + 1, ids.end());
  auto group = router->FetchGroup(ids[0], prefetch);
  ASSERT_TRUE(group.ok());

  // In the demand id's shard, its kDemandFetch row must precede every
  // kPrefetch row of the same batch (server FetchGroup semantics).
  size_t shard = router->ring().ShardFor(ids[0]);
  uint64_t demand_seq = 0;
  std::vector<uint64_t> prefetch_seqs;
  for (const auto& entry : dep.key_replica(shard, 0).log().entries()) {
    if (entry.op == AccessOp::kDemandFetch && entry.audit_id == ids[0]) {
      demand_seq = entry.seq;
    } else if (entry.op == AccessOp::kPrefetch) {
      prefetch_seqs.push_back(entry.seq);
    }
  }
  for (uint64_t seq : prefetch_seqs) {
    EXPECT_LT(demand_seq, seq);
  }
}

TEST(BatchedRouterTest, RevokedDeviceNeverReceivesAKeyThroughTheBatchPath) {
  Deployment dep(ShardedOpts(3));
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(9, 12);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
  }
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(dep.key_replica(s, 0).DisableDevice(dep.device_id()).ok());
  }
  for (const auto& id : ids) {
    EXPECT_FALSE(router->GetKey(id, AccessOp::kDemandFetch).ok());
  }
  // GetKeys drops per-key misses silently; a fully revoked device gets the
  // transport-level denial instead of an empty grant.
  EXPECT_FALSE(router->GetKeys(ids).ok());
  uint64_t negative = 0;
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(dep.key_replica(s, 0).log().Verify().ok());
    negative += dep.key_replica(s, 0).load_stats().negative_hits;
  }
  EXPECT_GE(negative, 1u);
}

TEST(BatchedRouterTest, EnvKnobForcesBatchingOff) {
  // The ablation knob is ShardRouter::Options::batch_fetch.
  DeploymentOptions options = ShardedOpts(2);
  options.router.batch_fetch = false;
  Deployment dep(options);
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);
  EXPECT_FALSE(router->batch_fetch());

  auto ids = RandomIds(6, 13);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
    ASSERT_TRUE(router->GetKey(id, AccessOp::kDemandFetch).ok());
  }
  EXPECT_EQ(router->stats().batch_rpcs, 0u);
}

TEST(BatchedRouterTest, BatchOffSendsOneKeyGetPerItem) {
  // With batching off every router fetch API sends one key.get per item:
  // no key.fetch_group, no key.get_batch, and one typed row per item.
  DeploymentOptions options = ShardedOpts(2);
  options.router.batch_fetch = false;
  Deployment dep(options);
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  // Two keys on each shard.
  std::vector<AuditId> ids;
  size_t per_shard[2] = {0, 0};
  for (const auto& id : RandomIds(32, 14)) {
    size_t shard = router->ring().ShardFor(id);
    if (per_shard[shard] < 2) {
      ++per_shard[shard];
      ids.push_back(id);
      ASSERT_TRUE(router->CreateKey(id).ok());
    }
  }
  ASSERT_EQ(ids.size(), 4u);
  dep.queue().RunUntilIdle();

  auto handled = [&] {
    return dep.key_replica_rpc_server(0, 0).requests_handled() +
           dep.key_replica_rpc_server(1, 0).requests_handled();
  };
  auto rows = [&](AccessOp op) {
    size_t n = 0;
    for (size_t s = 0; s < 2; ++s) {
      for (AccessOp logged : OpsFor(dep.key_replica(s, 0), dep.device_id())) {
        n += logged == op ? 1 : 0;
      }
    }
    return n;
  };

  uint64_t before = handled();
  size_t demand_before = rows(AccessOp::kDemandFetch);
  size_t prefetch_before = rows(AccessOp::kPrefetch);
  auto group = router->FetchGroup(ids[0], {ids[1], ids[2], ids[3]});
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->prefetched.size(), 3u);
  EXPECT_EQ(handled(), before + 4);
  EXPECT_EQ(rows(AccessOp::kDemandFetch), demand_before + 1);
  EXPECT_EQ(rows(AccessOp::kPrefetch), prefetch_before + 3);

  before = handled();
  auto keys = router->GetKeys(ids);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 4u);
  EXPECT_EQ(handled(), before + 4);
  EXPECT_EQ(router->stats().batch_rpcs, 0u);
}

// --- Sharded client key cache vs. the map baseline. --------------------------

// The reference model the seed tree used: a map of expiry deadlines plus a
// hand-maintained size*dt integral. Strict expiry (no refresh), so entries
// die exactly at insert_time + texp.
struct ReferenceCache {
  std::map<AuditId, SimTime> expires;
  double integral = 0;
  SimTime last_change;

  void Advance(SimTime now) {
    // Expire in deadline order, folding each step into the integral.
    for (;;) {
      SimTime earliest;
      const AuditId* victim = nullptr;
      for (const auto& [id, at] : expires) {
        if (victim == nullptr || at < earliest) {
          earliest = at;
          victim = &id;
        }
      }
      if (victim == nullptr || earliest > now) {
        break;
      }
      integral += expires.size() * (earliest - last_change).seconds_f();
      last_change = earliest;
      expires.erase(*victim);
    }
    integral += expires.size() * (now - last_change).seconds_f();
    last_change = now;
  }
  void Insert(const AuditId& id, SimTime now, SimDuration texp) {
    Advance(now);
    expires[id] = now + texp;
  }
  void Erase(const AuditId& id, SimTime now) {
    Advance(now);
    expires.erase(id);
  }
};

TEST(KeyCacheModelTest, ShardedTableMatchesMapBaselineIncludingIntegral) {
  EventQueue queue;
  const SimDuration texp = SimDuration::Seconds(10);
  KeyCache cache(&queue, texp);  // No refresh: strict expiry.
  ReferenceCache reference;
  reference.last_change = queue.Now();
  const SimTime start = queue.Now();

  SimRandom rng(0xD3);
  auto ids = RandomIds(64, 14);
  for (int step = 0; step < 2000; ++step) {
    const AuditId& id = ids[rng.UniformU64(ids.size())];
    double dice = rng.UniformDouble();
    if (dice < 0.45) {
      cache.Insert(id, BytesOf("k"));
      reference.Insert(id, queue.Now(), texp);
    } else if (dice < 0.65) {
      bool hit = cache.Lookup(id).has_value();
      reference.Advance(queue.Now());
      EXPECT_EQ(hit, reference.expires.count(id) > 0) << "step " << step;
    } else if (dice < 0.75) {
      cache.Erase(id);
      reference.Erase(id, queue.Now());
    } else {
      // Odd millisecond steps so we never land exactly on an expiry edge
      // (at the edge the sweep and the reference tie-break differently).
      queue.AdvanceBy(SimDuration::Millis(2 * rng.UniformInt(1, 2000) + 1));
      reference.Advance(queue.Now());
    }
    ASSERT_EQ(cache.size(), reference.expires.size()) << "step " << step;
  }
  queue.AdvanceBy(texp * 2 + SimDuration::Millis(1));
  reference.Advance(queue.Now());
  ASSERT_EQ(cache.size(), 0u);

  // The exposure-window integral (Fig. 11's "average in-memory keys") must
  // match the baseline bookkeeping exactly.
  double elapsed = (queue.Now() - start).seconds_f();
  ASSERT_GT(elapsed, 0);
  EXPECT_NEAR(cache.AverageSizeSince(start), reference.integral / elapsed,
              1e-6);
  EXPECT_GT(cache.sweeps(), 0u);
  EXPECT_GT(cache.expired_swept(), 0u);
}

TEST(KeyCacheModelTest, CurrentKeysStaysSortedLikeTheMapBaseline) {
  EventQueue queue;
  KeyCache cache(&queue, SimDuration::Seconds(100));
  auto ids = RandomIds(50, 15);
  for (const auto& id : ids) {
    cache.Insert(id, BytesOf("k"));
  }
  std::vector<AuditId> current = cache.CurrentKeys();
  ASSERT_EQ(current.size(), ids.size());
  EXPECT_TRUE(std::is_sorted(current.begin(), current.end()));
}

// --- Prefetcher v2. ----------------------------------------------------------

TEST(SequencePrefetchTest, EmitsLearnedSuccessorsOrderedByConfidence) {
  Prefetcher prefetcher(PrefetchPolicy::SequenceHints(3, 2), 0xE1);
  auto ids = RandomIds(4, 16);
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& id : ids) {
      prefetcher.OnAccess(id);
    }
  }
  auto out = prefetcher.OnMiss("/d", ids[0], [] {
    return std::vector<AuditId>{};
  });
  // Fanout 2: the two successors that followed ids[0]... only B followed A
  // directly; the chain emits the confident direct successor first.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], ids[1]);
  EXPECT_LE(out.size(), 2u);
}

TEST(SequencePrefetchTest, ConfidenceGateHoldsBackRareTransitions) {
  Prefetcher prefetcher(PrefetchPolicy::SequenceHints(3, 4), 0xE2);
  auto ids = RandomIds(4, 17);
  for (int pass = 0; pass < 2; ++pass) {  // Below the 3-observation gate.
    for (const auto& id : ids) {
      prefetcher.OnAccess(id);
    }
  }
  EXPECT_TRUE(prefetcher
                  .OnMiss("/d", ids[0], [] { return std::vector<AuditId>{}; })
                  .empty());
  EXPECT_EQ(prefetcher.keys_prefetched(), 0u);
}

TEST(SequencePrefetchTest, EstablishedTransitionsSurviveChurn) {
  Prefetcher prefetcher(PrefetchPolicy::SequenceHints(3, 2), 0xE3);
  auto ids = RandomIds(32, 18);
  const AuditId& a = ids[0];
  const AuditId& b = ids[1];
  for (int i = 0; i < 5; ++i) {
    prefetcher.OnAccess(a);
    prefetcher.OnAccess(b);
  }
  // A storm of one-off followers must not evict the established a -> b.
  for (size_t i = 2; i < ids.size(); ++i) {
    prefetcher.OnAccess(a);
    prefetcher.OnAccess(ids[i]);
  }
  auto out = prefetcher.OnMiss("/d", a, [] {
    return std::vector<AuditId>{};
  });
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], b);
}

TEST(SequencePrefetchTest, LearningTableIsLruBounded) {
  PrefetchPolicy policy = PrefetchPolicy::SequenceHints(3, 4);
  policy.max_tracked_files = 8;
  Prefetcher prefetcher(policy, 0xE4);
  for (const auto& id : RandomIds(100, 19)) {
    prefetcher.OnAccess(id);
  }
  EXPECT_LE(prefetcher.tracked_files(), 8u);
}

}  // namespace
}  // namespace keypad
