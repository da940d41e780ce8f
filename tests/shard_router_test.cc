// Tests for the sharded key tier (DESIGN.md §8): consistent-hash ring
// determinism, cross-shard scatter-gather merge ordering, group-commit
// audit logging across crash/restart, single-flight coalescing, the
// incremental audit cursor, and the prefetcher's bounded miss table.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/keypad/prefetcher.h"
#include "src/keyservice/shard_ring.h"
#include "src/keyservice/shard_router.h"
#include "src/rpc/brownout.h"

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

// --- Ring placement. --------------------------------------------------------

TEST(ShardRingTest, SameSeedSamePlacement) {
  ShardRing a(4, /*seed=*/0x5ead);
  ShardRing b(4, /*seed=*/0x5ead);
  for (const auto& id : RandomIds(500, 7)) {
    EXPECT_EQ(a.ShardFor(id), b.ShardFor(id));
  }
}

TEST(ShardRingTest, DifferentSeedMovesKeys) {
  ShardRing a(4, /*seed=*/1);
  ShardRing b(4, /*seed=*/2);
  size_t moved = 0;
  auto ids = RandomIds(500, 7);
  for (const auto& id : ids) {
    moved += a.ShardFor(id) != b.ShardFor(id) ? 1 : 0;
  }
  // ~3/4 of keys should land elsewhere under an independent ring.
  EXPECT_GT(moved, ids.size() / 2);
}

TEST(ShardRingTest, PlacementIsRoughlyBalanced) {
  ShardRing ring(4, /*seed=*/0x5ead);
  std::vector<size_t> counts(4, 0);
  auto ids = RandomIds(4000, 11);
  for (const auto& id : ids) {
    ASSERT_LT(ring.ShardFor(id), 4u);
    ++counts[ring.ShardFor(id)];
  }
  for (size_t shard = 0; shard < counts.size(); ++shard) {
    // Each shard should own a non-degenerate slice (expected 25%; accept
    // anything above 10% — vnode placement is random but seeded).
    EXPECT_GT(counts[shard], ids.size() / 10) << "shard " << shard;
  }
}

// --- Deployment-level scatter-gather. ---------------------------------------

DeploymentOptions ShardedOpts(int shards) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.key_shards = shards;
  return options;
}

TEST(ShardRouterTest, CrossShardGetKeysMergesInCallerOrder) {
  Deployment dep(ShardedOpts(3));
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(24, 21);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
  }
  // The batch must actually span shards for the test to mean anything.
  std::set<size_t> shards_hit;
  for (const auto& id : ids) {
    shards_hit.insert(router->ring().ShardFor(id));
  }
  ASSERT_GT(shards_hit.size(), 1u);

  auto keys = router->GetKeys(ids);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*keys)[i].first, ids[i]) << "position " << i;
    EXPECT_FALSE((*keys)[i].second.empty());
  }
  EXPECT_GE(router->stats().scatter_batches, 1u);
  EXPECT_GE(router->stats().subrequests, shards_hit.size());
}

TEST(ShardRouterTest, CrossShardFetchGroupMergesPrefetchOrder) {
  Deployment dep(ShardedOpts(3));
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(16, 33);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
  }
  const AuditId demand = ids[0];
  std::vector<AuditId> prefetch(ids.begin() + 1, ids.end());

  auto group = router->FetchGroup(demand, prefetch);
  ASSERT_TRUE(group.ok());
  EXPECT_FALSE(group->demand_key.empty());
  ASSERT_EQ(group->prefetched.size(), prefetch.size());
  for (size_t i = 0; i < prefetch.size(); ++i) {
    EXPECT_EQ(group->prefetched[i].first, prefetch[i]) << "position " << i;
  }

  // Every shard that served a slice must have logged those fetches: the
  // scattered audit trail covers exactly the keys that left the tier.
  size_t logged = 0;
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    for (const auto& entry : dep.key_shard(s).log().entries()) {
      if (entry.op == AccessOp::kDemandFetch ||
          entry.op == AccessOp::kPrefetch) {
        ++logged;
      }
    }
  }
  EXPECT_EQ(logged, ids.size());
}

TEST(ShardRouterTest, BlockingFetchFeedsBrownoutWithRoutingOff) {
  // With single-flight and batching both off, a blocking GetKey is still
  // its async twin awaited, so a REJECTED reply reaches the brownout
  // controller exactly as it does on the async path.
  EventQueue queue;
  NetworkLink link(&queue, LanProfile());
  RpcServer server(&queue, SimDuration::Micros(150));
  server.RegisterMethod("key.get", [](const WireValue::Array&) {
    return Result<WireValue>(
        ResourceExhaustedError("rpc: REJECTED overload (demand)"));
  });
  RpcClient rpc(&queue, &link, &server);
  KeyServiceClient stub(&rpc, "laptop", Bytes(32, 7));
  BrownoutOptions brownout_options;
  brownout_options.enabled = true;
  BrownoutController brownout(brownout_options);
  ShardRouter::Options options;
  options.single_flight = false;
  options.batch_fetch = false;
  options.brownout = &brownout;
  ShardRouter router(&queue, {&stub}, options);

  auto key = router.GetKey(RandomIds(1, 5)[0]);
  ASSERT_FALSE(key.ok());
  EXPECT_TRUE(IsRejectedByServer(key.status()));
  EXPECT_EQ(brownout.stats().signals, 1u);
}

TEST(ShardRouterTest, SingleFlightCoalescesConcurrentFetches) {
  Deployment dep(ShardedOpts(2));
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(1, 55);
  ASSERT_TRUE(router->CreateKey(ids[0]).ok());
  size_t owner = router->ring().ShardFor(ids[0]);
  uint64_t handled_before = dep.key_shard_rpc_server(owner).requests_handled();

  constexpr int kWaiters = 6;
  int completed = 0;
  Bytes first_key;
  for (int i = 0; i < kWaiters; ++i) {
    router->GetKeyAsync(ids[0], AccessOp::kDemandFetch,
                        [&](Result<Bytes> key) {
                          ASSERT_TRUE(key.ok());
                          if (completed++ == 0) {
                            first_key = *key;
                          } else {
                            EXPECT_EQ(*key, first_key);
                          }
                        });
  }
  dep.queue().RunUntilIdle();

  EXPECT_EQ(completed, kWaiters);
  EXPECT_EQ(router->stats().single_flight_leaders, 1u);
  EXPECT_EQ(router->stats().single_flight_joins,
            static_cast<uint64_t>(kWaiters - 1));
  // One RPC reached the owning shard, and the audit log records one fetch —
  // the key left the service once.
  EXPECT_EQ(dep.key_shard_rpc_server(owner).requests_handled(),
            handled_before + 1);
  size_t fetches = 0;
  for (const auto& entry : dep.key_shard(owner).log().entries()) {
    if (entry.op == AccessOp::kDemandFetch) {
      ++fetches;
    }
  }
  EXPECT_EQ(fetches, 1u);
}

TEST(ShardRouterTest, SingleFlightSurvivesMidFlightFailover) {
  // Six waiters coalesce onto one in-flight fetch; the owning shard's
  // primary dies while that flight is on the wire. The leader flight must
  // fail over to the promoted backup and complete every waiter — a crash
  // must never strand the coalesced followers.
  DeploymentOptions options = ShardedOpts(2);
  options.key_replicas = 2;
  options.rpc.timeout = SimDuration::Seconds(1);
  options.rpc.retry.max_attempts = 2;
  Deployment dep(options);
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(1, 55);
  ASSERT_TRUE(router->CreateKey(ids[0]).ok());
  size_t owner = router->ring().ShardFor(ids[0]);

  constexpr int kWaiters = 6;
  int completed = 0;
  Bytes first_key;
  for (int i = 0; i < kWaiters; ++i) {
    router->GetKeyAsync(ids[0], AccessOp::kDemandFetch,
                        [&](Result<Bytes> key) {
                          ASSERT_TRUE(key.ok());
                          if (completed++ == 0) {
                            first_key = *key;
                          } else {
                            EXPECT_EQ(*key, first_key);
                          }
                        });
  }
  // Virtual time has not moved, so the flight is still in the air when the
  // owner's leader dies. (The new leader keeps sending the crashed replica
  // explicit lease renewals, so pump with AdvanceBy, not RunUntilIdle.)
  dep.CrashKeyShard(owner);
  dep.queue().AdvanceBy(SimDuration::Seconds(12));

  EXPECT_EQ(completed, kWaiters);
  EXPECT_EQ(router->stats().single_flight_leaders, 1u);
  EXPECT_EQ(router->stats().single_flight_joins,
            static_cast<uint64_t>(kWaiters - 1));
  EXPECT_GE(dep.key_stub(owner).failovers() + dep.key_stub(owner).redirects(),
            1u);
  // The promoted backup (replicated at create time) served the key, and its
  // chain logged the fetch.
  ReplicaSet* set = dep.replica_set(owner);
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->current_leader(), 1u);
  size_t fetches = 0;
  for (const auto& entry : dep.key_replica(owner, 1).log().entries()) {
    if (entry.op == AccessOp::kDemandFetch && entry.audit_id == ids[0]) {
      ++fetches;
    }
  }
  EXPECT_EQ(fetches, 1u);
}

// --- Group commit. ----------------------------------------------------------

TEST(GroupCommitTest, BatchedFetchSealsOneGroup) {
  DeploymentOptions options = ShardedOpts(1);
  Deployment dep(options);

  auto ids = RandomIds(8, 77);
  for (const auto& id : ids) {
    ASSERT_TRUE(dep.key_client().CreateKey(id).ok());
  }
  KeyService::LoadStats before = dep.key_service().load_stats();
  auto keys = dep.key_client().GetKeys(ids);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), ids.size());

  KeyService::LoadStats after = dep.key_service().load_stats();
  // One RPC batch = one commit group covering all eight fetch records.
  EXPECT_EQ(after.commit_groups, before.commit_groups + 1);
  EXPECT_EQ(after.log_entries, before.log_entries + ids.size());
  EXPECT_GE(after.max_group_size, ids.size());
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
}

TEST(GroupCommitTest, CommitWindowGroupsBackToBackRequests) {
  DeploymentOptions options = ShardedOpts(1);
  options.key_service.commit_window = SimDuration::Millis(2);
  Deployment dep(options);

  auto ids = RandomIds(6, 91);
  // Creations ride commit windows too; settle them first.
  for (const auto& id : ids) {
    ASSERT_TRUE(dep.key_client().CreateKey(id).ok());
  }
  KeyService::LoadStats before = dep.key_service().load_stats();

  // Fire six independent fetches into the same window without pumping the
  // clock between them.
  int completed = 0;
  for (const auto& id : ids) {
    dep.key_client().GetKeyAsync(id, AccessOp::kDemandFetch,
                                       [&](Result<Bytes> key) {
                                         ASSERT_TRUE(key.ok());
                                         ++completed;
                                       });
  }
  dep.queue().RunUntilIdle();
  ASSERT_EQ(completed, static_cast<int>(ids.size()));

  KeyService::LoadStats after = dep.key_service().load_stats();
  EXPECT_EQ(after.log_entries, before.log_entries + ids.size());
  // The window must have amortized several appends per seal.
  EXPECT_LT(after.commit_groups - before.commit_groups, ids.size());
  EXPECT_GE(after.window_flushes, before.window_flushes + 1);
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
}

TEST(GroupCommitTest, PerShardChainsVerifyAcrossCrashRestart) {
  DeploymentOptions options = ShardedOpts(2);
  options.key_service.commit_window = SimDuration::Millis(1);
  Deployment dep(options);
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);

  auto ids = RandomIds(12, 13);
  for (const auto& id : ids) {
    ASSERT_TRUE(router->CreateKey(id).ok());
  }
  ASSERT_TRUE(router->GetKeys(ids).ok());

  // Crash shard 0 mid-deployment (any staged-but-unsealed window entries
  // die with it), restart it from its durable snapshot, then keep going.
  dep.CrashKeyShard(0);
  dep.queue().AdvanceBy(SimDuration::Millis(50));
  dep.RestartKeyShard(0);

  auto keys = router->GetKeys(ids);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), ids.size());

  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    EXPECT_TRUE(dep.key_shard(s).log().Verify().ok()) << "shard " << s;
    EXPECT_GT(dep.key_shard(s).log().size(), 0u) << "shard " << s;
  }
}

// --- Incremental audit cursor. ----------------------------------------------

TEST(AuditCursorTest, EntriesAfterSeqReturnsSuffix) {
  DeploymentOptions options = ShardedOpts(1);
  Deployment dep(options);
  auto ids = RandomIds(5, 17);
  for (const auto& id : ids) {
    ASSERT_TRUE(dep.key_client().CreateKey(id).ok());
  }
  const AuditLog& log = dep.key_service().log();
  ASSERT_EQ(log.size(), ids.size());

  auto suffix = log.EntriesAfterSeq(3);
  ASSERT_EQ(suffix.size(), log.size() - 3);
  for (size_t i = 0; i < suffix.size(); ++i) {
    EXPECT_EQ(suffix[i].seq, 3 + i);
  }
  EXPECT_TRUE(log.EntriesAfterSeq(log.size()).empty());
  EXPECT_EQ(log.EntriesAfterSeq(0).size(), log.size());
}

TEST(AuditCursorTest, RemoteAuditorAuditsIncrementally) {
  DeploymentOptions options = ShardedOpts(1);
  Deployment dep(options);
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/a").ok());
  ASSERT_TRUE(fs.WriteAll("/d/a", BytesOf("x")).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(5));

  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  ASSERT_TRUE(clients.ok());
  RemoteAuditor auditor(clients->key_rpc.get(), clients->meta_rpc.get(),
                        creds->device_id, creds->key_secret,
                        creds->meta_secret);

  SimTime t_loss = dep.queue().Now();
  auto first = auditor.BuildReport(t_loss, dep.options().config.texp);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->key_log_verified);
  // The cursor now covers the whole committed log.
  EXPECT_EQ(auditor.cursor(), dep.key_service().log().size());
  size_t cached_after_first = auditor.cached_entries();
  EXPECT_GT(cached_after_first, 0u);

  // No new activity: the follow-up audit moves nothing.
  auto second = auditor.BuildReport(t_loss, dep.options().config.texp);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(auditor.cached_entries(), cached_after_first);
  EXPECT_EQ(second->compromised.size(), first->compromised.size());

  // New accesses: the third audit fetches only the suffix, and sees them.
  // Push past Texp first so the cached key expires and the read hits the
  // service again (a cache hit would be invisible to the log, correctly).
  dep.queue().AdvanceBy(dep.options().config.texp +
                        SimDuration::Seconds(10));
  ASSERT_TRUE(fs.ReadAll("/d/a").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  uint64_t cursor_before = auditor.cursor();
  auto third = auditor.BuildReport(dep.queue().Now(),
                                   dep.options().config.texp);
  ASSERT_TRUE(third.ok());
  EXPECT_GT(auditor.cursor(), cursor_before);
  EXPECT_GT(auditor.cached_entries(), cached_after_first);
}

// --- Prefetcher miss-table cap. ---------------------------------------------

TEST(PrefetcherCapTest, MissTableIsBoundedWithLruEviction) {
  PrefetchPolicy policy = PrefetchPolicy::FullDirOnNthMiss(3);
  policy.max_tracked_dirs = 4;
  Prefetcher prefetcher(policy, /*rng_seed=*/1);
  SecureRandom rng(3);
  auto list_none = [] { return std::vector<AuditId>(); };

  for (int d = 0; d < 100; ++d) {
    std::string dir = "/dir" + std::to_string(d);
    prefetcher.OnMiss(dir, AuditId::Random(rng), list_none);
    EXPECT_LE(prefetcher.tracked_dirs(), 4u);
  }
  EXPECT_EQ(prefetcher.tracked_dirs(), 4u);

  // A hot directory keeps its counter alive across unrelated misses: two
  // misses, then fresh dirs touch the table, then the third miss fires.
  prefetcher.OnMiss("/hot", AuditId::Random(rng), list_none);
  prefetcher.OnMiss("/hot", AuditId::Random(rng), list_none);
  for (int d = 0; d < 3; ++d) {
    prefetcher.OnMiss("/cold" + std::to_string(d), AuditId::Random(rng),
                      list_none);
    prefetcher.OnMiss("/hot", AuditId::Random(rng), list_none);
  }
  // /hot reached its third miss within the window above, so a prefetch
  // batch was attempted (siblings list is empty, so just check it counted).
  EXPECT_LE(prefetcher.tracked_dirs(), 4u);

  // An evicted directory restarts from zero: with cap 1, every new dir
  // evicts the last, so no dir ever reaches the trigger.
  policy.max_tracked_dirs = 1;
  Prefetcher tiny(policy, /*rng_seed=*/2);
  for (int i = 0; i < 10; ++i) {
    tiny.OnMiss(i % 2 == 0 ? "/a" : "/b", AuditId::Random(rng), list_none);
  }
  EXPECT_EQ(tiny.tracked_dirs(), 1u);
  EXPECT_EQ(tiny.prefetch_batches(), 0u);
}

}  // namespace
}  // namespace keypad
