// Replicated key shards (DESIGN.md §9): lease-based failover, client
// redirect-following, audit-chain reconciliation after a partitioned
// primary loses the leadership contest, and determinism of the failover
// timeline. The invariant under test throughout: a client-acknowledged
// audit record may end up duplicated, but is never lost.
//
// Lease renewals (DESIGN.md §17): ticks keep the phase of the start or
// promotion instant, a renewal never stalls foreground work, promotion
// instants follow the closed form, and a healthy deployment schedules
// nothing while idle.
//
// NOTE: a crashed or partitioned replica keeps its leader sending explicit
// renewals every kRenewInterval, so the failover tests pump with AdvanceBy
// rather than RunUntilIdle.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

DeploymentOptions ReplicatedOpts(int replicas) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.key_replicas = replicas;
  // Short attempt ladders so a call into a dead replica fails over well
  // inside the stub's failover budget.
  options.rpc.timeout = SimDuration::Seconds(1);
  options.rpc.retry.max_attempts = 2;
  return options;
}

bool ChainHasCreate(const AuditLog& log, const AuditId& id) {
  for (const auto& entry : log.entries()) {
    if (entry.op == AccessOp::kCreate && entry.audit_id == id) {
      return true;
    }
  }
  return false;
}

bool OrphansHaveCreate(const ReplicaSet& set, const AuditId& id) {
  for (const auto& orphan : set.orphaned()) {
    if (orphan.entry.op == AccessOp::kCreate && orphan.entry.audit_id == id) {
      return true;
    }
  }
  return false;
}

TEST(ReplicaFailoverTest, LeaderCrashPromotesBackupAndClientFollows) {
  Deployment dep(ReplicatedOpts(3));
  auto& fs = dep.fs();
  ReplicaSet* set = dep.replica_set(0);
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->size(), 3u);
  EXPECT_EQ(set->current_leader(), 0u);

  // Normal operation: every acked create is synchronously on all replicas.
  std::vector<AuditId> pre_ids;
  for (int i = 0; i < 6; ++i) {
    std::string path = "/pre" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.WriteAll(path, BytesOf("x")).ok());
    pre_ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }
  size_t chain_size = dep.key_replica(0, 0).log().size();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(dep.key_replica(0, r).log().Verify().ok()) << "replica " << r;
    EXPECT_EQ(dep.key_replica(0, r).log().size(), chain_size)
        << "replica " << r;
  }

  // Kill the leader. The lowest-index live backup promotes after lease
  // expiry plus its seniority slot.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  EXPECT_EQ(set->current_leader(), 1u);
  EXPECT_TRUE(set->is_leader(1));
  EXPECT_GE(set->stats().promotions, 1u);

  // The client's next operation fails over and lands on the new leader.
  ASSERT_TRUE(fs.Create("/post0").ok());
  KeyServiceClient& stub = dep.key_stub(0);
  EXPECT_GE(stub.failovers() + stub.redirects(), 1u);
  EXPECT_EQ(stub.leader_hint(), set->current_leader());

  // No acked record was lost to the crash: the new leader's chain carries
  // every pre-crash create.
  const AuditLog& leader_log = dep.key_replica(0, 1).log();
  for (const auto& id : pre_ids) {
    EXPECT_TRUE(ChainHasCreate(leader_log, id)) << id.ToHex();
  }

  // The ex-primary restarts and rejoins as a backup.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  EXPECT_FALSE(set->is_leader(0));
  EXPECT_EQ(set->current_leader(), 1u);
  EXPECT_GE(set->stats().rejoins, 1u);

  // New work replicates to it again; all chains reconverge byte-for-byte.
  ASSERT_TRUE(fs.Create("/post1").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  const AuditLog& authority = dep.key_replica(0, set->current_leader()).log();
  for (size_t r = 0; r < 3; ++r) {
    const AuditLog& log = dep.key_replica(0, r).log();
    EXPECT_TRUE(log.Verify().ok()) << "replica " << r;
    ASSERT_EQ(log.size(), authority.size()) << "replica " << r;
    EXPECT_EQ(log.entries().back().entry_hash,
              authority.entries().back().entry_hash)
        << "replica " << r;
  }
}

TEST(ReplicaFailoverTest, StaleStubFollowsNotLeaderRedirect) {
  Deployment dep(ReplicatedOpts(2));
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Create("/seed").ok());
  ReplicaSet* set = dep.replica_set(0);
  ASSERT_NE(set, nullptr);

  // Fail leadership over to replica 1, then bring replica 0 back as a
  // live backup.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_EQ(set->current_leader(), 1u);
  ASSERT_FALSE(set->is_leader(0));

  // A fresh stub starts with a stale leader hint (replica 0). The backup's
  // serve gate answers NOT_LEADER:1 and the stub follows the redirect
  // instead of burning a timeout.
  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  ASSERT_TRUE(clients.ok());
  SecureRandom rng(19);
  AuditId id = AuditId::Random(rng);
  ASSERT_TRUE(clients->key->CreateKey(id).ok());
  EXPECT_GE(clients->key->redirects(), 1u);
  EXPECT_EQ(clients->key->leader_hint(), 1u);
}

TEST(ReplicaFailoverTest, PartitionedPrimaryOrphansSurfaceToForensics) {
  DeploymentOptions options = ReplicatedOpts(2);
  // Held responses wait out one backup kAckTimeout when the mesh first
  // partitions; give each attempt room for that.
  options.rpc.timeout = SimDuration::Seconds(3);
  Deployment dep(options);
  auto& fs = dep.fs();
  ReplicaSet* set = dep.replica_set(0);
  ASSERT_NE(set, nullptr);
  SimTime t_loss = dep.queue().Now();

  std::vector<AuditId> pre_ids;
  for (int i = 0; i < 4; ++i) {
    std::string path = "/pre" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    pre_ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }

  // Partition the primary off the replication mesh. Its client link stays
  // up, so it keeps serving: acked records now live on replica 0 only.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kPartition, 0, 0)).ok());
  std::vector<AuditId> partition_ids;
  for (int i = 0; i < 3; ++i) {
    std::string path = "/part" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    partition_ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }
  // Meanwhile the isolated backup's lease lapsed and it promoted itself:
  // split brain, exactly what reconciliation exists for.
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  EXPECT_GE(set->stats().promotions, 1u);

  // The primary dies before the partition heals — its sealed, acked,
  // never-shipped suffix exists nowhere else. The client fails over.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0, 0)).ok());
  std::vector<AuditId> post_ids;
  for (int i = 0; i < 4; ++i) {
    std::string path = "/post" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    post_ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }
  ASSERT_EQ(set->current_leader(), 1u);

  // Heal and restart: the ex-primary finds replica 1 leading, detects the
  // chain divergence, surfaces its surplus entries as orphans, and rejoins
  // as a backup.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kHeal, 0, 0)).ok());
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  EXPECT_FALSE(set->is_leader(0));
  EXPECT_GE(set->stats().rejoins, 1u);
  EXPECT_GE(set->stats().orphaned_entries, partition_ids.size());

  // Duplicated-but-never-lost: every acked create is in the authoritative
  // chain or the orphan list.
  const AuditLog& authority = dep.key_replica(0, set->current_leader()).log();
  for (const auto& id : pre_ids) {
    EXPECT_TRUE(ChainHasCreate(authority, id)) << id.ToHex();
  }
  for (const auto& id : post_ids) {
    EXPECT_TRUE(ChainHasCreate(authority, id)) << id.ToHex();
  }
  for (const auto& id : partition_ids) {
    EXPECT_TRUE(ChainHasCreate(authority, id) || OrphansHaveCreate(*set, id))
        << id.ToHex();
  }

  // Both live chains verify, and the forensic report enumerates the
  // orphaned records instead of dropping them.
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(dep.key_replica(0, r).log().Verify().ok()) << "replica " << r;
  }
  auto report = dep.auditor().BuildReport(dep.device_id(), t_loss,
                                          dep.options().config.texp);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->replica_logs_verified);
  EXPECT_GE(report->duplicate_records + report->orphaned_records,
            partition_ids.size());
}

struct ScenarioDigest {
  std::string timeline;
  size_t leader = 0;
  uint64_t chain_size = 0;
  Bytes chain_tip;

  bool operator==(const ScenarioDigest& other) const {
    return timeline == other.timeline && leader == other.leader &&
           chain_size == other.chain_size && chain_tip == other.chain_tip;
  }
};

ScenarioDigest RunCrashScenario(uint64_t seed) {
  ResetRpcClientIdsForTesting();
  DeploymentOptions options = ReplicatedOpts(3);
  options.seed = seed;
  Deployment dep(options);
  auto& fs = dep.fs();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs.Create("/a" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs.Create("/b" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs.Create("/c" + std::to_string(i)).ok());
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(1));

  ReplicaSet* set = dep.replica_set(0);
  ScenarioDigest digest;
  for (const auto& event : set->timeline()) {
    digest.timeline += std::to_string(event.at.nanos()) + "|" + event.what +
                       "|" + std::to_string(event.replica) + "|" +
                       std::to_string(event.epoch) + "\n";
  }
  digest.leader = set->current_leader();
  const AuditLog& log = dep.key_replica(0, digest.leader).log();
  digest.chain_size = log.size();
  digest.chain_tip = log.entries().back().entry_hash;
  return digest;
}

TEST(ReplicaFailoverTest, FailoverTimelineIsDeterministic) {
  ScenarioDigest a = RunCrashScenario(7);
  ScenarioDigest b = RunCrashScenario(7);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_TRUE(a == b);
}

// --- Lease renewals (DESIGN.md §17). ---------------------------------------

// The renewal tick at or before `t` on the schedule anchored at `anchor`.
SimTime TickAtOrBefore(SimTime anchor, SimDuration interval, SimTime t) {
  return anchor + interval * ((t - anchor).nanos() / interval.nanos());
}

std::vector<FailoverEvent> EventsSince(
    const std::vector<FailoverEvent>& timeline, size_t from,
    const std::string& what) {
  std::vector<FailoverEvent> out;
  for (size_t i = from; i < timeline.size(); ++i) {
    if (timeline[i].what == what) {
      out.push_back(timeline[i]);
    }
  }
  return out;
}

TEST(ReplicaFailoverTest, RenewalTickDoesNotStallInFlightFetch) {
  Deployment dep(ReplicatedOpts(3));
  ReplicaSet* set = dep.replica_set(0);
  ASSERT_NE(set, nullptr);
  const SimDuration interval = kRenewInterval;
  const SimTime start = set->timeline().front().at;
  // A crashed backup keeps its pair off the quiescent path: the leader
  // sends it an explicit renewal on every tick.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0, 2)).ok());
  KeyServiceClient& stub = dep.key_stub(0);
  SecureRandom rng(5);
  AuditId id = AuditId::Random(rng);
  // The create waits out one ack timeout and drops replica 2 from the
  // synchronous set; the first fetch warms the hot-key cache.
  ASSERT_TRUE(stub.CreateKey(id).ok());
  ASSERT_TRUE(stub.GetKey(id).ok());

  auto fetch_latency = [&](SimTime start_at) {
    dep.queue().RunUntil(start_at);
    const SimTime t0 = dep.queue().Now();
    EXPECT_TRUE(stub.GetKey(id).ok());
    return dep.queue().Now() - t0;
  };
  const SimTime tick =
      TickAtOrBefore(start, interval, dep.queue().Now()) + interval * 4;
  const SimDuration away = fetch_latency(tick + interval / 4);
  ASSERT_GT(away, SimDuration());
  ASSERT_LT(away, interval / 4);
  // Back-to-back fetches across more than one renew interval: some fetch
  // is in flight whenever a tick fires, and every one must finish exactly
  // as fast.
  int slower = 0;
  dep.queue().RunUntil(tick + interval);
  while (dep.queue().Now() < tick + interval * 2 + away) {
    if (fetch_latency(dep.queue().Now()) != away) {
      ++slower;
    }
  }
  EXPECT_EQ(slower, 0);
}

TEST(ReplicaFailoverTest, RenewalTicksKeepStartAndPromotionPhase) {
  Deployment dep(ReplicatedOpts(3));
  ReplicaSet* set = dep.replica_set(0);
  ASSERT_NE(set, nullptr);
  const SimDuration one_way = LanProfile().OneWay();
  const SimDuration interval = kRenewInterval;
  const SimTime start = set->timeline().front().at;

  // After an idle hour a backup's grant still dates from a tick at an
  // exact multiple of kRenewInterval after the start (a 500.7 ms period
  // would have drifted by 5 s).
  const SimTime t1 = start + SimDuration::Hours(1) + SimDuration::Millis(123);
  dep.queue().RunUntil(t1);
  for (size_t backup : {1u, 2u}) {
    EXPECT_EQ(set->lease_expiry(backup),
              TickAtOrBefore(start, interval, t1 - one_way) + one_way +
                  kLeaseDuration)
        << "backup " << backup;
  }

  // Kill the leader between ticks: replica 1 promotes at the closed-form
  // instant, and the new leader's schedule starts at its promotion.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  std::vector<FailoverEvent> promotions =
      EventsSince(set->timeline(), 0, "promote");
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].replica, 1u);
  const SimTime promoted = promotions[0].at;
  EXPECT_EQ(promoted, TickAtOrBefore(start, interval, t1) + one_way +
                          kLeaseDuration + kPromoteStagger);

  const SimTime t2 =
      promoted + SimDuration::Minutes(10) + SimDuration::Millis(321);
  dep.queue().RunUntil(t2);
  EXPECT_EQ(set->lease_expiry(2),
            TickAtOrBefore(promoted, interval, t2 - one_way) + one_way +
                kLeaseDuration);
}

// The closed-form schedules run unchanged on key shard 0 and on the
// metadata tier: a fault names its tier, and these read the tier's set.
const std::vector<FailoverEvent>& Timeline(Deployment& dep, Fault::Tier tier) {
  return tier == Fault::kKey ? dep.replica_set(0)->timeline()
                             : dep.meta_replica_set()->timeline();
}

size_t CurrentLeader(Deployment& dep, Fault::Tier tier) {
  return tier == Fault::kKey ? dep.replica_set(0)->current_leader()
                             : dep.meta_replica_set()->current_leader();
}

enum class Scenario { kLeaderCrash, kLeaderPartition, kBackupCrashRestart };

// One seeded single-fault schedule on a fresh R = 3 tier: 10 to 30 idle
// minutes, then the fault at an instant off the tick grid — for every
// third seed inside the one-way window after a tick, so that tick's
// renewal is still in flight when the fault lands.
void RunSingleFault(uint64_t seed, Fault::Tier tier, Scenario scenario) {
  ResetRpcClientIdsForTesting();
  const bool meta_tier = tier == Fault::kMeta;
  DeploymentOptions options = ReplicatedOpts(meta_tier ? 1 : 3);
  options.meta_replicas = meta_tier ? 3 : 1;
  options.seed = seed;
  Deployment dep(options);
  auto inject = [&](Fault::Verb verb, size_t replica) {
    ASSERT_TRUE(dep.Inject({verb, tier, /*shard=*/0, replica}).ok());
  };
  const SimDuration one_way = LanProfile().OneWay();
  const SimTime start = Timeline(dep, tier).front().at;
  SCOPED_TRACE("seed " + std::to_string(seed) + (meta_tier ? " meta" : " key") +
               " scenario " + std::to_string(static_cast<int>(scenario)));

  SimRandom rng(seed);
  SimTime fault_at =
      start + SimDuration::Minutes(10) +
      SimDuration(static_cast<int64_t>(
          rng.UniformU64(SimDuration::Minutes(20).nanos())));
  SimTime tick = TickAtOrBefore(start, kRenewInterval, fault_at);
  if (seed % 3 == 0) {
    fault_at = tick + SimDuration(static_cast<int64_t>(
                          1 + rng.UniformU64(one_way.nanos() - 1)));
  } else if (fault_at == tick) {
    fault_at += SimDuration::Millis(1);
  }
  dep.queue().RunUntil(fault_at);
  const size_t seen = Timeline(dep, tier).size();

  if (scenario == Scenario::kBackupCrashRestart) {
    const size_t victim = 1 + seed % 2;
    inject(Fault::kCrash, victim);
    dep.queue().AdvanceBy(SimDuration::Seconds(5));
    inject(Fault::kRestart, victim);
    dep.queue().AdvanceBy(SimDuration::Seconds(5));
    EXPECT_TRUE(EventsSince(Timeline(dep, tier), seen, "promote").empty());
    std::vector<FailoverEvent> rejoins =
        EventsSince(Timeline(dep, tier), seen, "rejoin");
    ASSERT_EQ(rejoins.size(), 1u);
    EXPECT_EQ(rejoins[0].replica, victim);
    EXPECT_EQ(CurrentLeader(dep, tier), 0u);
    return;
  }
  inject(scenario == Scenario::kLeaderCrash ? Fault::kCrash : Fault::kPartition,
         0);
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  std::vector<FailoverEvent> promotions =
      EventsSince(Timeline(dep, tier), seen, "promote");
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].replica, 1u);
  EXPECT_EQ(promotions[0].at,
            tick + one_way + kLeaseDuration + kPromoteStagger * 1);
}

TEST(ReplicaFailoverTest, SingleFaultPromotionsFollowClosedForm) {
  for (Fault::Tier tier : {Fault::kKey, Fault::kMeta}) {
    for (Scenario scenario : {Scenario::kLeaderCrash,
                              Scenario::kLeaderPartition,
                              Scenario::kBackupCrashRestart}) {
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        RunSingleFault(seed, tier, scenario);
      }
    }
  }
}

TEST(ReplicaFailoverTest, IdleHourOfHealthyDeploymentIsQuiescent) {
  DeploymentOptions options = ReplicatedOpts(3);
  options.key_shards = 2;
  options.meta_replicas = 3;
  Deployment dep(options);
  ASSERT_TRUE(dep.fs().Create("/warm").ok());
  ASSERT_TRUE(dep.fs().WriteAll("/warm", BytesOf("x")).ok());
  dep.queue().AdvanceBy(SimDuration::Minutes(10));

  const uint64_t before = dep.queue().executed_count();
  dep.queue().AdvanceBy(SimDuration::Hours(1));
  EXPECT_LE(dep.queue().executed_count() - before, 20u);
  dep.queue().RunUntilIdle();
  EXPECT_EQ(dep.queue().pending_count(), 0u);

  for (size_t shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(dep.replica_set(shard)->current_leader(), 0u);
    EXPECT_EQ(dep.replica_set(shard)->stats().promotions, 0u);
  }
  EXPECT_EQ(dep.meta_replica_set()->stats().promotions, 0u);
  // Still a working replicated tier afterwards.
  ASSERT_TRUE(dep.fs().Create("/after").ok());
  EXPECT_TRUE(dep.fs().ReadAll("/warm").ok());
}

}  // namespace
}  // namespace keypad
