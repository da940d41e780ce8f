// Replicated metadata tier (DESIGN.md §10): the second service hosted on
// the generic replication substrate. Lease-based failover of the PKG,
// client redirect-following, at-most-once binding registration across a
// leader change, and determinism of the failover timeline. The invariant
// under test throughout: a client-acknowledged namespace record may end up
// duplicated, but is never lost — and the IBE unlock key a promoted backup
// mints is byte-identical to the old leader's (shared-HSM master secret).
//
// NOTE: a healthy replica set schedules no lease renewals (DESIGN.md §17),
// but a crashed or partitioned replica keeps its leader sending explicit
// renewals every renew_interval, so these tests pump with AdvanceBy rather
// than RunUntilIdle.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/keypad/deployment.h"

namespace keypad {
namespace {

DeploymentOptions ReplicatedMetaOpts(int replicas) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.meta_replicas = replicas;
  // Short attempt ladders so a call into a dead replica fails over well
  // inside the stub's failover budget.
  options.rpc.timeout = SimDuration::Seconds(1);
  options.rpc.retry.max_attempts = 2;
  return options;
}

// Counts kCreateFile binding records for one audit id.
int CreateBindingsFor(const MetadataLog& log, const AuditId& id) {
  int count = 0;
  for (const auto& record : log.records()) {
    if (record.op == MetadataOp::kCreateFile && record.audit_id == id) {
      ++count;
    }
  }
  return count;
}

TEST(MetaFailoverTest, LeaderCrashPromotesBackupAndBindingsSurvive) {
  Deployment dep(ReplicatedMetaOpts(3));
  auto& fs = dep.fs();
  MetaReplicaSet* set = dep.meta_replica_set();
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->size(), 3u);
  EXPECT_EQ(set->current_leader(), 0u);

  // Normal operation: every acked create's binding is synchronously on all
  // replicas (the response, and the unlock key inside it, only releases
  // after the log suffix ships).
  std::vector<AuditId> pre_ids;
  for (int i = 0; i < 6; ++i) {
    std::string path = "/pre" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.WriteAll(path, BytesOf("x")).ok());
    pre_ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }
  size_t chain_size = dep.meta_replica(0).log().size();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(dep.meta_replica(r).log().Verify().ok()) << "replica " << r;
    EXPECT_EQ(dep.meta_replica(r).log().size(), chain_size)
        << "replica " << r;
  }

  // Kill the leader. The lowest-index live backup promotes after lease
  // expiry plus its seniority slot.
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kCrash)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  EXPECT_EQ(set->current_leader(), 1u);
  EXPECT_TRUE(set->is_leader(1));
  EXPECT_GE(set->stats().promotions, 1u);

  // The client's next create fails over and lands on the new leader.
  ASSERT_TRUE(fs.Create("/post0").ok());
  MetadataServiceClient& stub = dep.meta_client();
  EXPECT_GE(stub.failovers() + stub.redirects(), 1u);
  EXPECT_EQ(stub.leader_hint(), set->current_leader());

  // Zero lost entries: every pre-crash binding is on the new leader's
  // verified chain and still resolves to its full pathname.
  const MetadataService& leader = dep.meta_replica(1);
  EXPECT_TRUE(leader.log().Verify().ok());
  for (size_t i = 0; i < pre_ids.size(); ++i) {
    EXPECT_EQ(CreateBindingsFor(leader.log(), pre_ids[i]), 1)
        << pre_ids[i].ToHex();
    auto path = leader.ResolvePath(dep.device_id(), pre_ids[i],
                                   dep.queue().Now());
    ASSERT_TRUE(path.ok()) << pre_ids[i].ToHex();
    EXPECT_EQ(*path, "/pre" + std::to_string(i));
  }

  // The ex-primary restarts and rejoins as a backup.
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kRestart)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  EXPECT_FALSE(set->is_leader(0));
  EXPECT_EQ(set->current_leader(), 1u);
  EXPECT_GE(set->stats().rejoins, 1u);

  // New work replicates to it again; all chains reconverge byte-for-byte.
  ASSERT_TRUE(fs.Create("/post1").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  const MetadataLog& authority = dep.meta_replica(set->current_leader()).log();
  for (size_t r = 0; r < 3; ++r) {
    const MetadataLog& log = dep.meta_replica(r).log();
    EXPECT_TRUE(log.Verify().ok()) << "replica " << r;
    ASSERT_EQ(log.size(), authority.size()) << "replica " << r;
    EXPECT_EQ(log.records().back().entry_hash,
              authority.records().back().entry_hash)
        << "replica " << r;
  }
}

TEST(MetaFailoverTest, RetriedBindAcrossFailoverDoesNotDoubleAppend) {
  // At-most-once across failover (reply caches are per-server, so a retry
  // that lands on a *different* replica is not deduplicated by the RPC
  // layer): re-registering the binding the old leader already logged and
  // shipped must not append a second record, and the promoted PKG must
  // mint the byte-identical unlock key (shared HSM master secret).
  Deployment dep(ReplicatedMetaOpts(3));
  MetaReplicaSet* set = dep.meta_replica_set();
  ASSERT_NE(set, nullptr);

  SecureRandom rng(23);
  AuditId audit_id = AuditId::Random(rng);
  DirId dir_id = DirId::Random(rng);
  auto first = dep.meta_client().BindFile(audit_id, dir_id, "dup.txt",
                                          /*is_rename=*/false);
  ASSERT_TRUE(first.ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  size_t chain_size = dep.meta_replica(0).log().size();
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(dep.meta_replica(r).log().size(), chain_size) << "replica " << r;
  }

  // The ack is "lost": the leader dies, a backup promotes, and the client
  // retries the same logical mutation against the new leader.
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kCrash)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_EQ(set->current_leader(), 1u);
  auto retried = dep.meta_client().BindFile(audit_id, dir_id, "dup.txt",
                                            /*is_rename=*/false);
  ASSERT_TRUE(retried.ok());

  // Same unlock key, no second record, chain still verifies.
  EXPECT_EQ(*first, *retried);
  const MetadataLog& log = dep.meta_replica(1).log();
  EXPECT_TRUE(log.Verify().ok());
  EXPECT_EQ(CreateBindingsFor(log, audit_id), 1);
  EXPECT_EQ(log.size(), chain_size);
}

TEST(MetaFailoverTest, StaleStubFollowsMetaNotLeaderRedirect) {
  Deployment dep(ReplicatedMetaOpts(2));
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Create("/seed").ok());
  MetaReplicaSet* set = dep.meta_replica_set();
  ASSERT_NE(set, nullptr);

  // Fail leadership over to replica 1, then bring replica 0 back as a
  // live backup.
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kCrash)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kRestart)).ok());
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
  SecureRandom rng(31);
  AuditId audit_id = AuditId::Random(rng);
  DirId dir_id = DirId::Random(rng);
  ASSERT_TRUE(
      clients->meta->BindFile(audit_id, dir_id, "thief.txt", false).ok());
  EXPECT_GE(clients->meta->redirects(), 1u);
  EXPECT_EQ(clients->meta->leader_hint(), 1u);
}

struct MetaScenarioDigest {
  std::string timeline;
  size_t leader = 0;
  uint64_t chain_size = 0;
  Bytes chain_tip;

  bool operator==(const MetaScenarioDigest& other) const {
    return timeline == other.timeline && leader == other.leader &&
           chain_size == other.chain_size && chain_tip == other.chain_tip;
  }
};

MetaScenarioDigest RunMetaCrashScenario(uint64_t seed) {
  ResetRpcClientIdsForTesting();
  DeploymentOptions options = ReplicatedMetaOpts(3);
  options.seed = seed;
  Deployment dep(options);
  auto& fs = dep.fs();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs.Create("/a" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(dep.Inject(Fault::Meta(Fault::kCrash)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs.Create("/b" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(dep.Inject(Fault::Meta(Fault::kRestart)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs.Create("/c" + std::to_string(i)).ok());
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(1));

  MetaReplicaSet* set = dep.meta_replica_set();
  MetaScenarioDigest digest;
  for (const auto& event : set->timeline()) {
    digest.timeline += std::to_string(event.at.nanos()) + "|" + event.what +
                       "|" + std::to_string(event.replica) + "|" +
                       std::to_string(event.epoch) + "\n";
  }
  digest.leader = set->current_leader();
  const MetadataLog& log = dep.meta_replica(digest.leader).log();
  digest.chain_size = log.size();
  digest.chain_tip = log.records().back().entry_hash;
  return digest;
}

TEST(MetaFailoverTest, MetaFailoverTimelineIsDeterministic) {
  MetaScenarioDigest a = RunMetaCrashScenario(7);
  MetaScenarioDigest b = RunMetaCrashScenario(7);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_TRUE(a == b);
}

TEST(MetaFailoverTest, BothTiersReplicatedRideSequentialLeaderKills) {
  // Key and metadata tiers on the same substrate at once: kill each tier's
  // leader in turn; both promote, both sets of chains reconverge, and the
  // forensic report verifies every replica of both tiers.
  DeploymentOptions options = ReplicatedMetaOpts(2);
  options.key_replicas = 2;
  Deployment dep(options);
  auto& fs = dep.fs();
  SimTime t0 = dep.queue().Now();

  std::vector<AuditId> ids;
  for (int i = 0; i < 4; ++i) {
    std::string path = "/pre" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }

  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_TRUE(fs.Create("/mid").ok());
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));

  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kCrash)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_TRUE(fs.Create("/post").ok());
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kRestart)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_TRUE(fs.Create("/tail").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));

  EXPECT_GE(dep.replica_set(0)->stats().promotions, 1u);
  EXPECT_GE(dep.meta_replica_set()->stats().promotions, 1u);

  // Every pre-kill binding still resolves through the authoritative tier.
  const MetadataService& authority =
      dep.meta_replica(dep.meta_replica_set()->current_leader());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto path = authority.ResolvePath(dep.device_id(), ids[i],
                                      dep.queue().Now());
    ASSERT_TRUE(path.ok()) << ids[i].ToHex();
    EXPECT_EQ(*path, "/pre" + std::to_string(i));
  }

  auto report = dep.auditor().BuildReport(dep.device_id(), t0,
                                          options.config.texp);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->replica_logs_verified);
  EXPECT_TRUE(report->key_log_verified);
  EXPECT_TRUE(report->metadata_log_verified);
}

}  // namespace
}  // namespace keypad
