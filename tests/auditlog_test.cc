// The segmented-log substrate and the audit-log lifecycle it enables
// (DESIGN.md §15): Merkle-rooted sealed segments, signed checkpoint
// chains, snapshot-anchored truncation, cold shipping with scrub repair,
// and the auditor-side catch-up / disambiguation protocols built on them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/auditlog/checkpoint.h"
#include "src/auditlog/merkle.h"
#include "src/auditlog/segment_store.h"
#include "src/blockdev/fault_injection.h"
#include "src/keypad/deployment.h"
#include "src/keyservice/audit_log.h"
#include "src/metaservice/metadata_log.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

AuditId IdOf(uint8_t tag) {
  AuditId id;
  id.v.fill(tag);
  return id;
}

DirId DirOf(uint8_t tag) {
  DirId id;
  id.v.fill(tag);
  return id;
}

// A standalone cold tier for substrate-level tests.
struct ColdTier {
  explicit ColdTier(EventQueue* queue)
      : cloud(queue), store(MakeMemoryBackend(), &cloud) {}
  SimObjectStore cloud;
  SegmentStore store;
};

SegmentedLogOptions SegOpts(uint64_t segment_ops, bool cold_ship,
                            bool truncate) {
  SegmentedLogOptions options;
  options.segment_ops = segment_ops;
  options.cold_ship = cold_ship;
  options.truncate = truncate;
  return options;
}

void AppendN(AuditLog& log, EventQueue& queue, int n, int start = 0) {
  for (int i = 0; i < n; ++i) {
    log.Append(queue.Now(), "laptop", IdOf(static_cast<uint8_t>(start + i)),
               AccessOp::kDemandFetch);
  }
}

TEST(SegmentedLogTest, CheckpointChainIsDeterministicAndVerifies) {
  EventQueue queue;
  AuditLog a, b;
  a.Configure(SegOpts(4, false, false));
  b.Configure(SegOpts(4, false, false));
  AppendN(a, queue, 10);
  AppendN(b, queue, 10);

  ASSERT_EQ(a.checkpoints().size(), 2u);  // 10 entries, segments of 4.
  ASSERT_EQ(b.checkpoints().size(), 2u);
  for (size_t i = 0; i < a.checkpoints().size(); ++i) {
    EXPECT_EQ(a.checkpoints()[i].hash, b.checkpoints()[i].hash) << i;
    EXPECT_EQ(a.checkpoints()[i].merkle_root, b.checkpoints()[i].merkle_root);
  }
  EXPECT_TRUE(
      VerifyCheckpointChain(a.checkpoints(), DefaultCheckpointKey()).ok());
  EXPECT_TRUE(a.Verify().ok());
  EXPECT_TRUE(a.VerifyTail().ok());

  // A backup fed the same entries over the replication path derives the
  // identical checkpoint chain — nothing checkpoint-shaped crosses the
  // wire, both sides just agree on the commit groups.
  AuditLog backup;
  backup.Configure(SegOpts(4, false, false));
  ASSERT_TRUE(backup.AppendReplicated(a.entries()).ok());
  ASSERT_EQ(backup.checkpoints().size(), a.checkpoints().size());
  for (size_t i = 0; i < a.checkpoints().size(); ++i) {
    EXPECT_EQ(backup.checkpoints()[i].hash, a.checkpoints()[i].hash) << i;
  }
}

TEST(SegmentedLogTest, CheckpointTamperIsDetected) {
  EventQueue queue;
  AuditLog log;
  log.Configure(SegOpts(4, false, false));
  AppendN(log, queue, 9);
  ASSERT_EQ(log.checkpoints().size(), 2u);

  // Forged signature: the chain hashes still line up, the HMAC does not.
  std::vector<LogCheckpoint> forged = log.checkpoints();
  forged[1].signature[0] ^= 0x01;
  Status sig = VerifyCheckpointChain(forged, DefaultCheckpointKey());
  ASSERT_FALSE(sig.ok());
  EXPECT_NE(sig.message().find("bad signature"), std::string::npos);

  // Rewritten history: changing a covered field breaks the hash.
  forged = log.checkpoints();
  forged[0].end_seq = 3;
  forged[0].start_seq = 0;
  EXPECT_FALSE(VerifyCheckpointChain(forged, DefaultCheckpointKey()).ok());

  // Tampering a sealed in-memory entry breaks Verify() against the
  // checkpoint seals even though the tail after the last checkpoint is
  // untouched.
  log.CorruptEntryForTesting(2);
  EXPECT_FALSE(log.Verify().ok());
}

TEST(SegmentedLogTest, TruncationDropsMemoryButPreservesHistory) {
  EventQueue queue;
  ColdTier cold(&queue);
  AuditLog log;
  log.Configure(SegOpts(4, true, true));
  log.set_segment_store(&cold.store, "key");
  AppendN(log, queue, 19);

  // Four full segments sealed and shipped; the in-memory suffix holds only
  // the unsealed tail, yet the chain length is unchanged.
  EXPECT_EQ(log.size(), 19u);
  EXPECT_EQ(log.base_seq(), 16u);
  EXPECT_EQ(log.entries().size(), 3u);
  EXPECT_EQ(log.truncated_entries(), 16u);
  EXPECT_EQ(log.segments_sealed(), 4u);
  EXPECT_EQ(log.segments_shipped(), 4u);
  EXPECT_TRUE(log.Verify().ok());
  EXPECT_TRUE(log.VerifyTail().ok());

  // Hot cursor reads clamp at the base; cold-inclusive reads reconstruct
  // the whole history from the segment store, in order, seq-exact.
  EXPECT_EQ(log.EntriesAfterSeq(0).size(), 3u);
  auto all = log.AllEntriesFromSeq(0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 19u);
  for (size_t i = 0; i < all->size(); ++i) {
    EXPECT_EQ((*all)[i].seq, i);
  }
  // End-to-end verification replays the cold prefix against the signed
  // checkpoints and reconnects it to the live tail.
  EXPECT_TRUE(log.VerifyFullChain().ok());

  // Without truncation the same workload keeps everything resident.
  AuditLog keep;
  keep.Configure(SegOpts(4, true, false));
  ColdTier keep_cold(&queue);
  keep.set_segment_store(&keep_cold.store, "key");
  AppendN(keep, queue, 19);
  EXPECT_EQ(keep.base_seq(), 0u);
  EXPECT_EQ(keep.entries().size(), 19u);
}

TEST(SegmentedLogTest, TruncationRespectsDurableWatermarkAnchor) {
  EventQueue queue;
  ColdTier cold(&queue);
  AuditLog log;
  log.Configure(SegOpts(4, true, true));
  log.set_segment_store(&cold.store, "key");
  uint64_t watermark = 0;
  log.set_truncate_anchor([&watermark] { return watermark; });

  AppendN(log, queue, 12);
  // Nothing acknowledged anywhere: nothing may be dropped.
  EXPECT_EQ(log.base_seq(), 0u);

  // The watermark advances mid-segment; truncation stops at the last
  // checkpoint boundary at or below it.
  watermark = 6;
  log.MaybeTruncate();
  EXPECT_EQ(log.base_seq(), 4u);
  watermark = 12;
  log.MaybeTruncate();
  EXPECT_EQ(log.base_seq(), 12u);  // All sealed segments acked: all drop.
  EXPECT_TRUE(log.Verify().ok());
  EXPECT_TRUE(log.VerifyFullChain().ok());
}

TEST(SegmentedLogTest, ColdBitRotIsDetectedWithoutCloudAndRepairedWithIt) {
  EventQueue queue;

  // No cloud mirror: rot in the cold tier is detected, not repaired.
  SegmentStore bare(MakeMemoryBackend(), nullptr);
  AuditLog log;
  log.Configure(SegOpts(4, true, true));
  log.set_segment_store(&bare, "key");
  AppendN(log, queue, 13);
  ASSERT_EQ(log.base_seq(), 12u);
  SimRandom rng(7);
  ASSERT_GT(InjectBitRot(*bare.backend(), rng, 40).flips_applied, 0u);
  EXPECT_FALSE(log.VerifyFullChain().ok());
  auto report = bare.Scrub();
  EXPECT_GT(report.unrepairable, 0u);

  // With the cloud mirror the same rot scrubs clean and the full chain
  // (cold prefix included) verifies again.
  ColdTier cold(&queue);
  AuditLog shipped;
  shipped.Configure(SegOpts(4, true, true));
  shipped.set_segment_store(&cold.store, "key");
  AppendN(shipped, queue, 13);
  queue.RunUntilIdle();  // Let the mirror uploads land.
  cold.cloud.SettleNow();
  ASSERT_GT(InjectBitRot(*cold.store.backend(), rng, 40).flips_applied, 0u);
  auto repaired = cold.store.Scrub();
  EXPECT_EQ(repaired.unrepairable, 0u);
  EXPECT_GT(cold.store.repairs(), 0u);
  EXPECT_TRUE(shipped.VerifyFullChain().ok());
}

TEST(SegmentedLogTest, MetadataLogSharesTheSubstrate) {
  EventQueue queue;
  ColdTier cold(&queue);
  MetadataLog log;
  log.Configure(SegOpts(3, true, true));
  log.set_segment_store(&cold.store, "meta");

  for (int i = 0; i < 10; ++i) {
    MetadataRecord record;
    record.device_id = "laptop";
    record.op = MetadataOp::kCreateFile;
    record.audit_id = IdOf(static_cast<uint8_t>(i));
    record.dir_id = DirOf(0xd0);
    record.name = "f" + std::to_string(i);
    record.client_time = queue.Now();
    log.Append(queue.Now(), std::move(record));
  }
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.base_seq(), 9u);  // Three shipped segments of 3.
  EXPECT_TRUE(log.Verify().ok());
  EXPECT_TRUE(log.VerifyFullChain().ok());

  // The binding index deliberately survives truncation: every record ever
  // appended is still reachable for forensics and orphan classification.
  auto all = log.AllKnownRecords();
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log.HistoryOf("laptop", IdOf(static_cast<uint8_t>(i))).size(),
              1u);
  }
}

// --- Service-level lifecycle (Deployment harness). --------------------------

DeploymentOptions TruncatingOpts() {
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.key_service.log = SegOpts(8, true, true);
  return options;
}

TEST(AuditLogLifecycleTest, ServiceSnapshotRestoreCarriesTruncatedChain) {
  Deployment dep(TruncatingOpts());
  auto& fs = dep.fs();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(fs.Create("/f" + std::to_string(i)).ok());
  }
  KeyService& service = dep.key_service();
  uint64_t size_before = service.log().size();
  ASSERT_GT(service.log().base_seq(), 0u);
  ASSERT_LT(service.log().entries().size(), size_before);

  // Crash + restart runs Snapshot() → Restore() over the truncated log;
  // the restored chain must keep the base/checkpoint anchors, not fail or
  // silently reset to genesis.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0)).ok());
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0)).ok());
  KeyService& restored = dep.key_service();
  EXPECT_EQ(restored.log().size(), size_before);
  EXPECT_GT(restored.log().base_seq(), 0u);
  EXPECT_TRUE(restored.log().Verify().ok());
  EXPECT_TRUE(restored.log().VerifyFullChain().ok());

  // Forensic replay still sees the whole history through the cold tier.
  auto since_genesis = restored.LogSince(SimTime());
  EXPECT_EQ(since_genesis.size(), size_before);

  // And the service keeps appending on the restored chain.
  ASSERT_TRUE(fs.Create("/post-restore").ok());
  EXPECT_GT(restored.log().size(), size_before);
  EXPECT_TRUE(restored.log().Verify().ok());
}

TEST(AuditLogLifecycleTest, ForensicReportUnchangedByTruncation) {
  // The same workload with and without truncation must produce the same
  // audit report — dropping checkpointed prefixes from memory loses no
  // forensic fidelity.
  auto run = [](bool truncate) {
    DeploymentOptions options = TruncatingOpts();
    options.key_service.log =
        truncate ? SegOpts(8, true, true) : SegOpts(0, false, false);
    Deployment dep(options);
    auto& fs = dep.fs();
    EXPECT_TRUE(fs.Mkdir("/docs").ok());
    for (int i = 0; i < 20; ++i) {
      std::string path = "/docs/f" + std::to_string(i);
      EXPECT_TRUE(fs.Create(path).ok());
      EXPECT_TRUE(fs.WriteAll(path, BytesOf("x")).ok());
    }
    dep.queue().AdvanceBy(SimDuration::Seconds(300));
    SimTime t_loss = dep.queue().Now();
    auto attacker = dep.MakeAttacker();
    auto creds = attacker.StealCredentials();
    auto clients = dep.MakeAttackerClients(*creds);
    auto thief_fs = attacker.MountOnline(clients->services, options.config);
    EXPECT_TRUE((*thief_fs)->ReadAll("/docs/f3").ok());
    EXPECT_TRUE((*thief_fs)->ReadAll("/docs/f7").ok());
    auto report =
        dep.auditor().BuildReport(dep.device_id(), t_loss, fs.config().texp);
    EXPECT_TRUE(report.ok());
    return *report;
  };
  AuditReport truncated = run(true);
  AuditReport reference = run(false);
  EXPECT_TRUE(truncated.key_log_verified);
  ASSERT_EQ(truncated.compromised.size(), reference.compromised.size());
  for (size_t i = 0; i < truncated.compromised.size(); ++i) {
    EXPECT_EQ(truncated.compromised[i].audit_id,
              reference.compromised[i].audit_id);
    EXPECT_EQ(truncated.compromised[i].path_at_loss,
              reference.compromised[i].path_at_loss);
    EXPECT_EQ(truncated.compromised[i].accesses.size(),
              reference.compromised[i].accesses.size());
  }
}

TEST(AuditLogLifecycleTest, TruncatingRestartIsBenignButRestoreStillResyncs) {
  // Satellite fix: the remote auditor keys regression handling off the
  // signed checkpoint chain, not raw sequence numbers. A service restart
  // over a truncated chain (epoch bump, same history) must NOT trigger a
  // resync; a genuine restore from an older snapshot still must.
  Deployment dep(TruncatingOpts());
  auto& fs = dep.fs();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fs.Create("/f" + std::to_string(i)).ok());
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(5));

  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  RemoteAuditor auditor(clients->key_rpc.get(), clients->meta_rpc.get(),
                        creds->device_id, creds->key_secret,
                        creds->meta_secret);
  auto first =
      auditor.BuildReport(dep.queue().Now(), dep.fs().config().texp);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(auditor.resyncs(), 0u);
  ASSERT_GT(dep.key_service().log().checkpoints().size(), 0u);
  Bytes old_snapshot = dep.key_service().Snapshot();

  // Truncating restart: snapshot → restore bumps the restore epoch but the
  // chain is unchanged. The old code resynced on any epoch change; the
  // checkpoint comparison proves the restart benign.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0)).ok());
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0)).ok());
  ASSERT_TRUE(fs.Create("/after-restart").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  auto second =
      auditor.BuildReport(dep.queue().Now(), dep.fs().config().texp);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(auditor.resyncs(), 0u);
  EXPECT_GE(auditor.benign_restarts(), 1u);
  EXPECT_EQ(auditor.cursor(), dep.key_service().log().size());

  // Genuine restore-from-older-snapshot: the chain really is shorter than
  // the cursor — checkpoints cannot vouch for the lost suffix, so the
  // legacy resync path must still fire and keep the rolled-back rows.
  dep.key_service().AbortInFlight();
  ASSERT_TRUE(dep.key_service().Restore(old_snapshot).ok());
  ASSERT_LT(dep.key_service().log().size(), auditor.cursor());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  auto third =
      auditor.BuildReport(dep.queue().Now(), dep.fs().config().texp);
  ASSERT_TRUE(third.ok());
  EXPECT_GE(auditor.resyncs(), 1u);
  EXPECT_GT(auditor.regressed_entries(), 0u);
  EXPECT_EQ(auditor.cursor(), dep.key_service().log().size());

  // Auditing continues normally on the restored chain.
  ASSERT_TRUE(fs.Create("/after-restore").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  uint64_t resyncs_after = auditor.resyncs();
  auto fourth =
      auditor.BuildReport(dep.queue().Now(), dep.fs().config().texp);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(auditor.resyncs(), resyncs_after);
  EXPECT_EQ(auditor.cursor(), dep.key_service().log().size());
}

TEST(AuditLogCatchUpTest, CheckpointCatchUpFetchesFractionOfGenesisReplay) {
  // A fresh console auditing a long-lived device: replaying from genesis
  // pulls the whole history; CatchUpFromCheckpoints verifies the signed
  // checkpoint chain instead and pulls only the unsealed tail.
  DeploymentOptions options = TruncatingOpts();
  options.meta_log = SegOpts(8, true, true);  // Both tiers checkpoint.
  Deployment dep(options);
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs.Create("/docs/f" + std::to_string(i)).ok());
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  SimTime t_loss = dep.queue().Now();
  ASSERT_GT(dep.key_service().log().base_seq(), 0u);
  ASSERT_GT(dep.metadata_service().log().checkpoints().size(), 0u);

  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients_a = dep.MakeAttackerClients(*creds);
  RemoteAuditor genesis(clients_a->key_rpc.get(), clients_a->meta_rpc.get(),
                        creds->device_id, creds->key_secret,
                        creds->meta_secret);
  ASSERT_TRUE(genesis.BuildReport(t_loss, fs.config().texp).ok());
  uint64_t fetched_genesis = genesis.entries_fetched();
  ASSERT_GT(fetched_genesis, 0u);

  auto clients_b = dep.MakeAttackerClients(*creds);
  RemoteAuditor anchored(clients_b->key_rpc.get(), clients_b->meta_rpc.get(),
                         creds->device_id, creds->key_secret,
                         creds->meta_secret);
  ASSERT_TRUE(anchored.CatchUpFromCheckpoints().ok());
  ASSERT_TRUE(anchored.BuildReport(t_loss, fs.config().texp).ok());
  uint64_t fetched_anchored = anchored.entries_fetched();

  // The sealed prefix was vouched for by checkpoint signatures, not
  // refetched: the anchored auditor pulls an order of magnitude less.
  EXPECT_LE(fetched_anchored * 10, fetched_genesis)
      << "anchored=" << fetched_anchored << " genesis=" << fetched_genesis;
  EXPECT_EQ(anchored.cursor(), dep.key_service().log().size());
  EXPECT_EQ(anchored.meta_cursor(), dep.metadata_service().log().size());
  EXPECT_EQ(anchored.resyncs(), 0u);
}

TEST(AuditLogLifecycleTest, MetaLogOptionsReachEveryMetadataReplica) {
  DeploymentOptions options = TruncatingOpts();
  options.meta_replicas = 3;
  options.meta_log.segment_ops = 4;
  options.meta_log.truncate = true;
  Deployment dep(options);
  ASSERT_EQ(dep.meta_replica_count(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    const SegmentedLogOptions& applied =
        dep.meta_replica(r).log().log_options();
    EXPECT_EQ(applied.segment_ops, 4u) << "replica " << r;
    EXPECT_TRUE(applied.truncate) << "replica " << r;
    EXPECT_TRUE(applied.cold_ship) << "replica " << r;  // Implied.
  }
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs.Create("/docs/f" + std::to_string(i)).ok());
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  const MetadataLog& log = dep.meta_replica(0).log();
  EXPECT_GT(log.checkpoints().size(), 0u);
  EXPECT_GT(log.segments_shipped(), 0u);

  // The key tier gets the same rule from the same place.
  EventQueue queue;
  KeyServiceOptions key_options;
  key_options.log.truncate = true;
  KeyService service(&queue, 0x5E6, key_options);
  EXPECT_TRUE(service.log().log_options().cold_ship);
}

// --- Replicated failover with truncation (satellite 3). ---------------------

DeploymentOptions ReplicatedLogOpts(bool truncate) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.key_replicas = 3;
  // Held responses wait out one backup ack_timeout when the mesh first
  // partitions; give each attempt room for that.
  options.rpc.timeout = SimDuration::Seconds(3);
  options.rpc.retry.max_attempts = 2;
  options.key_service.log =
      truncate ? SegOpts(4, true, true) : SegOpts(0, false, false);
  return options;
}

bool FullChainHasCreate(const AuditLog& log, const AuditId& id) {
  auto all = log.AllEntriesFromSeq(0);
  if (!all.ok()) {
    return false;
  }
  for (const auto& entry : *all) {
    if (entry.op == AccessOp::kCreate && entry.audit_id == id) {
      return true;
    }
  }
  return false;
}

struct FailoverOutcome {
  uint64_t orphaned_entries = 0;
  size_t duplicate_records = 0;
  size_t orphaned_records = 0;
  bool replica_logs_verified = false;
  bool invariant_held = false;
};

// The split-brain scenario from the replica failover suite, parameterized
// on truncation: a partitioned primary keeps acking creates that exist on
// its chain only, the backup promotes, the primary dies, heals, rejoins,
// and reconciliation must surface the partition-era suffix as orphans —
// identically whether or not the primary had truncated its checkpointed
// prefix in the meantime.
FailoverOutcome RunPartitionScenario(bool truncate) {
  Deployment dep(ReplicatedLogOpts(truncate));
  auto& fs = dep.fs();
  ReplicaSet* set = dep.replica_set(0);
  EXPECT_NE(set, nullptr);
  SimTime t_loss = dep.queue().Now();

  std::vector<AuditId> acked_ids;
  for (int i = 0; i < 10; ++i) {
    std::string path = "/pre" + std::to_string(i);
    EXPECT_TRUE(fs.Create(path).ok());
    acked_ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  if (truncate) {
    // The leader's durable watermark (every backup acked) lets it drop the
    // shipped prefix; backups never truncate.
    EXPECT_GT(dep.key_replica(0, 0).log().base_seq(), 0u);
    EXPECT_EQ(dep.key_replica(0, 1).log().base_seq(), 0u);
  }

  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kPartition, 0, 0)).ok());
  std::vector<AuditId> partition_ids;
  for (int i = 0; i < 3; ++i) {
    std::string path = "/part" + std::to_string(i);
    EXPECT_TRUE(fs.Create(path).ok());
    AuditId id = fs.ReadHeaderOf(path)->audit_id;
    partition_ids.push_back(id);
    acked_ids.push_back(id);
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  EXPECT_GE(set->stats().promotions, 1u);

  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0, 0)).ok());
  for (int i = 0; i < 2; ++i) {
    std::string path = "/post" + std::to_string(i);
    EXPECT_TRUE(fs.Create(path).ok());
    acked_ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }

  // Heal and restart: the ex-primary adopts the new leader's chain and its
  // partition-era suffix — beyond the proven common prefix, which on this
  // side starts above a truncated base — surfaces as orphans.
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kHeal, 0, 0)).ok());
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  EXPECT_FALSE(set->is_leader(0));

  FailoverOutcome outcome;
  outcome.orphaned_entries = set->stats().orphaned_entries;
  outcome.invariant_held = true;
  const AuditLog& authority = dep.key_replica(0, set->current_leader()).log();
  for (const auto& id : acked_ids) {
    bool present = FullChainHasCreate(authority, id);
    for (const auto& orphan : set->orphaned()) {
      present |= orphan.entry.op == AccessOp::kCreate &&
                 orphan.entry.audit_id == id;
    }
    EXPECT_TRUE(present) << id.ToHex();
    outcome.invariant_held &= present;
  }

  auto report = dep.auditor().BuildReport(dep.device_id(), t_loss,
                                          dep.options().config.texp);
  EXPECT_TRUE(report.ok());
  if (report.ok()) {
    outcome.duplicate_records = report->duplicate_records;
    outcome.orphaned_records = report->orphaned_records;
    outcome.replica_logs_verified = report->replica_logs_verified;
  }
  return outcome;
}

TEST(AuditLogFailoverTest, TruncatedOrphanClassificationMatchesReference) {
  FailoverOutcome truncated = RunPartitionScenario(true);
  FailoverOutcome reference = RunPartitionScenario(false);
  EXPECT_TRUE(truncated.invariant_held);
  EXPECT_TRUE(reference.invariant_held);
  EXPECT_TRUE(truncated.replica_logs_verified);
  EXPECT_GT(reference.orphaned_entries, 0u);
  // Truncating the proven common prefix on one side must not change what
  // reconciliation classifies as orphaned, nor how forensics accounts for
  // the duplicated-but-never-lost rows.
  EXPECT_EQ(truncated.orphaned_entries, reference.orphaned_entries);
  EXPECT_EQ(truncated.duplicate_records + truncated.orphaned_records,
            reference.duplicate_records + reference.orphaned_records);
}

TEST(AuditLogFailoverTest, FreshAuditorCatchesUpFromPromotedBackup) {
  // Leader killed mid-segment, backup promotes; a console that has never
  // audited this fleet before anchors on the promoted backup's checkpoint
  // chain (derived independently via replicated group commits) instead of
  // replaying from genesis.
  Deployment dep(ReplicatedLogOpts(true));
  auto& fs = dep.fs();
  ReplicaSet* set = dep.replica_set(0);
  ASSERT_NE(set, nullptr);
  for (int i = 0; i < 11; ++i) {  // Not a multiple of 4: mid-segment kill.
    ASSERT_TRUE(fs.Create("/f" + std::to_string(i)).ok());
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(1));

  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_EQ(set->current_leader(), 1u);
  ASSERT_TRUE(fs.Create("/post").ok());

  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  // replica_rpcs[0] is the shard's first backup — the promoted leader.
  ASSERT_FALSE(clients->replica_rpcs.empty());
  RemoteAuditor auditor(clients->replica_rpcs[0].get(),
                        clients->meta_rpc.get(), creds->device_id,
                        creds->key_secret, creds->meta_secret);
  ASSERT_TRUE(auditor.CatchUpFromCheckpoints().ok());
  uint64_t anchored_cursor = auditor.cursor();
  EXPECT_GT(anchored_cursor, 0u);
  auto report = auditor.BuildReport(dep.queue().Now(), fs.config().texp);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(auditor.resyncs(), 0u);
  EXPECT_EQ(auditor.cursor(), dep.key_replica(0, 1).log().size());
  // Only the post-checkpoint tail crossed the wire for the key tier.
  EXPECT_LT(auditor.entries_fetched(),
            dep.key_replica(0, 1).log().size() +
                dep.metadata_service().log().size());
}

}  // namespace
}  // namespace keypad
