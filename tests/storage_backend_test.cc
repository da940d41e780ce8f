// Tests for the pluggable storage tier (DESIGN.md §12): backend seam,
// write-ahead journal recovery, fault injection, the crash-point explorer,
// bit-rot scrubbing, and the write-back cloud replica.

#include <gtest/gtest.h>

#include "src/blockdev/block_device.h"
#include "src/blockdev/cloud_store.h"
#include "src/blockdev/fault_injection.h"
#include "src/blockdev/scrubber.h"
#include "src/blockdev/storage_backend.h"
#include "src/blockdev/write_back.h"
#include "src/encfs/durability_harness.h"
#include "src/encfs/encfs.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

ObjectId MakeId(uint8_t tag) {
  ObjectId id;
  id.v.fill(tag);
  return id;
}

// --- Backend seam basics. ---------------------------------------------------

class BackendParamTest
    : public ::testing::TestWithParam<StorageBackendKind> {};

TEST_P(BackendParamTest, BatchApplyAndReadBack) {
  auto backend = MakeStorageBackend(GetParam());
  std::vector<StorageOp> batch;
  batch.push_back(StorageOp::Put(MakeId(1), {1, 2, 3}));
  batch.push_back(StorageOp::Put(MakeId(2), {4, 5}));
  batch.push_back(StorageOp::PutSuperblock({9, 9}));
  ASSERT_TRUE(backend->Apply(std::move(batch)).ok());
  EXPECT_EQ(*backend->ReadObject(MakeId(1)), (Bytes{1, 2, 3}));
  EXPECT_EQ(*backend->ReadObject(MakeId(2)), (Bytes{4, 5}));
  EXPECT_EQ(backend->ReadSuperblock(), (Bytes{9, 9}));
  EXPECT_EQ(backend->ObjectCount(), 2u);
  ASSERT_TRUE(backend->Sync().ok());

  std::vector<StorageOp> second;
  second.push_back(StorageOp::Delete(MakeId(1)));
  ASSERT_TRUE(backend->Apply(std::move(second)).ok());
  ASSERT_TRUE(backend->Sync().ok());
  EXPECT_FALSE(backend->HasObject(MakeId(1)));
  EXPECT_TRUE(backend->HasObject(MakeId(2)));
}

TEST_P(BackendParamTest, CloneIsIndependent) {
  auto backend = MakeStorageBackend(GetParam());
  std::vector<StorageOp> batch;
  batch.push_back(StorageOp::Put(MakeId(1), {1}));
  ASSERT_TRUE(backend->Apply(std::move(batch)).ok());
  ASSERT_TRUE(backend->Sync().ok());
  auto clone = backend->Clone();
  std::vector<StorageOp> more;
  more.push_back(StorageOp::Put(MakeId(1), {2}));
  ASSERT_TRUE(backend->Apply(std::move(more)).ok());
  EXPECT_EQ(*backend->ReadObject(MakeId(1)), (Bytes{2}));
  EXPECT_EQ(*clone->ReadObject(MakeId(1)), (Bytes{1}));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendParamTest,
                         ::testing::Values(StorageBackendKind::kMemory,
                                           StorageBackendKind::kJournaled));

// --- Journal semantics. -----------------------------------------------------

TEST(JournaledBackendTest, UnsyncedBatchIsLostOnCrash) {
  auto backend = MakeJournaledBackend();
  std::vector<StorageOp> batch;
  batch.push_back(StorageOp::Put(MakeId(1), {1, 2, 3}));
  ASSERT_TRUE(backend->Apply(std::move(batch)).ok());
  // No Sync: the batch lives only in volatile staged records.
  RecoveryReport report;
  auto recovered = backend->RecoverFromCrash(&report);
  EXPECT_FALSE(recovered->HasObject(MakeId(1)));
  EXPECT_EQ(report.committed_txns_replayed, 0u);
}

TEST(JournaledBackendTest, SyncedBatchSurvivesCrash) {
  auto backend = MakeJournaledBackend();
  std::vector<StorageOp> batch;
  batch.push_back(StorageOp::Put(MakeId(1), {1, 2, 3}));
  batch.push_back(StorageOp::PutSuperblock({7}));
  ASSERT_TRUE(backend->Apply(std::move(batch)).ok());
  ASSERT_TRUE(backend->Sync().ok());
  RecoveryReport report;
  auto recovered = backend->RecoverFromCrash(&report);
  EXPECT_EQ(*recovered->ReadObject(MakeId(1)), (Bytes{1, 2, 3}));
  EXPECT_EQ(recovered->ReadSuperblock(), (Bytes{7}));
  EXPECT_EQ(report.committed_txns_replayed, 1u);
  EXPECT_EQ(report.torn_txns_discarded, 0u);
}

TEST(JournaledBackendTest, TornSyncIsAllOrNothing) {
  // A two-op batch flushes BEGIN/OP/OP/COMMIT records. Crash the power at
  // every one of those medium writes (clean and mid-record): recovery must
  // give the full batch or none of it.
  for (uint64_t point = 0; point < 4; ++point) {
    for (double torn : {0.0, 0.6}) {
      auto backend = MakeJournaledBackend();
      FaultInjector injector;
      injector.ArmCrash(point, torn);
      backend->set_observer(&injector);
      std::vector<StorageOp> batch;
      batch.push_back(StorageOp::Put(MakeId(1), Bytes(100, 0xaa)));
      batch.push_back(StorageOp::Put(MakeId(2), Bytes(50, 0xbb)));
      ASSERT_TRUE(backend->Apply(std::move(batch)).ok());
      Status sync = backend->Sync();
      EXPECT_FALSE(sync.ok()) << "point " << point;
      EXPECT_TRUE(backend->powered_off());
      RecoveryReport report;
      auto recovered = backend->RecoverFromCrash(&report);
      bool has1 = recovered->HasObject(MakeId(1));
      bool has2 = recovered->HasObject(MakeId(2));
      EXPECT_EQ(has1, has2) << "torn txn at point " << point;
      EXPECT_FALSE(has1) << "commit record never landed at point " << point;
    }
  }
}

TEST(JournaledBackendTest, CheckpointFoldsJournalAndSurvivesCrash) {
  JournalOptions options;
  options.checkpoint_bytes = 1;  // Checkpoint at every sync.
  auto backend = MakeJournaledBackend(options);
  std::vector<StorageOp> batch;
  batch.push_back(StorageOp::Put(MakeId(1), Bytes(64, 0x11)));
  ASSERT_TRUE(backend->Apply(std::move(batch)).ok());
  ASSERT_TRUE(backend->Sync().ok());
  // Post-checkpoint: object lives in the object area; recovery has no
  // journal left to replay.
  RecoveryReport report;
  auto recovered = backend->RecoverFromCrash(&report);
  EXPECT_EQ(*recovered->ReadObject(MakeId(1)), Bytes(64, 0x11));
  EXPECT_EQ(report.journal_bytes_scanned, 0u);
}

TEST(JournaledBackendTest, CrashDuringCheckpointHealsViaJournalReplay) {
  JournalOptions options;
  options.checkpoint_bytes = 1;
  // Writes 0..2 = BEGIN/OP/COMMIT flushes; write 3 = checkpoint's object
  // rewrite; write 4 = truncate marker. Crash at both checkpoint writes.
  for (uint64_t point : {3u, 4u}) {
    auto backend = MakeJournaledBackend(options);
    FaultInjector injector;
    injector.ArmCrash(point, 0.3);
    backend->set_observer(&injector);
    std::vector<StorageOp> batch;
    batch.push_back(StorageOp::Put(MakeId(1), Bytes(80, 0x42)));
    ASSERT_TRUE(backend->Apply(std::move(batch)).ok());
    EXPECT_FALSE(backend->Sync().ok());
    ASSERT_TRUE(injector.crashed());
    RecoveryReport report;
    auto recovered = backend->RecoverFromCrash(&report);
    EXPECT_EQ(*recovered->ReadObject(MakeId(1)), Bytes(80, 0x42))
        << "checkpoint crash at write " << point;
  }
}

// --- BlockDevice transactional shim. ----------------------------------------

TEST(BlockDeviceTxnTest, StagedWritesVisibleToOwnReadsAndAbortable) {
  BlockDevice dev(MakeJournaledBackend());
  dev.WriteObject(MakeId(1), {1});
  dev.Begin();
  dev.WriteObject(MakeId(2), {2});
  ASSERT_TRUE(dev.DeleteObject(MakeId(1)).ok());
  EXPECT_TRUE(dev.HasObject(MakeId(2)));
  EXPECT_FALSE(dev.HasObject(MakeId(1)));
  EXPECT_EQ(dev.ListObjects().size(), 1u);
  dev.Abort();
  EXPECT_FALSE(dev.HasObject(MakeId(2)));
  EXPECT_TRUE(dev.HasObject(MakeId(1)));
}

TEST(BlockDeviceTxnTest, SnapshotResetsCountersButKeepsContent) {
  BlockDevice dev;
  dev.WriteObject(MakeId(1), {1, 2});
  ASSERT_TRUE(dev.ReadObject(MakeId(1)).ok());
  EXPECT_GT(dev.writes(), 0u);
  EXPECT_GT(dev.reads(), 0u);
  BlockDevice snap = dev.Snapshot();
  // Counters are telemetry about the original device, not medium state.
  EXPECT_EQ(snap.writes(), 0u);
  EXPECT_EQ(snap.reads(), 0u);
  EXPECT_EQ(*snap.ReadObject(MakeId(1)), (Bytes{1, 2}));
}

TEST(BlockDeviceTxnTest, DeleteAndSuperblockCountAsWrites) {
  BlockDevice dev;
  dev.WriteObject(MakeId(1), {1});
  EXPECT_EQ(dev.writes(), 1u);
  dev.WriteSuperblock({5});
  EXPECT_EQ(dev.writes(), 2u);
  ASSERT_TRUE(dev.DeleteObject(MakeId(1)).ok());
  EXPECT_EQ(dev.writes(), 3u);
}

TEST(BlockDeviceTxnTest, DirtyTrackingFollowsCommits) {
  BlockDevice dev(MakeJournaledBackend());
  dev.WriteObject(MakeId(1), {1});
  dev.WriteSuperblock({2});
  dev.Begin();
  dev.WriteObject(MakeId(2), {2});
  dev.Abort();  // Aborted writes must not dirty anything.
  BlockDevice::DirtySet dirty = dev.TakeDirty();
  EXPECT_EQ(dirty.modified.size(), 1u);
  EXPECT_TRUE(dirty.superblock);
  EXPECT_TRUE(dev.TakeDirty().empty());

  ASSERT_TRUE(dev.DeleteObject(MakeId(1)).ok());
  dirty = dev.TakeDirty();
  EXPECT_TRUE(dirty.modified.empty());
  EXPECT_EQ(dirty.deleted.size(), 1u);
}

// --- Crash-point explorer. --------------------------------------------------

TEST(CrashPointExplorerTest, JournaledBackendIsAtomicAtEveryPoint) {
  ExplorerOptions options;
  options.backend = StorageBackendKind::kJournaled;
  options.workload_ops = 16;
  ExplorerResult result = ExploreCrashPoints(options);
  ASSERT_GT(result.injection_points, 0u);
  EXPECT_EQ(result.crashes_explored,
            result.injection_points * options.torn_fractions.size());
  EXPECT_TRUE(result.all_atomic())
      << "torn=" << result.torn_states
      << " unmountable=" << result.unmountable << " first bad point "
      << result.first_bad_point << " (torn fraction "
      << result.first_bad_torn_fraction << ")";
}

TEST(CrashPointExplorerTest, MemoryBackendShowsTornStates) {
  // Negative control: the seed's map backend has no atomicity, so the same
  // exploration must find mixed states — proving the explorer can detect
  // them.
  ExplorerOptions options;
  options.backend = StorageBackendKind::kMemory;
  options.workload_ops = 16;
  ExplorerResult result = ExploreCrashPoints(options);
  ASSERT_GT(result.injection_points, 0u);
  EXPECT_GT(result.torn_states + result.unmountable, 0u);
}

// --- Bit rot + scrubber. ----------------------------------------------------

class ScrubFixture : public ::testing::Test {
 protected:
  ScrubFixture()
      : device_(MakeJournaledBackend()), cloud_(&queue_), writeback_(&device_, &cloud_) {}

  // Formats a volume, writes some files, and flushes to the cloud replica.
  void PopulateAndFlush() {
    auto fs = EncFs::Format(&device_, &queue_, 11, "pw", FastOptions());
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
    ASSERT_TRUE(fs_->Mkdir("/docs").ok());
    for (int i = 0; i < 6; ++i) {
      std::string path = "/docs/f" + std::to_string(i);
      ASSERT_TRUE(fs_->Create(path).ok());
      ASSERT_TRUE(fs_->Write(path, 0, Bytes(300 + i * 40, 0x30 + i)).ok());
    }
    bool flushed = false;
    writeback_.FlushNow([&](Status status) {
      ASSERT_TRUE(status.ok()) << status;
      flushed = true;
    });
    queue_.RunUntilIdle();
    ASSERT_TRUE(flushed);
    cloud_.SettleNow();
  }

  static EncFs::Options FastOptions() {
    EncFs::Options options;
    options.kdf_iterations = 4;
    return options;
  }

  EventQueue queue_;
  BlockDevice device_;
  SimObjectStore cloud_;
  WriteBackQueue writeback_;
  std::unique_ptr<EncFs> fs_;
};

TEST_F(ScrubFixture, ScrubberRepairsInjectedBitRotFromCloud) {
  PopulateAndFlush();
  ASSERT_TRUE(device_.backend().Checkpoint().ok());
  SimRandom rng(99);
  BitRotReport rot = InjectBitRot(device_.backend(), rng, 5);
  ASSERT_GT(rot.flips_applied, 0u);

  Scrubber scrubber(&device_, &cloud_);
  ScrubReport report = scrubber.Scrub();
  EXPECT_GT(report.rot_detected, 0u);
  EXPECT_EQ(report.repaired, report.rot_detected);
  EXPECT_EQ(report.unrepairable, 0u);
  EXPECT_EQ(report.tamper_suspect, 0u);

  // A second scrub must come back fully clean.
  ScrubReport again = scrubber.Scrub();
  EXPECT_EQ(again.rot_detected, 0u);
  EXPECT_EQ(again.clean, again.objects_scanned);

  // And the volume still reads correctly end to end.
  auto content = fs_->Read("/docs/f0", 0, 300);
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(*content, Bytes(300, 0x30));
}

TEST_F(ScrubFixture, RotWithoutCloudReplicaIsUnrepairableLoss) {
  PopulateAndFlush();
  ASSERT_TRUE(device_.backend().Checkpoint().ok());
  SimRandom rng(100);
  BitRotReport rot = InjectBitRot(device_.backend(), rng, 3);
  ASSERT_GT(rot.flips_applied, 0u);

  Scrubber scrubber(&device_, /*cloud=*/nullptr);
  ScrubReport report = scrubber.Scrub();
  EXPECT_GT(report.rot_detected, 0u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.unrepairable, report.rot_detected);
  EXPECT_FALSE(report.lost.empty());
}

TEST_F(ScrubFixture, ConsistentRewriteReportsTamperNotRot) {
  PopulateAndFlush();
  ASSERT_TRUE(device_.backend().Checkpoint().ok());
  // Rewrite an object AND its tag through the repair path (bit rot cannot
  // keep data+tag consistent), with no pending local write: the scrubber
  // must flag tamper, not rot.
  std::vector<StoredObjectInfo> stored = device_.backend().ScanStoredObjects();
  ASSERT_FALSE(stored.empty());
  (void)device_.TakeDirty();  // Nothing locally dirty.
  ASSERT_TRUE(device_.backend()
                  .RepairStoredObject(stored[0].id, Bytes(32, 0xEE))
                  .ok());

  Scrubber scrubber(&device_, &cloud_);
  ScrubReport report = scrubber.Scrub();
  EXPECT_EQ(report.rot_detected, 0u);
  EXPECT_EQ(report.tamper_suspect, 1u);
  ASSERT_EQ(report.tampered.size(), 1u);
  EXPECT_EQ(report.tampered[0], stored[0].id);
}

// --- Write-back + restore. --------------------------------------------------

TEST_F(ScrubFixture, RestoreRebuildsByteIdenticalVolume) {
  PopulateAndFlush();
  auto want = CaptureLogicalVolume(*fs_);
  ASSERT_TRUE(want.ok());

  BlockDevice fresh(MakeJournaledBackend());
  auto report = RestoreVolumeFromCloud(cloud_, fresh, queue_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->objects_fetched, 0u);
  EXPECT_GT(report->elapsed.nanos(), 0);

  EventQueue queue2;
  auto mounted = EncFs::Mount(&fresh, &queue2, 12, "pw", FastOptions());
  ASSERT_TRUE(mounted.ok()) << mounted.status();
  auto got = CaptureLogicalVolume(**mounted);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);
}

TEST_F(ScrubFixture, AbortedFlushKeepsPreviousConsistentGeneration) {
  PopulateAndFlush();
  uint64_t gen_before = writeback_.generation();
  ASSERT_TRUE(fs_->Write("/docs/f0", 0, Bytes(500, 0x77)).ok());
  writeback_.FlushNow([](Status) { FAIL() << "aborted flush completed"; });
  // Crash the uploader before any completion event runs.
  writeback_.AbortInFlight();
  queue_.RunUntilIdle();
  cloud_.SettleNow();
  EXPECT_EQ(writeback_.generation(), gen_before);

  // The cloud still restores the previous consistent generation.
  BlockDevice fresh(MakeJournaledBackend());
  auto report = RestoreVolumeFromCloud(cloud_, fresh, queue_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->generation, gen_before);

  // And the retried flush publishes the new write.
  bool flushed = false;
  writeback_.FlushNow([&](Status status) {
    ASSERT_TRUE(status.ok());
    flushed = true;
  });
  queue_.RunUntilIdle();
  ASSERT_TRUE(flushed);
  EXPECT_EQ(writeback_.generation(), gen_before + 1);
}

TEST(CloudStoreTest, PutIsInvisibleUntilLagElapses) {
  EventQueue queue;
  SimObjectStore cloud(&queue);
  bool uploaded = false;
  cloud.Put("k", {1, 2, 3}, [&](Status status) {
    EXPECT_TRUE(status.ok());
    uploaded = true;
  });
  queue.AdvanceBy(cloud.PutDelay(3));
  ASSERT_TRUE(uploaded);
  EXPECT_FALSE(cloud.HasVisible("k"));  // Still settling.
  queue.AdvanceBy(SimObjectStore::kVisibilityLag);
  EXPECT_TRUE(cloud.HasVisible("k"));
}

}  // namespace
}  // namespace keypad
