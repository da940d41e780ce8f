// Tests for the key service and metadata service: direct API, RPC protocol
// with device authentication, hash-chain tamper evidence, revocation, and
// pathname reconstruction.

#include <gtest/gtest.h>

#include "src/keyservice/audit_log.h"
#include "src/keyservice/key_service.h"
#include "src/keyservice/key_service_client.h"
#include "src/metaservice/metadata_service.h"
#include "src/metaservice/metadata_service_client.h"
#include "src/net/link.h"
#include "src/net/profile.h"

namespace keypad {
namespace {

class KeyServiceTest : public ::testing::Test {
 protected:
  KeyServiceTest() : service_(&queue_, /*rng_seed=*/1), rng_(uint64_t{2}) {
    secret_ = service_.RegisterDevice("laptop");
  }

  AuditId NewId() { return AuditId::Random(rng_); }

  EventQueue queue_;
  KeyService service_;
  SecureRandom rng_;
  Bytes secret_;
};

TEST_F(KeyServiceTest, CreateThenGetReturnsSameKey) {
  AuditId id = NewId();
  auto created = service_.CreateKey("laptop", id);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->size(), KeyService::kRemoteKeyLen);
  auto fetched = service_.GetKey("laptop", id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, *created);
}

TEST_F(KeyServiceTest, CreateDuplicateIdFails) {
  AuditId id = NewId();
  ASSERT_TRUE(service_.CreateKey("laptop", id).ok());
  auto dup = service_.CreateKey("laptop", id);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(KeyServiceTest, EveryOperationIsLoggedBeforeReturning) {
  AuditId id = NewId();
  service_.CreateKey("laptop", id);
  service_.GetKey("laptop", id);
  service_.GetKey("laptop", id, AccessOp::kRefresh);
  service_.NoteEviction("laptop", id);
  ASSERT_EQ(service_.log().size(), 4u);
  EXPECT_EQ(service_.log().entries()[0].op, AccessOp::kCreate);
  EXPECT_EQ(service_.log().entries()[1].op, AccessOp::kDemandFetch);
  EXPECT_EQ(service_.log().entries()[2].op, AccessOp::kRefresh);
  EXPECT_EQ(service_.log().entries()[3].op, AccessOp::kEviction);
  EXPECT_TRUE(service_.log().Verify().ok());
}

TEST_F(KeyServiceTest, UnregisteredDeviceRejected) {
  AuditId id = NewId();
  auto result = service_.CreateKey("stranger", id);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(KeyServiceTest, DisableDeviceBlocksAndLogsAttempts) {
  AuditId id = NewId();
  service_.CreateKey("laptop", id);
  ASSERT_TRUE(service_.DisableDevice("laptop").ok());
  EXPECT_TRUE(service_.IsDeviceDisabled("laptop"));

  size_t log_before = service_.log().size();
  auto result = service_.GetKey("laptop", id);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  // The denied attempt itself appears in the audit trail.
  ASSERT_EQ(service_.log().size(), log_before + 1);
  EXPECT_EQ(service_.log().entries().back().op, AccessOp::kDenied);

  ASSERT_TRUE(service_.EnableDevice("laptop").ok());
  EXPECT_TRUE(service_.GetKey("laptop", id).ok());
}

TEST_F(KeyServiceTest, DisableSingleKey) {
  AuditId id1 = NewId(), id2 = NewId();
  service_.CreateKey("laptop", id1);
  service_.CreateKey("laptop", id2);
  ASSERT_TRUE(service_.DisableKey("laptop", id1).ok());
  EXPECT_FALSE(service_.GetKey("laptop", id1).ok());
  EXPECT_TRUE(service_.GetKey("laptop", id2).ok());
}

TEST_F(KeyServiceTest, DestroyKeyIsPermanent) {
  AuditId id = NewId();
  service_.CreateKey("laptop", id);
  ASSERT_TRUE(service_.DestroyKey("laptop", id).ok());
  EXPECT_EQ(service_.GetKey("laptop", id).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service_.key_count(), 0u);
}

TEST_F(KeyServiceTest, BatchGetLogsEachKeySkipsUnknown) {
  std::vector<AuditId> ids = {NewId(), NewId(), NewId()};
  service_.CreateKey("laptop", ids[0]);
  service_.CreateKey("laptop", ids[2]);
  size_t log_before = service_.log().size();
  auto result = service_.GetKeys("laptop", ids);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // ids[1] unknown -> skipped.
  EXPECT_EQ(service_.log().size(), log_before + 2);
  EXPECT_EQ(service_.log().entries().back().op, AccessOp::kPrefetch);
}

TEST_F(KeyServiceTest, LogSinceFiltersByTimestamp) {
  AuditId id = NewId();
  service_.CreateKey("laptop", id);
  queue_.AdvanceBy(SimDuration::Seconds(100));
  SimTime cutoff = queue_.Now();
  service_.GetKey("laptop", id);
  auto entries = service_.LogSince(cutoff);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].op, AccessOp::kDemandFetch);
}

TEST_F(KeyServiceTest, FetchGroupLogsDemandAndPrefetchDistinctly) {
  AuditId demand = NewId(), sibling1 = NewId(), sibling2 = NewId();
  service_.CreateKey("laptop", demand);
  service_.CreateKey("laptop", sibling1);
  service_.CreateKey("laptop", sibling2);
  size_t before = service_.log().size();

  auto group = service_.FetchGroup("laptop", demand, {sibling1, sibling2});
  ASSERT_TRUE(group.ok());
  EXPECT_FALSE(group->demand_key.empty());
  EXPECT_EQ(group->prefetched.size(), 2u);
  ASSERT_EQ(service_.log().size(), before + 3);
  EXPECT_EQ(service_.log().entries()[before].op, AccessOp::kDemandFetch);
  EXPECT_EQ(service_.log().entries()[before + 1].op, AccessOp::kPrefetch);
  EXPECT_EQ(service_.log().entries()[before + 2].op, AccessOp::kPrefetch);
}

TEST_F(KeyServiceTest, FetchGroupDeduplicatesDemandFromPrefetchList) {
  AuditId demand = NewId();
  service_.CreateKey("laptop", demand);
  auto group = service_.FetchGroup("laptop", demand, {demand});
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE(group->prefetched.empty());
}

TEST_F(KeyServiceTest, FetchGroupFailsWhenDemandKeyMissing) {
  auto group = service_.FetchGroup("laptop", NewId(), {});
  EXPECT_EQ(group.status().code(), StatusCode::kNotFound);
}

TEST_F(KeyServiceTest, JournalUploadStoresKeysAndClientTimes) {
  queue_.AdvanceBy(SimDuration::Hours(1));
  std::vector<KeyService::JournalEntry> entries;
  AuditId created = NewId();
  KeyService::JournalEntry create;
  create.audit_id = created;
  create.op = AccessOp::kCreate;
  create.client_time = SimTime::Epoch() + SimDuration::Minutes(10);
  create.key = Bytes(32, 0x11);
  entries.push_back(create);
  KeyService::JournalEntry fetch;
  fetch.audit_id = created;
  fetch.op = AccessOp::kDemandFetch;
  fetch.client_time = SimTime::Epoch() + SimDuration::Minutes(20);
  entries.push_back(fetch);

  ASSERT_TRUE(service_.UploadJournal("laptop", entries).ok());
  // The phone-minted key is now served.
  auto key = service_.GetKey("laptop", created);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, Bytes(32, 0x11));
  // The log carries the original client timestamps.
  const auto& log_entries = service_.log().entries();
  ASSERT_GE(log_entries.size(), 3u);
  EXPECT_EQ(log_entries[0].client_time.nanos(),
            (SimTime::Epoch() + SimDuration::Minutes(10)).nanos());
  EXPECT_LT(log_entries[0].client_time, log_entries[0].timestamp);
  EXPECT_TRUE(service_.log().Verify().ok());
}

TEST_F(KeyServiceTest, JournalUploadDoesNotOverwriteExistingKeys) {
  AuditId id = NewId();
  auto original = service_.CreateKey("laptop", id);
  ASSERT_TRUE(original.ok());
  KeyService::JournalEntry create;
  create.audit_id = id;
  create.op = AccessOp::kCreate;
  create.client_time = queue_.Now();
  create.key = Bytes(32, 0xEE);  // A conflicting (late) journaled create.
  ASSERT_TRUE(service_.UploadJournal("laptop", {create}).ok());
  EXPECT_EQ(*service_.GetKey("laptop", id), *original);
}

TEST_F(KeyServiceTest, JournalUploadRejectedForDisabledDevice) {
  ASSERT_TRUE(service_.DisableDevice("laptop").ok());
  KeyService::JournalEntry entry;
  entry.audit_id = NewId();
  entry.op = AccessOp::kDemandFetch;
  entry.client_time = queue_.Now();
  EXPECT_EQ(service_.UploadJournal("laptop", {entry}).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(KeyServiceTest, SnapshotRestoreRoundTrip) {
  AuditId id1 = NewId(), id2 = NewId();
  auto k1 = service_.CreateKey("laptop", id1);
  auto k2 = service_.CreateKey("laptop", id2);
  service_.GetKey("laptop", id1).status();
  ASSERT_TRUE(service_.DisableKey("laptop", id2).ok());
  Bytes snapshot = service_.Snapshot();

  // A second service instance (the backup replica) restores the state.
  EventQueue queue2;
  KeyService replica(&queue2, /*rng_seed=*/99);
  ASSERT_TRUE(replica.Restore(snapshot).ok());
  EXPECT_TRUE(replica.log().Verify().ok());
  EXPECT_EQ(replica.log().size(), service_.log().size());
  auto restored = replica.GetKey("laptop", id1);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, *k1);
  EXPECT_FALSE(replica.GetKey("laptop", id2).ok());  // Still disabled.
  // Device auth carries over.
  EXPECT_EQ(*replica.DeviceSecret("laptop"), secret_);
}

TEST_F(KeyServiceTest, TamperedSnapshotRejected) {
  AuditId id = NewId();
  service_.CreateKey("laptop", id);
  service_.GetKey("laptop", id).status();
  Bytes snapshot = service_.Snapshot();

  // Flip a byte inside the serialized log region and try to restore.
  bool rejected_some = false;
  for (size_t pos = snapshot.size() / 2; pos < snapshot.size(); pos += 7) {
    Bytes bad = snapshot;
    bad[pos] ^= 1;
    EventQueue queue2;
    KeyService replica(&queue2, 1);
    Status status = replica.Restore(bad);
    if (!status.ok()) {
      rejected_some = true;
    } else {
      // If it restored, the chain must still verify (the flipped byte was
      // in a non-log field like a stored key).
      EXPECT_TRUE(replica.log().Verify().ok());
    }
  }
  EXPECT_TRUE(rejected_some);
}

TEST(AuditLogTest, TamperingBreaksChain) {
  EventQueue queue;
  AuditLog log;
  SecureRandom rng(uint64_t{3});
  for (int i = 0; i < 5; ++i) {
    log.Append(queue.Now(), "dev", AuditId::Random(rng),
               AccessOp::kDemandFetch);
  }
  ASSERT_TRUE(log.Verify().ok());
  log.CorruptEntryForTesting(2);
  auto status = log.Verify();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(AuditLogTest, EntryWireRoundTrip) {
  EventQueue queue;
  AuditLog log;
  SecureRandom rng(uint64_t{4});
  log.Append(queue.Now(), "dev", AuditId::Random(rng), AccessOp::kPrefetch);
  const auto& entry = log.entries()[0];
  auto back = AuditLogEntry::FromWire(entry.ToWire());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->seq, entry.seq);
  EXPECT_EQ(back->audit_id, entry.audit_id);
  EXPECT_EQ(back->op, entry.op);
  EXPECT_EQ(back->entry_hash, entry.entry_hash);
}

// --- Key service over RPC with auth. --------------------------------------

class KeyServiceRpcTest : public ::testing::Test {
 protected:
  KeyServiceRpcTest()
      : link_(&queue_, BroadbandProfile()),
        rpc_server_(&queue_, SimDuration::Micros(150)),
        service_(&queue_, /*rng_seed=*/5),
        rpc_client_(&queue_, &link_, &rpc_server_),
        rng_(uint64_t{6}) {
    service_.BindRpc(&rpc_server_);
    Bytes secret = service_.RegisterDevice("laptop");
    client_ = std::make_unique<KeyServiceClient>(&rpc_client_, "laptop",
                                                 secret);
  }

  EventQueue queue_;
  NetworkLink link_;
  RpcServer rpc_server_;
  KeyService service_;
  RpcClient rpc_client_;
  SecureRandom rng_;
  std::unique_ptr<KeyServiceClient> client_;
};

TEST_F(KeyServiceRpcTest, EndToEndCreateGetBatchEvict) {
  AuditId id1 = AuditId::Random(rng_);
  AuditId id2 = AuditId::Random(rng_);
  auto k1 = client_->CreateKey(id1);
  ASSERT_TRUE(k1.ok());
  auto k2 = client_->CreateKey(id2);
  ASSERT_TRUE(k2.ok());

  auto got = client_->GetKey(id1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *k1);

  auto batch = client_->GetKeys({id1, id2});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 2u);

  client_->NoteEvictionAsync(id1);
  queue_.RunUntilIdle();
  EXPECT_EQ(service_.log().entries().back().op, AccessOp::kEviction);
  EXPECT_TRUE(service_.log().Verify().ok());
}

TEST_F(KeyServiceRpcTest, BadAuthTagRejected) {
  KeyServiceClient bad_client(&rpc_client_, "laptop", Bytes(32, 0x42));
  auto result = bad_client.CreateKey(AuditId::Random(rng_));
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  // The forged call never reached the key map or produced a key.
  EXPECT_EQ(service_.key_count(), 0u);
}

TEST_F(KeyServiceRpcTest, UnknownDeviceRejected) {
  KeyServiceClient stranger(&rpc_client_, "stranger", Bytes(32, 1));
  auto result = stranger.GetKey(AuditId::Random(rng_));
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(KeyServiceRpcTest, AsyncCreateCompletes) {
  AuditId id = AuditId::Random(rng_);
  bool done = false;
  client_->CreateKeyAsync(id, [&](Result<Bytes> r) {
    done = true;
    EXPECT_TRUE(r.ok());
  });
  queue_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_TRUE(service_.GetKey("laptop", id).ok());
}

// --- Metadata service. -----------------------------------------------------

class MetadataServiceTest : public ::testing::Test {
 protected:
  MetadataServiceTest()
      : service_(&queue_, /*rng_seed=*/7, TestPairingParams()),
        rng_(uint64_t{8}) {
    service_.RegisterDevice("laptop");
    root_ = DirId::Random(rng_);
    EXPECT_TRUE(service_.RegisterRoot("laptop", root_).ok());
  }

  EventQueue queue_;
  MetadataService service_;
  SecureRandom rng_;
  DirId root_;
};

TEST_F(MetadataServiceTest, FileBindingAndPathResolution) {
  AuditId id = AuditId::Random(rng_);
  auto key = service_.RegisterFileBinding("laptop", id, root_, "taxes.pdf",
                                          /*is_rename=*/false);
  ASSERT_TRUE(key.ok());
  auto path = service_.ResolvePath("laptop", id, queue_.Now());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/taxes.pdf");
}

TEST_F(MetadataServiceTest, NestedDirectoriesResolve) {
  DirId home = DirId::Random(rng_);
  DirId docs = DirId::Random(rng_);
  ASSERT_TRUE(service_.RegisterMkdir("laptop", home, root_, "home").ok());
  ASSERT_TRUE(service_.RegisterMkdir("laptop", docs, home, "docs").ok());
  AuditId id = AuditId::Random(rng_);
  ASSERT_TRUE(service_
                  .RegisterFileBinding("laptop", id, docs, "cv.tex",
                                       /*is_rename=*/false)
                  .ok());
  auto path = service_.ResolvePath("laptop", id, queue_.Now());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/home/docs/cv.tex");
}

TEST_F(MetadataServiceTest, RenameUpdatesLatestPathButKeepsHistory) {
  AuditId id = AuditId::Random(rng_);
  service_.RegisterFileBinding("laptop", id, root_, "irs_form.pdf", false);
  queue_.AdvanceBy(SimDuration::Seconds(10));
  SimTime before_rename = queue_.Now();
  queue_.AdvanceBy(SimDuration::Seconds(10));
  service_.RegisterFileBinding("laptop", id, root_, "prepared_taxes.pdf",
                               true);

  auto now_path = service_.ResolvePath("laptop", id, queue_.Now());
  ASSERT_TRUE(now_path.ok());
  EXPECT_EQ(*now_path, "/prepared_taxes.pdf");

  // As-of queries see the old binding: history is never rewritten.
  auto old_path = service_.ResolvePath("laptop", id, before_rename);
  ASSERT_TRUE(old_path.ok());
  EXPECT_EQ(*old_path, "/irs_form.pdf");

  EXPECT_EQ(service_.HistoryOf("laptop", id).size(), 2u);
}

TEST_F(MetadataServiceTest, DirRenameReflectsInPaths) {
  DirId dir = DirId::Random(rng_);
  service_.RegisterMkdir("laptop", dir, root_, "tmp");
  AuditId id = AuditId::Random(rng_);
  service_.RegisterFileBinding("laptop", id, dir, "f.txt", false);
  queue_.AdvanceBy(SimDuration::Seconds(1));
  service_.RegisterDirRename("laptop", dir, root_, "archive");
  auto path = service_.ResolvePath("laptop", id, queue_.Now());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/archive/f.txt");
}

TEST_F(MetadataServiceTest, BindingReleasesWorkingIbeKey) {
  AuditId id = AuditId::Random(rng_);
  DirId dir = root_;
  std::string name = "locked.doc";
  std::string identity = IbeIdentityFor(dir, name, id);

  // Client locks a payload under the identity before registering.
  SecureRandom client_rng(uint64_t{9});
  Bytes payload = BytesOf("wrapped data key");
  auto ct = IbeEncrypt(service_.ibe_params(), identity, payload, client_rng);
  ASSERT_TRUE(ct.ok());

  auto key_bytes =
      service_.RegisterFileBinding("laptop", id, dir, name, false);
  ASSERT_TRUE(key_bytes.ok());
  auto key = IbePrivateKey::Deserialize(identity, *key_bytes,
                                        *service_.ibe_params().group);
  ASSERT_TRUE(key.ok());
  auto opened = IbeDecrypt(service_.ibe_params(), *key, *ct);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

TEST_F(MetadataServiceTest, LyingAboutThePathYieldsUselessKey) {
  AuditId id = AuditId::Random(rng_);
  std::string true_identity = IbeIdentityFor(root_, "secret_plans.doc", id);
  SecureRandom client_rng(uint64_t{10});
  auto ct = IbeEncrypt(service_.ibe_params(), true_identity,
                       BytesOf("data key"), client_rng);
  ASSERT_TRUE(ct.ok());

  // Thief registers a bogus name to avoid revealing the real one.
  auto bogus_key_bytes =
      service_.RegisterFileBinding("laptop", id, root_, "download.tmp", false);
  ASSERT_TRUE(bogus_key_bytes.ok());
  auto bogus_key = IbePrivateKey::Deserialize(
      IbeIdentityFor(root_, "download.tmp", id), *bogus_key_bytes,
      *service_.ibe_params().group);
  ASSERT_TRUE(bogus_key.ok());
  EXPECT_FALSE(IbeDecrypt(service_.ibe_params(), *bogus_key, *ct).ok());
  // ...and the lie is on the record.
  EXPECT_EQ(service_.log().records().back().name, "download.tmp");
}

TEST_F(MetadataServiceTest, LogTamperDetected) {
  AuditId id = AuditId::Random(rng_);
  service_.RegisterFileBinding("laptop", id, root_, "a", false);
  service_.RegisterFileBinding("laptop", id, root_, "b", true);
  // Can't use const log for corruption; verify through a copy-free route:
  MetadataLog& log = const_cast<MetadataLog&>(service_.log());
  ASSERT_TRUE(log.Verify().ok());
  log.CorruptRecordForTesting(1);
  EXPECT_EQ(log.Verify().code(), StatusCode::kDataLoss);
}

TEST_F(MetadataServiceTest, UnknownAuditIdHasNoPath) {
  auto path =
      service_.ResolvePath("laptop", AuditId::Random(rng_), queue_.Now());
  EXPECT_EQ(path.status().code(), StatusCode::kNotFound);
}

// --- Metadata service over RPC. --------------------------------------------

TEST(MetadataServiceRpcTest, EndToEndBindOverNetwork) {
  EventQueue queue;
  NetworkLink link(&queue, CellularProfile());
  RpcServer rpc_server(&queue, SimDuration::Micros(150));
  MetadataService service(&queue, /*rng_seed=*/11, TestPairingParams());
  service.BindRpc(&rpc_server);
  RpcClient rpc(&queue, &link, &rpc_server);

  Bytes secret = service.RegisterDevice("laptop");
  MetadataServiceClient client(&rpc, "laptop", secret);

  SecureRandom rng(uint64_t{12});
  DirId root = DirId::Random(rng);
  ASSERT_TRUE(client.RegisterRoot(root).ok());

  AuditId id = AuditId::Random(rng);
  auto key = client.BindFile(id, root, "report.odt", false);
  ASSERT_TRUE(key.ok());
  EXPECT_FALSE(key->empty());

  bool done = false;
  client.BindFileAsync(id, root, "report-v2.odt", true,
                       [&](Result<Bytes> r) {
                         done = true;
                         EXPECT_TRUE(r.ok());
                       });
  queue.RunUntilIdle();
  EXPECT_TRUE(done);

  auto path = service.ResolvePath("laptop", id, queue.Now());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/report-v2.odt");
}

}  // namespace
}  // namespace keypad
