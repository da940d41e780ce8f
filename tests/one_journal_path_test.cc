// One journal path from the paired phone to the audit log (DESIGN.md §32),
// and three faults around it:
//
//  * Both tiers' upload verbs carry one fixed journal in request frames
//    pinned byte for byte, XML and binary.
//  * A failed metadata flush keeps exactly its batch, ahead of what the
//    phone journaled while it was in flight, and the next reconnect seals
//    each record once.
//  * A correctly chained row whose op names no op of its tier is refused
//    with DataLoss, and the restore changes nothing.
//  * A rejoining replica's refusal names the leader, so a replica-aware
//    stub follows it in one redirect.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cryptocore/sha256.h"
#include "src/keypad/deployment.h"
#include "src/keyservice/key_service.h"
#include "src/keyservice/key_service_client.h"
#include "src/metaservice/metadata_service.h"
#include "src/metaservice/metadata_service_client.h"
#include "src/wire/codec.h"

namespace keypad {
namespace {

// --- Golden upload frames. --------------------------------------------------

std::string HexHash(const std::string& bytes) {
  const Sha256::Digest digest = Sha256::Hash(std::string_view(bytes));
  return ToHex(digest.data(), digest.size());
}

// The framed params the stub's upload delivered to a server that records
// them, once over an XML client and once over a binary one.
struct Captured {
  WireValue::Array xml;
  WireValue::Array binary;
};

template <typename Upload>
Captured CaptureUpload(const std::string& method, Upload upload) {
  EventQueue queue;
  NetworkLink link(&queue, LanProfile(), 7);
  RpcServer server(&queue, SimDuration::Micros(10));
  WireValue::Array last;
  server.RegisterMethod(method, [&](const WireValue::Array& params)
                                    -> Result<WireValue> {
    last = params;
    return WireValue(true);
  });
  Captured captured;
  for (WireCodec codec : {WireCodec::kXml, WireCodec::kBinary}) {
    RpcOptions options;
    options.codec = codec;
    RpcClient rpc(&queue, &link, &server, options);
    EXPECT_TRUE(upload(&rpc).ok());
    (codec == WireCodec::kXml ? captured.xml : captured.binary) = last;
  }
  return captured;
}

// SHA-256 of the request `params` make in `codec`.
std::string FrameHash(WireCodec codec, const std::string& method,
                      const WireValue::Array& params) {
  std::string out;
  EncodeCallInto(codec, method, params, out);
  return HexHash(out);
}

TEST(JournalGoldenTest, BothUploadVerbsCarryPinnedFrames) {
  SecureRandom rng(0x10ca1);
  const std::string device = "laptop-golden";
  const Bytes secret = rng.NextBytes(32);
  const AuditId created = AuditId::Random(rng);
  const AuditId evicted = AuditId::Random(rng);
  const AuditId bound = AuditId::Random(rng);
  const DirId root = DirId::Random(rng);
  const DirId dir = DirId::Random(rng);

  std::vector<KeyClient::JournalEntry> keys = {
      {created, AccessOp::kCreate, SimTime(1'000), rng.NextBytes(32)},
      {evicted, AccessOp::kEviction, SimTime(2'000), {}},
  };
  std::vector<MetadataRecord> names(4);
  names[0].op = MetadataOp::kCreateFile;
  names[0].audit_id = bound;
  names[0].dir_id = root;
  names[0].name = "draft.txt";
  names[0].client_time = SimTime(3'000);
  names[1].op = MetadataOp::kRenameFile;
  names[1].audit_id = bound;
  names[1].dir_id = root;
  names[1].name = "final.txt";
  names[1].client_time = SimTime(4'000);
  names[2].op = MetadataOp::kMkdir;
  names[2].dir_id = dir;
  names[2].parent_dir_id = root;
  names[2].name = "trip";
  names[2].client_time = SimTime(5'000);
  names[3].op = MetadataOp::kRenameDir;
  names[3].dir_id = dir;
  names[3].parent_dir_id = root;
  names[3].name = "trip-2011";
  names[3].client_time = SimTime(6'000);

  const std::string key_method = "key.upload_journal";
  const Captured key = CaptureUpload(key_method, [&](RpcClient* rpc) {
    return KeyServiceClient(rpc, device, secret).UploadJournal(keys);
  });
  const std::string meta_method = "meta.upload_journal";
  const Captured meta = CaptureUpload(meta_method, [&](RpcClient* rpc) {
    return MetadataServiceClient(rpc, device, secret).UploadJournal(names);
  });

  // Frame, tag and one journal array, whichever codec carried them.
  for (const Captured* c : {&key, &meta}) {
    ASSERT_EQ(c->xml.size(), 3u);
    ASSERT_EQ(c->binary.size(), 3u);
    EXPECT_EQ(FrameHash(WireCodec::kBinary, "", c->xml),
              FrameHash(WireCodec::kBinary, "", c->binary));
  }
  EXPECT_EQ(
      FrameHash(WireCodec::kXml, key_method, key.xml),
      "fddb3d62e42c1db92676233400f7be6de3f0430ae3eb96e493482ec4fed79524");
  EXPECT_EQ(
      FrameHash(WireCodec::kBinary, key_method, key.binary),
      "5a1d548cbe3a3d199db4dd5bd916f6dc0362b5933cc519f83e062ee77ccc42fd");
  EXPECT_EQ(
      FrameHash(WireCodec::kXml, meta_method, meta.xml),
      "e2db30aeac2a63bf0f692de07ed1c8a57e5d357d930d26ea4af5c73ed89b989b");
  EXPECT_EQ(
      FrameHash(WireCodec::kBinary, meta_method, meta.binary),
      "5cdfd5fca93c7ba166574e071c26be4ee24b10dd117723248f9f08b124b7da85");
}

// --- A failed metadata flush. -----------------------------------------------

DeploymentOptions PairedOpts() {
  DeploymentOptions options;
  options.profile = CellularProfile();
  options.paired_phone = true;
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  return options;
}

// The names of `device`'s mkdir rows in the metadata log, in log order.
std::vector<std::string> MkdirRows(const MetadataService& service,
                                   const std::string& device) {
  std::vector<std::string> names;
  for (const MetadataRecord& record : service.log().records()) {
    if (record.device_id == device && record.op == MetadataOp::kMkdir &&
        !record.name.empty()) {
      names.push_back(record.name);
    }
  }
  return names;
}

TEST(PhoneJournalTest, FailedMetaFlushKeepsItsBatchAheadOfNewerRecords) {
  Deployment dep(PairedOpts());
  KeypadFs& fs = dep.fs();
  PhoneProxy& phone = *dep.phone();
  const std::string device = dep.device_id();

  phone.SetUplinkConnected(false);
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  ASSERT_EQ(phone.meta_journal_size(), 2u);
  ASSERT_EQ(phone.key_journal_size(), 0u);

  // The metadata tier is down when the uplink returns, and the uplink
  // drops again while the upload is still waiting on it; the laptop makes
  // one more directory meanwhile.
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kCrash)).ok());
  bool made_c = false;
  dep.queue().ScheduleAfter(SimDuration::Seconds(1), [&] {
    phone.SetUplinkConnected(false);
    made_c = fs.Mkdir("/c").ok();
  });
  const uint64_t uploaded = phone.stats().journal_entries_uploaded;
  phone.SetUplinkConnected(true);
  ASSERT_TRUE(made_c);
  EXPECT_FALSE(phone.online());
  EXPECT_EQ(phone.meta_journal_size(), 3u);
  EXPECT_EQ(phone.stats().journal_entries_uploaded, uploaded);

  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kRestart)).ok());
  dep.queue().AdvanceBy(SimDuration::Minutes(2));
  ASSERT_TRUE(MkdirRows(dep.metadata_service(), device).empty());
  phone.SetUplinkConnected(true);
  EXPECT_EQ(phone.meta_journal_size(), 0u);
  EXPECT_EQ(phone.stats().journal_entries_uploaded, uploaded + 3);
  EXPECT_EQ(MkdirRows(dep.metadata_service(), device),
            (std::vector<std::string>{"a", "b", "c"}));
}

// --- Rows with an op their tier does not have. ------------------------------

TEST(UnknownOpRowTest, KeyTierRestoreRefusesIt) {
  EventQueue queue;
  KeyService source(&queue, 1);
  source.RegisterDeviceWithSecret("dev", Bytes(32, 0x11));
  SecureRandom rng(2);
  const AuditId id = AuditId::Random(rng);
  ASSERT_TRUE(source.CreateKey("dev", id).ok());
  ASSERT_TRUE(source
                  .UploadJournal("dev", {{id, static_cast<AccessOp>(9),
                                          queue.Now(), {}}})
                  .ok());
  ASSERT_TRUE(source.log().Verify().ok());

  KeyService target(&queue, 3);
  target.RegisterDeviceWithSecret("other", Bytes(32, 0x22));
  const Bytes before = target.Snapshot();
  Status restored = target.Restore(source.Snapshot());
  EXPECT_EQ(restored.code(), StatusCode::kDataLoss) << restored;
  EXPECT_TRUE(target.Snapshot() == before);
  EXPECT_EQ(target.log().size(), 0u);
}

TEST(UnknownOpRowTest, MetaTierRestoreRefusesIt) {
  EventQueue queue;
  const PairingParams& group = TestPairingParams();
  MetadataService source(&queue, 1, group);
  source.RegisterDeviceWithSecret("dev", Bytes(32, 0x11));
  SecureRandom rng(2);
  ASSERT_TRUE(source.RegisterRoot("dev", DirId::Random(rng)).ok());
  MetadataRecord odd;
  odd.op = static_cast<MetadataOp>(9);
  odd.audit_id = AuditId::Random(rng);
  odd.name = "odd";
  ASSERT_TRUE(source.UploadJournal("dev", {odd}).ok());
  ASSERT_TRUE(source.log().Verify().ok());

  MetadataService target(&queue, 3, group);
  target.RegisterDeviceWithSecret("other", Bytes(32, 0x22));
  const Bytes before = target.Snapshot();
  Status restored = target.Restore(source.Snapshot());
  EXPECT_EQ(restored.code(), StatusCode::kDataLoss) << restored;
  EXPECT_TRUE(target.Snapshot() == before);
  EXPECT_EQ(target.log().size(), 0u);
}

// --- A rejoining replica names the leader. ----------------------------------

TEST(RejoinRedirectTest, AStubAimedAtARejoiningReplicaFollowsOneRedirect) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.key_replicas = 3;
  options.rpc.timeout = SimDuration::Seconds(3);
  options.rpc.retry.max_attempts = 2;
  Deployment dep(options);
  KeypadFs& fs = dep.fs();
  ASSERT_TRUE(fs.Create("/f").ok());
  ASSERT_TRUE(fs.WriteAll("/f", BytesOf("secret")).ok());
  const AuditId id = fs.ReadHeaderOf("/f")->audit_id;

  // Replica 0 leads, is cut off while replica 1 promotes, crashes and
  // comes back: it is rejoining when the stub's first call reaches it.
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kPartition, 0, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_TRUE(dep.replica_set(0)->is_leader(1));
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0, 0)).ok());
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kHeal, 0, 0)).ok());
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0, 0)).ok());
  ASSERT_FALSE(dep.replica_set(0)->is_leader(0));
  ASSERT_EQ(dep.replica_set(0)->leader_view(0), 0u);

  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  ASSERT_TRUE(clients.ok());
  KeyServiceClient& stub = *clients->key;
  ASSERT_EQ(stub.replica_count(), 3u);
  ASSERT_EQ(stub.leader_hint(), 0u);

  auto key = stub.GetKey(id);
  ASSERT_TRUE(key.ok()) << key.status();
  EXPECT_EQ(stub.redirects(), 1u);
  EXPECT_EQ(stub.failovers(), 0u);
  EXPECT_EQ(stub.leader_hint(), 1u);
}

}  // namespace
}  // namespace keypad
