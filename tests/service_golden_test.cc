// Golden formats for both audit services: a fixed scripted history runs on
// each tier, once with default log options and once with four-entry
// segments and truncation, and the test pins
//
//   * the SHA-256 of the service's Snapshot() bytes,
//   * the SHA-256 over the SHA-256s of every replication delta's wire
//     encoding, captured by a recording replicator, and
//   * the log's tip hash,
//
// and that Restore(Snapshot()) re-snapshots byte for byte. Snapshots and
// deltas cross the wire between replicas (reconciliation ships snapshots as
// "snap"), so any change to these bytes is a protocol change.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "src/cryptocore/sha256.h"
#include "src/keyservice/key_service.h"
#include "src/metaservice/metadata_service.h"
#include "src/wire/binary_codec.h"

namespace keypad {
namespace {

std::string Hex(const Sha256::Digest& digest) {
  return ToHex(digest.data(), digest.size());
}

SegmentedLogOptions TruncatingLog() {
  SegmentedLogOptions log;
  log.segment_ops = 4;
  log.truncate = true;
  return log;
}

// What one scripted run leaves behind.
struct Golden {
  std::string snapshot;
  std::string deltas;
  size_t delta_count = 0;
  std::string tip;
  uint64_t base_seq = 0;
};

// Installs a replicator that hashes every delta it is handed and acks it at
// once, so the durable watermark — what every replica holds — is the
// shipped prefix, and truncation may run up to it.
template <typename Service>
class Recorder {
 public:
  explicit Recorder(Service* service) : service_(service) {
    service->set_replicator([this](auto delta, std::function<void()> done) {
      digests_.Update(Sha256::HashBytes(BinaryEncode(delta.ToWire())));
      ++count_;
      done();
    });
    service->set_durable_watermark(
        [service] { return service->shipped_seq(); });
  }

  // Ships whatever the last step staged.
  void Step() { service_->ReplicateNow(); }

  Golden Finish() {
    Golden out;
    Bytes snapshot = service_->Snapshot();
    out.snapshot = Hex(Sha256::Hash(snapshot));
    out.deltas = Hex(digests_.Finish());
    out.delta_count = count_;
    // The chain seal the next row would extend (the base seal when
    // truncation left nothing in memory).
    const auto& log = service_->log();
    out.tip = ToHex(log.entries().empty() ? log.base_seal()
                                          : log.entries().back().entry_hash);
    out.base_seq = service_->log().base_seq();
    EXPECT_TRUE(service_->Restore(snapshot).ok());
    EXPECT_EQ(service_->Snapshot(), snapshot);
    return out;
  }

 private:
  Service* service_;
  Sha256 digests_;
  size_t count_ = 0;
};

Golden RunKeyHistory(SegmentedLogOptions log) {
  EventQueue queue;
  KeyServiceOptions options;
  options.log = log;
  KeyService service(&queue, /*rng_seed=*/101, options);
  Recorder<KeyService> recorder(&service);
  SecureRandom rng(uint64_t{102});

  service.RegisterDevice("dev-a");
  service.RegisterDevice("dev-b");
  AuditId a[4];
  AuditId b[3];
  for (AuditId& id : a) {
    id = AuditId::Random(rng);
    EXPECT_TRUE(service.CreateKey("dev-a", id).ok());
    recorder.Step();
  }
  for (AuditId& id : b) {
    id = AuditId::Random(rng);
    EXPECT_TRUE(service.CreateKey("dev-b", id).ok());
  }
  recorder.Step();
  queue.AdvanceBy(SimDuration::Seconds(1));
  EXPECT_TRUE(service.GetKey("dev-a", a[0]).ok());
  EXPECT_TRUE(service.GetKey("dev-a", a[1], AccessOp::kRefresh).ok());
  EXPECT_TRUE(service.GetKeys("dev-b", {b[0], b[1], AuditId{}}).ok());
  recorder.Step();
  EXPECT_TRUE(service.FetchGroup("dev-a", a[2], {a[3], a[0]}).ok());
  EXPECT_TRUE(service
                  .GetKeysTyped("dev-b", {{b[2], AccessOp::kDemandFetch},
                                          {a[0], AccessOp::kPrefetch}})
                  .ok());
  recorder.Step();
  queue.AdvanceBy(SimDuration::Seconds(1));
  KeyService::JournalEntry journaled;
  journaled.audit_id = AuditId::Random(rng);
  journaled.op = AccessOp::kCreate;
  journaled.client_time = SimTime::Epoch() + SimDuration::Millis(500);
  journaled.key = Bytes(KeyService::kRemoteKeyLen, 0x5a);
  EXPECT_TRUE(service.UploadJournal("dev-a", {journaled}).ok());
  EXPECT_TRUE(service.NoteEviction("dev-a", a[1]).ok());
  EXPECT_TRUE(service.DisableKey("dev-a", a[3]).ok());
  EXPECT_TRUE(service.DestroyKey("dev-b", b[1]).ok());
  recorder.Step();
  queue.AdvanceBy(SimDuration::Seconds(1));
  EXPECT_TRUE(service.DisableDevice("dev-b").ok());
  EXPECT_FALSE(service.GetKey("dev-b", b[0]).ok());
  recorder.Step();
  EXPECT_TRUE(service.TransferDeviceKeys("dev-b", "dev-a").ok());
  recorder.Step();
  return recorder.Finish();
}

// A metadata service with `log` applied before its first append: through
// the constructor, or through ConfigureLog where the service has no such
// constructor parameter — so one unchanged file pins the same bytes against
// either service shape.
template <typename Service = MetadataService>
std::unique_ptr<Service> MakeMetadataService(EventQueue* queue,
                                             SegmentedLogOptions log) {
  if constexpr (std::is_constructible_v<Service, EventQueue*, uint64_t,
                                        const PairingParams&,
                                        SegmentedLogOptions>) {
    return std::make_unique<Service>(queue, uint64_t{201}, TestPairingParams(),
                                     log);
  } else {
    auto service =
        std::make_unique<Service>(queue, uint64_t{201}, TestPairingParams());
    service->ConfigureLog(log);
    return service;
  }
}

Golden RunMetaHistory(SegmentedLogOptions log) {
  EventQueue queue;
  std::unique_ptr<MetadataService> owned =
      MakeMetadataService(&queue, std::move(log));
  MetadataService& service = *owned;
  Recorder<MetadataService> recorder(&service);
  SecureRandom rng(uint64_t{202});

  service.RegisterDevice("dev-a");
  service.RegisterDevice("dev-b");
  DirId root_a = DirId::Random(rng);
  DirId root_b = DirId::Random(rng);
  EXPECT_TRUE(service.RegisterRoot("dev-a", root_a).ok());
  EXPECT_TRUE(service.RegisterRoot("dev-b", root_b).ok());
  recorder.Step();
  DirId docs = DirId::Random(rng);
  EXPECT_TRUE(service.RegisterMkdir("dev-a", docs, root_a, "docs").ok());
  AuditId a[4];
  for (int i = 0; i < 4; ++i) {
    a[i] = AuditId::Random(rng);
    EXPECT_TRUE(service
                    .RegisterFileBinding("dev-a", a[i], docs,
                                         "f" + std::to_string(i), false)
                    .ok());
    recorder.Step();
  }
  queue.AdvanceBy(SimDuration::Seconds(1));
  AuditId b = AuditId::Random(rng);
  EXPECT_TRUE(
      service.RegisterFileBinding("dev-b", b, root_b, "tax.pdf", false).ok());
  EXPECT_TRUE(
      service.RegisterFileBinding("dev-a", a[1], root_a, "moved", true).ok());
  EXPECT_TRUE(
      service.RegisterDirRename("dev-a", docs, root_a, "papers").ok());
  EXPECT_TRUE(service.RegisterAttr("dev-a", a[2], "mode=0600").ok());
  recorder.Step();
  MetadataService::JournalRecord journaled;
  journaled.op = MetadataOp::kCreateFile;
  journaled.audit_id = AuditId::Random(rng);
  journaled.dir_id = root_b;
  journaled.name = "offline.txt";
  journaled.client_time = SimTime::Epoch() + SimDuration::Millis(250);
  EXPECT_TRUE(service.UploadJournal("dev-b", {journaled}).ok());
  recorder.Step();
  queue.AdvanceBy(SimDuration::Seconds(1));
  EXPECT_TRUE(service.DisableDevice("dev-b").ok());
  EXPECT_FALSE(
      service.RegisterFileBinding("dev-b", b, root_b, "x", true).ok());
  recorder.Step();
  return recorder.Finish();
}

TEST(ServiceGoldenTest, KeyTierDefaultLog) {
  Golden g = RunKeyHistory({});
  EXPECT_EQ(g.snapshot,
            "18757980f2c0bac5d82d4f06bedd4362fd4453d3a429702ab8daf11aed53c711");
  EXPECT_EQ(g.deltas,
            "db3b05f4b428904adbc1dd0920917ec3b6593c98bb9a10f9122a98d17891dca8");
  EXPECT_EQ(g.delta_count, 10u);
  EXPECT_EQ(g.tip,
            "f804c4eecccdaeac67edfe18900a0c13a51dff0c0af683504176c3b75e8c23e0");
  EXPECT_EQ(g.base_seq, 0u);
}

TEST(ServiceGoldenTest, KeyTierTruncatingLog) {
  Golden g = RunKeyHistory(TruncatingLog());
  EXPECT_EQ(g.snapshot,
            "f831c2a0a6b2bfb9215496ad4020907b93bc6c13f10f519873354ccd4f771f12");
  EXPECT_EQ(g.deltas,
            "db3b05f4b428904adbc1dd0920917ec3b6593c98bb9a10f9122a98d17891dca8");
  EXPECT_EQ(g.delta_count, 10u);
  EXPECT_EQ(g.tip,
            "f804c4eecccdaeac67edfe18900a0c13a51dff0c0af683504176c3b75e8c23e0");
  EXPECT_EQ(g.base_seq, 18u);
}

TEST(ServiceGoldenTest, MetaTierDefaultLog) {
  Golden g = RunMetaHistory({});
  EXPECT_EQ(g.snapshot,
            "97a239a6fbe9cdb858810ca710c21836e290e42e846796f88f1ce53851a2c85a");
  EXPECT_EQ(g.deltas,
            "78ac9ba815fbfcbf1710a3fafd5333c54f200a8b6362e1457213ebb7f36990a8");
  EXPECT_EQ(g.delta_count, 8u);
  EXPECT_EQ(g.tip,
            "2dc589c8e2c367705a20e7c1cf78a042ec22c7df5de823050af1c38cafa8929d");
  EXPECT_EQ(g.base_seq, 0u);
}

TEST(ServiceGoldenTest, MetaTierTruncatingLog) {
  Golden g = RunMetaHistory(TruncatingLog());
  EXPECT_EQ(g.snapshot,
            "5feff1bc30d17b7abd1ab7fad54f1a437cad3801aba66caee74b660fbda96261");
  EXPECT_EQ(g.deltas,
            "78ac9ba815fbfcbf1710a3fafd5333c54f200a8b6362e1457213ebb7f36990a8");
  EXPECT_EQ(g.delta_count, 8u);
  EXPECT_EQ(g.tip,
            "2dc589c8e2c367705a20e7c1cf78a042ec22c7df5de823050af1c38cafa8929d");
  EXPECT_EQ(g.base_seq, 8u);
}

}  // namespace
}  // namespace keypad
