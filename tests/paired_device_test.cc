// Tests for the paired-device architecture (§3.5): hoard-backed
// disconnected operation, journaling + upload, audit preservation, and the
// performance role as a caching proxy (Fig. 8b).

#include <gtest/gtest.h>

#include "src/keypad/deployment.h"
#include "src/keyservice/auth.h"

namespace keypad {
namespace {

class PairedDeviceTest : public ::testing::Test {
 protected:
  static DeploymentOptions Opts() {
    DeploymentOptions options;
    options.profile = CellularProfile();  // Phone uplink: 3G.
    options.paired_phone = true;
    options.config.ibe_enabled = false;
    options.config.prefetch = PrefetchPolicy::FullDirOnNthMiss(3);
    return options;
  }
  PairedDeviceTest() : dep_(Opts()) {}

  Deployment dep_;
};

// Ids off the Bluetooth link are untrusted: a wrong-length id in any
// argument is refused with InvalidArgument, never dereferenced.
TEST_F(PairedDeviceTest, WrongLengthIdsAreRejected) {
  const std::string device = dep_.device_id();
  Bytes key_secret = *dep_.key_service().DeviceSecret(device);
  Bytes meta_secret = *dep_.metadata_service().DeviceSecret(device);
  const WireValue bad(Bytes(5, 0x01));
  const WireValue name(std::string("x"));
  auto call = [&](RpcClient& rpc, const Bytes& secret,
                  const std::string& method, WireValue::Array payload) {
    return rpc
        .Call(method, FrameAuthedCall(device, secret, method,
                                      std::move(payload)))
        .status()
        .code();
  };
  auto key_call = [&](const std::string& method, WireValue::Array payload) {
    return call(dep_.key_rpc(), key_secret, method, std::move(payload));
  };
  auto meta_call = [&](const std::string& method, WireValue::Array payload) {
    return call(dep_.meta_rpc(), meta_secret, method, std::move(payload));
  };
  const WireValue op(int64_t{1});
  EXPECT_EQ(key_call("key.get", {bad, op}), StatusCode::kInvalidArgument);
  EXPECT_EQ(key_call("key.create", {bad}), StatusCode::kInvalidArgument);
  EXPECT_EQ(key_call("key.evict", {bad}), StatusCode::kInvalidArgument);
  EXPECT_EQ(key_call("key.get_multi", {WireValue(WireValue::Array{bad}),
                                       WireValue(WireValue::Array{op})}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(meta_call("meta.register_root", {bad}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(meta_call("meta.bind_file", {bad, bad, name, WireValue(false)}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(meta_call("meta.mkdir", {bad, bad, name}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(meta_call("meta.rename_dir", {bad, bad, name}),
            StatusCode::kInvalidArgument);
  // Nothing reached the journals.
  EXPECT_EQ(dep_.phone()->key_journal_size(), 0u);
  EXPECT_EQ(dep_.phone()->meta_journal_size(), 0u);
}

TEST_F(PairedDeviceTest, NormalOperationFlowsThroughPhone) {
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Create("/f").ok());
  ASSERT_TRUE(fs.WriteAll("/f", BytesOf("hello")).ok());
  EXPECT_EQ(StringOf(*fs.ReadAll("/f")), "hello");
  EXPECT_GT(dep_.phone()->stats().forwarded_upstream, 0u);
  // The key service logged the creation even though the laptop never
  // talked to it directly.
  EXPECT_GT(dep_.key_service().log().size(), 0u);
}

TEST_F(PairedDeviceTest, HoardServesRepeatMissesWithoutUplink) {
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Create("/f").ok());
  ASSERT_TRUE(fs.WriteAll("/f", BytesOf("x")).ok());
  // Expire the laptop's cache twice over (refresh then erase); the phone's
  // hoard TTL is much longer.
  dep_.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));
  ASSERT_EQ(fs.key_cache().size(), 0u);
  ASSERT_GT(dep_.phone()->hoard_size(), 0u);

  uint64_t hoard_before = dep_.phone()->stats().served_from_hoard;
  SimTime t0 = dep_.queue().Now();
  ASSERT_TRUE(fs.ReadAll("/f").ok());
  SimDuration elapsed = dep_.queue().Now() - t0;
  EXPECT_GT(dep_.phone()->stats().served_from_hoard, hoard_before);
  // Served over Bluetooth (20 ms), no 300 ms cellular RTT.
  EXPECT_LT(elapsed.millis(), 100);
}

TEST_F(PairedDeviceTest, HoardServedAccessesStillReachTheAuditLog) {
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Create("/f").ok());
  ASSERT_TRUE(fs.WriteAll("/f", BytesOf("x")).ok());
  AuditId id = fs.ReadHeaderOf("/f")->audit_id;
  dep_.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));

  size_t before = 0;
  for (const auto& e : dep_.key_service().log().entries()) {
    before += e.audit_id == id;
  }
  ASSERT_TRUE(fs.ReadAll("/f").ok());
  dep_.queue().RunUntilIdle();  // Journal upload drains.
  size_t after = 0;
  for (const auto& e : dep_.key_service().log().entries()) {
    after += e.audit_id == id;
  }
  EXPECT_GT(after, before) << "hoard-served access never reached the log";
}

TEST_F(PairedDeviceTest, DisconnectedReadsWorkFromHoard) {
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Create("/f").ok());
  ASSERT_TRUE(fs.WriteAll("/f", BytesOf("cached")).ok());
  dep_.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));

  // The user boards a plane: phone uplink gone, Bluetooth still up.
  dep_.phone()->SetUplinkConnected(false);
  auto read = fs.ReadAll("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(StringOf(*read), "cached");
  EXPECT_GT(dep_.phone()->key_journal_size(), 0u);
}

TEST_F(PairedDeviceTest, DisconnectedCreateJournalsAndUploadsOnReconnect) {
  dep_.phone()->SetUplinkConnected(false);
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Create("/offline_doc.txt").ok());
  ASSERT_TRUE(fs.WriteAll("/offline_doc.txt", BytesOf("midflight")).ok());
  EXPECT_EQ(StringOf(*fs.ReadAll("/offline_doc.txt")), "midflight");
  AuditId id = fs.ReadHeaderOf("/offline_doc.txt")->audit_id;
  EXPECT_GT(dep_.phone()->stats().offline_creates, 0u);

  // The key service knows nothing yet.
  EXPECT_FALSE(dep_.key_service().GetKey(dep_.device_id(), id).ok());

  // Reconnect: journals flush; the key and the log entries materialize.
  dep_.phone()->SetUplinkConnected(true);
  EXPECT_EQ(dep_.phone()->key_journal_size(), 0u);
  EXPECT_TRUE(dep_.key_service().GetKey(dep_.device_id(), id).ok());
  // The journaled creation carries the original client timestamp.
  bool found_create = false;
  for (const auto& e : dep_.key_service().log().entries()) {
    if (e.audit_id == id && e.op == AccessOp::kCreate) {
      found_create = true;
      EXPECT_LT(e.client_time, e.timestamp);
    }
  }
  EXPECT_TRUE(found_create);
}

TEST_F(PairedDeviceTest, DisconnectedMkdirAndRenameJournal) {
  dep_.phone()->SetUplinkConnected(false);
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Mkdir("/trip").ok());
  ASSERT_TRUE(fs.Create("/trip/notes.txt").ok());
  ASSERT_TRUE(fs.Rename("/trip/notes.txt", "/trip/journal.txt").ok());
  EXPECT_GT(dep_.phone()->meta_journal_size(), 0u);

  dep_.phone()->SetUplinkConnected(true);
  EXPECT_EQ(dep_.phone()->meta_journal_size(), 0u);
  // The metadata service reconstructs the path from the uploaded journal.
  AuditId id = fs.ReadHeaderOf("/trip/journal.txt")->audit_id;
  auto path = dep_.metadata_service().ResolvePath(dep_.device_id(), id,
                                                  dep_.queue().Now());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/trip/journal.txt");
}

TEST_F(PairedDeviceTest, AuditTrailCompleteAfterDisconnectedEpisode) {
  // The full §3.5 story: work offline, reconnect, lose the laptop — the
  // report covers the offline accesses too.
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Create("/predisconnect.txt").ok());
  ASSERT_TRUE(fs.WriteAll("/predisconnect.txt", BytesOf("a")).ok());
  dep_.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));

  dep_.phone()->SetUplinkConnected(false);
  SimTime t_loss = dep_.queue().Now();
  ASSERT_TRUE(fs.ReadAll("/predisconnect.txt").ok());  // Hoard-served.
  dep_.queue().AdvanceBy(SimDuration::Minutes(5));
  dep_.phone()->SetUplinkConnected(true);

  auto report = dep_.auditor().BuildReport(dep_.device_id(), t_loss,
                                           fs.config().texp);
  ASSERT_TRUE(report.ok());
  AuditId id = fs.ReadHeaderOf("/predisconnect.txt")->audit_id;
  EXPECT_TRUE(report->Compromised(id));
}

TEST_F(PairedDeviceTest, PhoneLossExposureIsItsHoard) {
  auto& fs = dep_.fs();
  for (int i = 0; i < 4; ++i) {
    std::string path = "/f" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.WriteAll(path, BytesOf("v")).ok());
  }
  // If laptop AND phone are stolen, the phone's hoard bounds the extra
  // exposure the auditor must assume.
  auto hoarded = dep_.phone()->HoardedKeys();
  EXPECT_EQ(hoarded.size(), 4u);
}

TEST_F(PairedDeviceTest, PairingHidesCellularLatency) {
  // Fig. 8b: repeated cold misses through the phone cost ~Bluetooth RTTs
  // after the hoard warms, instead of 3G RTTs.
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 8; ++i) {
    std::string path = "/d/f" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.WriteAll(path, BytesOf("x")).ok());
  }
  // Laptop cache cold, phone hoard warm.
  dep_.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));
  ASSERT_EQ(fs.key_cache().size(), 0u);

  SimTime t0 = dep_.queue().Now();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs.Read("/d/f" + std::to_string(i), 0, 1).ok());
  }
  SimDuration elapsed = dep_.queue().Now() - t0;
  // 8 misses over 3G would be ≥ 2400 ms; via the phone it's a few
  // Bluetooth round trips (prefetch collapses most of them).
  EXPECT_LT(elapsed.millis(), 300);
}

}  // namespace
}  // namespace keypad
