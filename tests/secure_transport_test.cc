// End-to-end tests for transport encryption (§6): client↔service traffic
// sealed under per-device ratcheting session keys, over the full Keypad
// stack.

#include <gtest/gtest.h>

#include <map>

#include "src/cryptocore/hmac.h"
#include "src/keypad/deployment.h"
#include "src/wire/xmlrpc.h"

namespace keypad {
namespace {

DeploymentOptions SealedOpts() {
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  options.secure_channel = true;
  return options;
}

TEST(SecureTransportTest, FullStackWorksOverSealedChannels) {
  Deployment dep(SealedOpts());
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  ASSERT_TRUE(fs.WriteAll("/d/f", BytesOf("sealed payload")).ok());
  ASSERT_TRUE(fs.Rename("/d/f", "/d/g").ok());
  dep.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));
  auto data = fs.ReadAll("/d/g");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(StringOf(*data), "sealed payload");
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
}

TEST(SecureTransportTest, KeysNeverCrossTheWireInTheClear) {
  // Capture every byte the client link carries and scan for the remote key
  // the service returns. With sealed channels nothing key-shaped appears.
  Deployment dep(SealedOpts());
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Create("/f").ok());
  AuditId id = fs.ReadHeaderOf("/f")->audit_id;
  auto kr = dep.key_service().GetKey(dep.device_id(), id);
  ASSERT_TRUE(kr.ok());

  // The wire bytes aren't retained by the link, so instead verify at the
  // protocol level: a sealed request/response round trip does not contain
  // the key bytes, while the plaintext encoding would.
  // (The request the client actually sent was sealed; reproduce both forms.)
  std::string plaintext_response =
      EncodeXmlRpcResponse(WireValue(*kr));
  EXPECT_NE(plaintext_response.find("<base64>"), std::string::npos);

  SecureRandom rng(uint64_t{1});
  Bytes root = Hkdf(*dep.key_service().DeviceSecret(dep.device_id()),
                    /*salt=*/{}, "kp-channel-root", 32);
  SecureChannel channel(root, dep.fs().config().texp);
  Bytes sealed = channel.Seal(dep.queue().Now(),
                              BytesOf(plaintext_response), rng);
  std::string sealed_str = StringOf(sealed);
  // The key's base64 body must not be visible in the sealed frame.
  std::string key_marker = plaintext_response.substr(
      plaintext_response.find("<base64>") + 8, 24);
  EXPECT_EQ(sealed_str.find(key_marker), std::string::npos);
}

TEST(SecureTransportTest, UnknownDeviceEnvelopeRejected) {
  Deployment dep(SealedOpts());
  // A foreign client with made-up credentials cannot even form a valid
  // sealed session: the server has no channel for its device id.
  KeypadFs::Credentials bogus;
  bogus.device_id = "intruder";
  bogus.key_secret = Bytes(32, 1);
  bogus.meta_secret = Bytes(32, 2);
  auto clients = dep.MakeAttackerClients(bogus);
  ASSERT_TRUE(clients.ok());
  SecureRandom rng(uint64_t{3});
  auto result = clients->key->GetKey(AuditId::Random(rng));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST(SecureTransportTest, ThiefWithStolenSecretsStillTalksButIsLogged) {
  // The channel is confidentiality against *network* observers, not an
  // authentication barrier against a thief who holds the device: he can
  // derive the channel roots from the stolen secrets — and every key he
  // fetches is still logged. (Paper §6: the defense is the audit trail.)
  Deployment dep(SealedOpts());
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Create("/secret.doc").ok());
  ASSERT_TRUE(fs.WriteAll("/secret.doc", BytesOf("data")).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(300));
  SimTime t_loss = dep.queue().Now();

  RawDeviceAttacker attacker = dep.MakeAttacker();
  auto creds = attacker.StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  ASSERT_TRUE(clients.ok());
  KeypadConfig config;
  config.ibe_enabled = false;
  auto thief_fs = attacker.MountOnline(clients->services, config);
  ASSERT_TRUE(thief_fs.ok());
  ASSERT_TRUE((*thief_fs)->ReadAll("/secret.doc").ok());

  auto report = dep.auditor().BuildReport(dep.device_id(), t_loss,
                                          fs.config().texp);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(
      report->Compromised(fs.ReadHeaderOf("/secret.doc")->audit_id));
}

TEST(SecureTransportTest, SealedEnvelopeReplayIsEpochBounded) {
  // The channel itself is stateless about replay: a sealed frame opens
  // again within the current-or-previous epoch window. Replay defense at
  // the RPC layer (the dedup frame inside the envelope) is what prevents a
  // recorded request from re-executing; the ratchet merely bounds how long
  // the recorded ciphertext stays decryptable at all.
  SecureRandom rng(uint64_t{7});
  SimDuration period = SimDuration::Seconds(100);
  SecureChannel sender(BytesOf("root"), period);
  SecureChannel receiver(BytesOf("root"), period);
  SimTime t0 = SimTime::Epoch() + SimDuration::Seconds(10);
  Bytes sealed = sender.Seal(t0, BytesOf("key request"), rng);

  // Replay within the epoch window: the channel accepts it both times.
  ASSERT_TRUE(receiver.Open(t0, sealed).ok());
  ASSERT_TRUE(receiver.Open(t0 + SimDuration::Seconds(1), sealed).ok());

  // Two epochs later the ratchet has erased the key: replay is dead.
  auto stale = receiver.Open(t0 + period + period, sealed);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kPermissionDenied);
}

TEST(SecureTransportTest, ReplayedRequestDoesNotDuplicateAuditRows) {
  // Full stack, sealed channels, and a network that duplicates every
  // message: the replayed sealed envelopes must be soaked up by the
  // at-most-once layer, leaving at most one kCreate row per file.
  DeploymentOptions options = SealedOpts();
  Deployment dep(options);
  LinkChaosOptions chaos;
  chaos.duplicate_probability = 1.0;
  dep.client_link().set_chaos(chaos);

  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Create("/a").ok());
  ASSERT_TRUE(fs.Create("/b").ok());
  ASSERT_TRUE(fs.WriteAll("/a", BytesOf("x")).ok());
  dep.queue().RunUntilIdle();  // Let every duplicate land.

  std::map<AuditId, int> creates;
  for (const auto& entry : dep.key_service().log().entries()) {
    if (entry.op == AccessOp::kCreate) {
      ++creates[entry.audit_id];
    }
  }
  ASSERT_EQ(creates.size(), 2u);
  for (const auto& [id, count] : creates) {
    EXPECT_EQ(count, 1) << "duplicate audit row for " << id.ToHex();
  }
  const ReplyCache& replies = dep.key_replica_rpc_server(0, 0).reply_cache();
  EXPECT_GE(replies.hits() + replies.in_flight_drops(), 1u);
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
  EXPECT_TRUE(dep.metadata_service().log().Verify().ok());
}

TEST(SecureTransportTest, SurvivesKeyRotationEpochs) {
  // Work spanning many rotation periods: the ratchets on both sides stay
  // in step.
  DeploymentOptions options = SealedOpts();
  options.config.texp = SimDuration::Seconds(10);
  Deployment dep(options);
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Create("/f").ok());
  for (int epoch = 0; epoch < 20; ++epoch) {
    dep.queue().AdvanceBy(SimDuration::Seconds(25));
    ASSERT_TRUE(fs.ReadAll("/f").ok()) << "epoch " << epoch;
  }
}

}  // namespace
}  // namespace keypad
