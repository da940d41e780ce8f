// Tests for the remote auditor: the report built over the services' audit
// RPC surface must equal the in-process one, and the surface must be
// authenticated.

#include <gtest/gtest.h>

#include "src/keypad/deployment.h"
#include "src/keyservice/auth.h"

namespace keypad {
namespace {

class RemoteAuditorTest : public ::testing::Test {
 protected:
  static DeploymentOptions Opts() {
    DeploymentOptions options;
    options.profile = BroadbandProfile();
    options.config.ibe_enabled = false;
    options.config.prefetch = PrefetchPolicy::FullDirOnNthMiss(3);
    return options;
  }
  RemoteAuditorTest() : dep_(Opts()) {}

  // Builds a remote auditor using the device's (stolen or legitimate)
  // credentials over fresh RPC clients.
  struct Remote {
    std::unique_ptr<RpcClient> key_rpc;
    std::unique_ptr<RpcClient> meta_rpc;
    std::unique_ptr<RemoteAuditor> auditor;
  };
  Remote MakeRemote() {
    auto creds = dep_.MakeAttacker().StealCredentials();
    EXPECT_TRUE(creds.ok());
    auto clients = dep_.MakeAttackerClients(*creds);
    Remote remote;
    remote.key_rpc = std::move(clients->key_rpc);
    remote.meta_rpc = std::move(clients->meta_rpc);
    remote.auditor = std::make_unique<RemoteAuditor>(
        remote.key_rpc.get(), remote.meta_rpc.get(), creds->device_id,
        creds->key_secret, creds->meta_secret);
    return remote;
  }

  Deployment dep_;
};

// Every field of the two reports, file by file.
void ExpectSameReport(const AuditReport& remote, const AuditReport& local) {
  EXPECT_EQ(remote.demand_accessed_count, local.demand_accessed_count);
  EXPECT_EQ(remote.prefetch_only_count, local.prefetch_only_count);
  EXPECT_EQ(remote.denied_attempts, local.denied_attempts);
  EXPECT_EQ(remote.key_log_verified, local.key_log_verified);
  EXPECT_EQ(remote.metadata_log_verified, local.metadata_log_verified);
  ASSERT_EQ(remote.compromised.size(), local.compromised.size());
  for (size_t i = 0; i < remote.compromised.size(); ++i) {
    const AuditReportEntry& r = remote.compromised[i];
    const AuditReportEntry& l = local.compromised[i];
    SCOPED_TRACE("file " + std::to_string(i) + " " + l.path_at_loss);
    EXPECT_EQ(r.audit_id, l.audit_id);
    EXPECT_EQ(r.path_at_loss, l.path_at_loss);
    EXPECT_EQ(r.post_loss_paths, l.post_loss_paths);
    EXPECT_EQ(r.prefetch_only, l.prefetch_only);
    EXPECT_EQ(r.accessed_after_loss, l.accessed_after_loss);
    ASSERT_EQ(r.accesses.size(), l.accesses.size());
    for (size_t a = 0; a < r.accesses.size(); ++a) {
      EXPECT_EQ(r.accesses[a].when, l.accesses[a].when);
      EXPECT_EQ(r.accesses[a].op, l.accesses[a].op);
    }
  }
}

TEST_F(RemoteAuditorTest, RemoteReportMatchesLocalReport) {
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  for (int i = 0; i < 5; ++i) {
    std::string path = "/docs/f" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.WriteAll(path, BytesOf("x")).ok());
  }
  ASSERT_TRUE(fs.Rename("/docs/f0", "/docs/renamed").ok());
  ASSERT_TRUE(fs.Mkdir("/private").ok());
  ASSERT_TRUE(fs.Create("/private/diary").ok());
  dep_.queue().AdvanceBy(SimDuration::Seconds(300));
  SimTime t_loss = dep_.queue().Now();

  // Thief activity so the report is non-trivial: reads, a rename after the
  // loss, a binding into a directory that never existed, and an attempt
  // denied after revocation.
  auto attacker = dep_.MakeAttacker();
  auto creds = attacker.StealCredentials();
  auto clients = dep_.MakeAttackerClients(*creds);
  auto thief_fs = attacker.MountOnline(clients->services, Opts().config);
  ASSERT_TRUE((*thief_fs)->ReadAll("/docs/renamed").ok());
  ASSERT_TRUE((*thief_fs)->ReadAll("/docs/f1").ok());
  ASSERT_TRUE((*thief_fs)->ReadAll("/docs/f2").ok());
  dep_.queue().AdvanceBy(SimDuration::Seconds(1));
  ASSERT_TRUE((*thief_fs)->Rename("/docs/f1", "/docs/stolen").ok());
  AuditId f2 = (*thief_fs)->ReadHeaderOf("/docs/f2")->audit_id;
  DirId nowhere;
  nowhere.v.fill(0xab);
  ASSERT_TRUE(clients->meta->BindFile(f2, nowhere, "loot", false).ok());
  dep_.ReportDeviceLost();
  EXPECT_FALSE((*thief_fs)->ReadAll("/private/diary").ok());
  dep_.queue().AdvanceBy(SimDuration::Seconds(1));

  auto local = dep_.auditor().BuildReport(dep_.device_id(), t_loss,
                                          fs.config().texp);
  ASSERT_TRUE(local.ok());
  // The scenario reaches both post-loss branches and the denied counter.
  bool saw_rename = false;
  bool saw_unresolvable = false;
  for (const auto& file : local->compromised) {
    for (const auto& path : file.post_loss_paths) {
      saw_rename |= path == "/docs/stolen";
      saw_unresolvable |= path == "<unresolvable dir abababab>/loot";
    }
  }
  EXPECT_TRUE(saw_rename);
  EXPECT_TRUE(saw_unresolvable);
  EXPECT_GT(local->denied_attempts, 0u);

  Remote remote = MakeRemote();
  auto report = remote.auditor->BuildReport(t_loss, fs.config().texp);
  ASSERT_TRUE(report.ok());
  ExpectSameReport(*report, *local);
}

TEST_F(RemoteAuditorTest, BrokenMetadataChainFailsRemoteReport) {
  // Regression: the remote auditor used to turn a failed per-file history
  // request into an empty history, so a tampered metadata chain produced a
  // "clean" report that silently lost the thief's post-loss binding. The
  // tamper sits in the checkpointed prefix, which the tail pull's
  // VerifyTail vouches for by checkpoint — only the full verify that
  // audit.annotate runs catches it.
  DeploymentOptions options = Opts();
  options.config.prefetch = PrefetchPolicy::None();
  options.key_service.log.segment_ops = 2;
  options.meta_log.segment_ops = 2;
  Deployment dep(options);
  auto& fs = dep.fs();
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  ASSERT_TRUE(fs.Create("/docs/a").ok());
  ASSERT_TRUE(fs.WriteAll("/docs/a", BytesOf("x")).ok());
  dep.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));
  SimTime t_loss = dep.queue().Now();

  auto attacker = dep.MakeAttacker();
  auto creds = attacker.StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  auto thief_fs = attacker.MountOnline(clients->services, options.config);
  ASSERT_TRUE(thief_fs.ok());
  ASSERT_TRUE((*thief_fs)->ReadAll("/docs/a").ok());
  ASSERT_TRUE((*thief_fs)->Rename("/docs/a", "/docs/b").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  ASSERT_GT(dep.metadata_service().log().checkpoints().size(), 0u);

  // Untampered, both auditors see the thief's post-loss binding.
  auto clean = dep.auditor().BuildReport(dep.device_id(), t_loss,
                                         fs.config().texp);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->compromised.size(), 1u);
  EXPECT_EQ(clean->compromised[0].post_loss_paths,
            std::vector<std::string>{"/docs/b"});
  auto key_rpc = std::move(clients->key_rpc);
  auto meta_rpc = std::move(clients->meta_rpc);
  {
    RemoteAuditor remote(key_rpc.get(), meta_rpc.get(), creds->device_id,
                         creds->key_secret, creds->meta_secret);
    auto report = remote.BuildReport(t_loss, fs.config().texp);
    ASSERT_TRUE(report.ok());
    ExpectSameReport(*report, *clean);
  }

  const_cast<MetadataLog&>(dep.metadata_service().log())
      .CorruptRecordForTesting(0);
  ASSERT_TRUE(dep.metadata_service().log().VerifyTail().ok());
  auto local = dep.auditor().BuildReport(dep.device_id(), t_loss,
                                         fs.config().texp);
  ASSERT_TRUE(local.ok());
  EXPECT_FALSE(local->metadata_log_verified);

  RemoteAuditor remote(key_rpc.get(), meta_rpc.get(), creds->device_id,
                       creds->key_secret, creds->meta_secret);
  auto report = remote.BuildReport(t_loss, fs.config().texp);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
}

TEST_F(RemoteAuditorTest, AnnotateRejectsMalformedRequests) {
  auto creds = dep_.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep_.MakeAttackerClients(*creds);
  auto call = [&](WireValue::Array params) {
    return clients->meta_rpc->Call(
        "audit.annotate",
        FrameAuthedCall(creds->device_id, creds->meta_secret,
                        "audit.annotate", std::move(params)));
  };
  WireValue::Array ragged;
  ragged.push_back(WireValue(Bytes(AuditId().v.size() + 1, 7)));
  ragged.push_back(WireValue(dep_.queue().Now().nanos()));
  auto bad = call(std::move(ragged));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // An id the service never saw annotates as unbound, not as an error.
  WireValue::Array unknown;
  unknown.push_back(WireValue(Bytes(AuditId().v.size(), 7)));
  unknown.push_back(WireValue(dep_.queue().Now().nanos()));
  auto reply = call(std::move(unknown));
  ASSERT_TRUE(reply.ok());
  auto flat = reply->AsBytes();
  ASSERT_TRUE(flat.ok());
  auto rows = DecodeFlatRows<FileAnnotation>(*flat);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].path_at_loss, "");
  EXPECT_TRUE((*rows)[0].post_loss_paths.empty());
}

TEST_F(RemoteAuditorTest, AuditSurfaceRequiresValidCredentials) {
  EventQueue& queue = dep_.queue();
  (void)queue;
  auto creds = dep_.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  KeypadFs::Credentials bogus = *creds;
  bogus.key_secret = Bytes(32, 0x42);
  bogus.meta_secret = Bytes(32, 0x43);
  auto clients = dep_.MakeAttackerClients(bogus);
  RemoteAuditor auditor(clients->key_rpc.get(), clients->meta_rpc.get(),
                        bogus.device_id, bogus.key_secret,
                        bogus.meta_secret);
  auto report = auditor.BuildReport(dep_.queue().Now(),
                                    dep_.fs().config().texp);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RemoteAuditorTest, CursorResyncsAfterRestoreFromOlderSnapshot) {
  // Satellite regression: the incremental cursor assumed the server's log
  // only ever grows. A shard restored from an older backup serves a log
  // SHORTER than the cursor; the auditor must detect the regression (seq
  // went backwards / restore epoch bumped), re-sync from zero, and keep
  // the rows the restored log no longer carries as evidence — not fetch
  // garbage past the end or silently forget audited accesses.
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  Bytes old_snapshot = dep_.key_service().Snapshot();

  // Activity past the backup point — rows destined to be rolled back.
  for (int i = 3; i < 7; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  dep_.queue().AdvanceBy(SimDuration::Seconds(5));

  Remote remote = MakeRemote();
  auto first = remote.auditor->BuildReport(dep_.queue().Now(),
                                           dep_.fs().config().texp);
  ASSERT_TRUE(first.ok());
  uint64_t cursor_before = remote.auditor->cursor();
  size_t cached_before = remote.auditor->cached_entries();
  ASSERT_EQ(cursor_before, dep_.key_service().log().size());
  ASSERT_GT(cached_before, 0u);

  // The shard restores from the older backup: the log under the cursor
  // shrank and the restore epoch bumped.
  dep_.key_service().AbortInFlight();
  ASSERT_TRUE(dep_.key_service().Restore(old_snapshot).ok());
  ASSERT_LT(dep_.key_service().log().size(), cursor_before);

  // Fresh post-restore activity, then the follow-up audit.
  ASSERT_TRUE(fs.Create("/d/g0").ok());
  dep_.queue().AdvanceBy(SimDuration::Seconds(1));
  auto second = remote.auditor->BuildReport(dep_.queue().Now(),
                                            dep_.fs().config().texp);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->key_log_verified);
  EXPECT_GE(remote.auditor->resyncs(), 1u);
  // The rolled-back creates are gone from the server but kept locally.
  EXPECT_GT(remote.auditor->regressed_entries(), 0u);
  // The cursor re-anchored to the restored log and covers it fully.
  EXPECT_EQ(remote.auditor->cursor(), dep_.key_service().log().size());
  // The post-restore create is visible to the audit.
  bool saw_new_create = false;
  AuditId g0 = fs.ReadHeaderOf("/d/g0")->audit_id;
  for (const auto& entry : dep_.key_service().log().entries()) {
    saw_new_create |= entry.audit_id == g0;
  }
  EXPECT_TRUE(saw_new_create);
}

TEST_F(RemoteAuditorTest, MetaCursorResyncsAfterRestoreFromOlderSnapshot) {
  // Same satellite regression, metadata tier: audit.meta_log_tail's cursor
  // assumed the namespace log only grows. A metadata service restored from
  // an older backup serves a shorter log under a bumped restore epoch; the
  // auditor must re-sync its metadata cursor from zero and keep the
  // rolled-back namespace rows as evidence.
  auto& fs = dep_.fs();
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  Bytes old_snapshot = dep_.metadata_service().Snapshot();

  // Namespace activity past the backup point — bindings destined to be
  // rolled back.
  for (int i = 3; i < 7; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(fs.Rename("/d/f3", "/d/f3r").ok());
  dep_.queue().AdvanceBy(SimDuration::Seconds(5));

  Remote remote = MakeRemote();
  auto first = remote.auditor->BuildReport(dep_.queue().Now(),
                                           dep_.fs().config().texp);
  ASSERT_TRUE(first.ok());
  uint64_t meta_cursor_before = remote.auditor->meta_cursor();
  ASSERT_EQ(meta_cursor_before, dep_.metadata_service().log().size());
  ASSERT_GT(remote.auditor->meta_cached_entries(), 0u);
  uint64_t key_resyncs_baseline = remote.auditor->resyncs();

  // The metadata service restores from the older backup: the log under the
  // cursor shrank and the restore epoch bumped. The key tier is untouched.
  dep_.metadata_service().AbortInFlight();
  ASSERT_TRUE(dep_.metadata_service().Restore(old_snapshot).ok());
  ASSERT_LT(dep_.metadata_service().log().size(), meta_cursor_before);

  // Fresh post-restore activity, then the follow-up audit.
  ASSERT_TRUE(fs.Create("/d/g0").ok());
  dep_.queue().AdvanceBy(SimDuration::Seconds(1));
  auto second = remote.auditor->BuildReport(dep_.queue().Now(),
                                            dep_.fs().config().texp);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->metadata_log_verified);
  // The regression was the metadata tier's alone.
  EXPECT_GE(remote.auditor->resyncs(), key_resyncs_baseline + 1);
  // The rolled-back bindings are gone from the server but kept locally.
  EXPECT_GT(remote.auditor->regressed_entries(), 0u);
  // The metadata cursor re-anchored to the restored log and covers it.
  EXPECT_EQ(remote.auditor->meta_cursor(),
            dep_.metadata_service().log().size());
  // The post-restore binding is visible to the audit.
  AuditId g0 = fs.ReadHeaderOf("/d/g0")->audit_id;
  bool saw_new_binding = false;
  for (const auto& record : dep_.metadata_service().log().records()) {
    saw_new_binding |= record.audit_id == g0;
  }
  EXPECT_TRUE(saw_new_binding);
}

TEST_F(RemoteAuditorTest, EmptyWindowGivesCleanRemoteReport) {
  ASSERT_TRUE(dep_.fs().Create("/f").ok());
  dep_.queue().AdvanceBy(SimDuration::Seconds(500));
  Remote remote = MakeRemote();
  auto report = remote.auditor->BuildReport(dep_.queue().Now(),
                                            dep_.fs().config().texp);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->compromised.empty());
}

}  // namespace
}  // namespace keypad
