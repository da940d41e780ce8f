// One client stack for every deployment shape (DESIGN.md §29): the key
// client is always a ShardRouter, which passes calls straight through at
// one shard; the paired phone and the sealed channel run over N shards × R
// replicas; a journal seals per shard; and no width is rewritten. Also the
// wire's op validation, re-registration after a disable, and the directory
// rename path through the phone.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/keyservice/auth.h"
#include "src/keyservice/key_service_client.h"
#include "src/keyservice/shard_ring.h"

namespace keypad {
namespace {

DeploymentOptions LanOpts() {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  return options;
}

DeploymentOptions PairedOpts(int shards, int replicas) {
  DeploymentOptions options = LanOpts();
  options.paired_phone = true;
  options.secure_channel = true;
  options.key_shards = shards;
  options.key_replicas = replicas;
  options.meta_replicas = replicas;
  return options;
}

std::vector<AuditId> RandomIds(size_t n, uint64_t seed) {
  SecureRandom rng(seed);
  std::vector<AuditId> ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(AuditId::Random(rng));
  }
  return ids;
}

// Creates `paths` with a little content each and returns their audit ids.
std::vector<AuditId> CreateFiles(KeypadFs& fs,
                                 const std::vector<std::string>& paths) {
  std::vector<AuditId> ids;
  for (const auto& path : paths) {
    EXPECT_TRUE(fs.Create(path).ok()) << path;
    EXPECT_TRUE(fs.WriteAll(path, BytesOf("data of " + path)).ok()) << path;
    ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }
  return ids;
}

std::vector<std::string> Paths(const std::string& prefix, int n) {
  std::vector<std::string> paths;
  for (int i = 0; i < n; ++i) {
    paths.push_back("/" + prefix + std::to_string(i));
  }
  return paths;
}

size_t LeaderOf(Deployment& dep, size_t shard) {
  const ReplicaSet* set = dep.replica_set(shard);
  return set == nullptr ? 0 : set->current_leader();
}

// Demand-fetch rows per audit id across every shard's current leader,
// split into journaled rows (uploaded later than they happened) and rows
// the service logged as it released the key.
struct FetchRows {
  std::map<AuditId, int> journaled;
  std::map<AuditId, int> released;
};
FetchRows DemandRows(Deployment& dep, SimTime since) {
  FetchRows rows;
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    for (const auto& e :
         dep.key_replica(s, LeaderOf(dep, s)).log().entries()) {
      if (e.device_id != dep.device_id() || e.op != AccessOp::kDemandFetch ||
          e.client_time < since) {
        continue;
      }
      ++(e.client_time < e.timestamp ? rows.journaled : rows.released)
          [e.audit_id];
    }
  }
  return rows;
}

size_t DeniedRows(const KeyService& service, const std::string& device) {
  size_t denied = 0;
  for (const auto& e : service.log().entries()) {
    denied += e.device_id == device && e.op == AccessOp::kDenied;
  }
  return denied;
}

// --- The router decides. ----------------------------------------------------

TEST(OneClientStackTest, UnshardedRouterPassesCallsStraightThrough) {
  Deployment dep(LanOpts());
  ShardRouter* router = dep.key_router();
  ASSERT_NE(router, nullptr);
  EXPECT_EQ(router->shard_count(), 1u);
  EXPECT_EQ(&dep.key_client(), router);

  auto ids = RandomIds(3, 1);
  for (const auto& id : ids) {
    ASSERT_TRUE(dep.key_client().CreateKey(id).ok());
  }
  const uint64_t handled = dep.key_replica_rpc_server(0, 0).requests_handled();
  ASSERT_TRUE(dep.key_client().GetKey(ids[0]).ok());
  ASSERT_TRUE(dep.key_client().FetchGroup(ids[0], {ids[1], ids[2]}).ok());
  // One RPC per call, and the router counted nothing: no single-flight,
  // no combiner flush.
  EXPECT_EQ(dep.key_replica_rpc_server(0, 0).requests_handled(), handled + 2);
  const ShardRouter::Stats& stats = router->stats();
  EXPECT_EQ(stats.single_flight_leaders + stats.single_flight_joins, 0u);
  EXPECT_EQ(stats.batch_rpcs + stats.batched_keys + stats.subrequests, 0u);
}

TEST(OneClientStackDeathTest, ATierNarrowerThanOneIsRefused) {
  DeploymentOptions shards = LanOpts();
  shards.key_shards = 0;
  EXPECT_DEATH({ Deployment dep(shards); }, "tier width 0 is below 1");
  DeploymentOptions replicas = LanOpts();
  replicas.meta_replicas = -1;
  EXPECT_DEATH({ Deployment dep(replicas); }, "tier width -1 is below 1");
}

// --- The phone and the channel over N × R. ----------------------------------

// The phone goes offline and the laptop reads through the hoard; a key
// leader crashes; the phone reconnects and the laptop reads files the
// hoard no longer holds. Every release has exactly one row.
TEST(OneClientStackTest, PhoneAndChannelRunOverShardsAndReplicas) {
  Deployment dep(PairedOpts(4, 3));
  ASSERT_EQ(dep.key_shard_count(), 4u);
  ASSERT_EQ(dep.key_replica_count(), 3u);
  ASSERT_EQ(dep.meta_replica_count(), 3u);
  ASSERT_NE(dep.phone(), nullptr);
  KeypadFs& fs = dep.fs();
  PhoneProxy& phone = *dep.phone();

  // The cold files outlive the hoard; the hoarded ones are created after.
  const std::vector<std::string> cold_paths = Paths("cold", 8);
  const std::vector<std::string> hoard_paths = Paths("hoard", 8);
  const std::vector<AuditId> cold = CreateFiles(fs, cold_paths);
  dep.queue().AdvanceBy(PhoneProxy::kHoardTtl + SimDuration::Seconds(1));
  const std::vector<AuditId> hoarded = CreateFiles(fs, hoard_paths);
  dep.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));
  ASSERT_EQ(fs.key_cache().size(), 0u);

  // 1. Offline: every hoarded file is served from the hoard and journaled.
  const SimTime offline = dep.queue().Now();
  phone.SetUplinkConnected(false);
  const uint64_t served = phone.stats().served_from_hoard;
  for (const auto& path : hoard_paths) {
    ASSERT_TRUE(fs.ReadAll(path).ok()) << path;
  }
  EXPECT_EQ(phone.stats().served_from_hoard, served + hoard_paths.size());
  EXPECT_EQ(phone.key_journal_size(), hoard_paths.size());

  // 2. The leader of the first hoarded file's shard crashes.
  const ShardRing ring(4, ShardRouter::kRingSeed,
                       ShardRouter::kVnodesPerShard);
  const size_t victim = ring.ShardFor(hoarded[0]);
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, victim)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(5));

  // 3. Reconnect: the journal seals on every shard, the crashed one through
  //    its new leader; then the cold files are forwarded upstream.
  phone.SetUplinkConnected(true);
  EXPECT_EQ(phone.key_journal_size(), 0u);
  const uint64_t forwarded = phone.stats().forwarded_upstream;
  for (const auto& path : cold_paths) {
    auto data = fs.ReadAll(path);
    ASSERT_TRUE(data.ok()) << path << ": " << data.status();
    EXPECT_EQ(StringOf(*data), "data of " + path);
  }
  EXPECT_EQ(phone.stats().forwarded_upstream, forwarded + cold_paths.size());
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, victim)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(10));
  EXPECT_NE(LeaderOf(dep, victim), 0u) << "the crash never moved the leader";

  const FetchRows rows = DemandRows(dep, offline);
  for (const auto& id : hoarded) {
    EXPECT_EQ(rows.journaled.count(id) ? rows.journaled.at(id) : 0, 1);
    EXPECT_EQ(rows.released.count(id), 0u);
  }
  for (const auto& id : cold) {
    EXPECT_EQ(rows.released.count(id) ? rows.released.at(id) : 0, 1);
    EXPECT_EQ(rows.journaled.count(id), 0u);
  }
  EXPECT_EQ(rows.journaled.size() + rows.released.size(),
            hoarded.size() + cold.size());
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      EXPECT_TRUE(dep.key_replica(s, r).log().Verify().ok()) << s << "/" << r;
    }
  }
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    EXPECT_TRUE(dep.meta_replica(r).log().Verify().ok()) << r;
  }
}

// One shard's upload fails while the others seal: only that shard's
// entries stay journaled, and the next reconnect uploads them once.
TEST(OneClientStackTest, PartialJournalUploadKeepsOnlyTheFailedShard) {
  Deployment dep(PairedOpts(4, 1));
  ASSERT_EQ(dep.key_shard_count(), 4u);
  KeypadFs& fs = dep.fs();
  PhoneProxy& phone = *dep.phone();
  const std::vector<std::string> paths = Paths("f", 12);
  const std::vector<AuditId> ids = CreateFiles(fs, paths);
  dep.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Seconds(2));

  const SimTime offline = dep.queue().Now();
  phone.SetUplinkConnected(false);
  for (const auto& path : paths) {
    ASSERT_TRUE(fs.ReadAll(path).ok()) << path;
  }
  ASSERT_EQ(phone.key_journal_size(), paths.size());

  const ShardRing ring(4, ShardRouter::kRingSeed,
                       ShardRouter::kVnodesPerShard);
  const size_t down = ring.ShardFor(ids[0]);
  size_t on_down = 0;
  std::set<size_t> shards;
  for (const auto& id : ids) {
    on_down += ring.ShardFor(id) == down;
    shards.insert(ring.ShardFor(id));
  }
  ASSERT_GT(shards.size(), 1u) << "every file landed on one shard";
  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, down, 0)).ok());

  const uint64_t uploaded = phone.stats().journal_entries_uploaded;
  phone.SetUplinkConnected(true);
  EXPECT_EQ(phone.key_journal_size(), on_down);
  EXPECT_EQ(phone.stats().journal_entries_uploaded,
            uploaded + paths.size() - on_down);
  FetchRows rows = DemandRows(dep, offline);
  for (const auto& id : ids) {
    EXPECT_EQ(rows.journaled.count(id), ring.ShardFor(id) == down ? 0u : 1u);
  }
  // A status-only upload through a router spanning the down shard reports
  // its failure.
  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  ASSERT_TRUE(clients.ok());
  std::vector<KeyClient::JournalEntry> evictions;
  for (const auto& id : ids) {
    evictions.push_back({id, AccessOp::kEviction, dep.queue().Now(), {}});
  }
  EXPECT_FALSE(clients->router->UploadJournal(evictions).ok());

  ASSERT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, down, 0)).ok());
  phone.SetUplinkConnected(false);
  dep.queue().AdvanceBy(SimDuration::Minutes(2));
  phone.SetUplinkConnected(true);
  EXPECT_EQ(phone.key_journal_size(), 0u);
  rows = DemandRows(dep, offline);
  for (const auto& id : ids) {
    EXPECT_EQ(rows.journaled.count(id) ? rows.journaled.at(id) : 0, 1);
  }
  EXPECT_EQ(rows.released.size(), 0u);
}

// --- Ops a client may not send. ---------------------------------------------

WireValue::Array KeyJournal(const AuditId& id, int64_t op) {
  WireValue::Struct entry;
  entry.emplace("id", WireValue(id.ToBytes()));
  entry.emplace("op", WireValue(op));
  entry.emplace("ts", WireValue(int64_t{1}));
  return {WireValue(WireValue::Array{WireValue(std::move(entry))})};
}

WireValue::Array MetaJournal(const AuditId& aid, const DirId& dir, int64_t op) {
  WireValue::Struct record;
  record.emplace("op", WireValue(op));
  record.emplace("aid", WireValue(aid.ToBytes()));
  record.emplace("did", WireValue(dir.ToBytes()));
  record.emplace("pid", WireValue(dir.ToBytes()));
  record.emplace("name", WireValue(std::string("x")));
  record.emplace("ts", WireValue(int64_t{1}));
  return {WireValue(WireValue::Array{WireValue(std::move(record))})};
}

WireValue::Array Multi(const AuditId& id, int64_t op) {
  return {WireValue(WireValue::Array{WireValue(id.ToBytes())}),
          WireValue(WireValue::Array{WireValue(op)})};
}

TEST(ClientOpValidationTest, EveryVerbRefusesOpsAClientMayNotSend) {
  Deployment dep(LanOpts());
  const std::string device = dep.device_id();
  const Bytes key_secret = *dep.key_service().DeviceSecret(device);
  const Bytes meta_secret = *dep.metadata_service().DeviceSecret(device);
  const AuditId id = RandomIds(1, 2)[0];
  ASSERT_TRUE(dep.key_client().CreateKey(id).ok());
  SecureRandom rng(3);
  const DirId dir = DirId::Random(rng);
  auto call = [&](RpcClient& rpc, const Bytes& secret,
                  const std::string& method, WireValue::Array payload) {
    return rpc
        .Call(method,
              FrameAuthedCall(device, secret, method, std::move(payload)))
        .status()
        .code();
  };
  auto key = [&](const std::string& method, WireValue::Array payload) {
    return call(dep.key_rpc(), key_secret, method, std::move(payload));
  };
  auto meta = [&](const std::string& method, WireValue::Array payload) {
    return call(dep.meta_rpc(), meta_secret, method, std::move(payload));
  };
  const size_t key_rows = dep.key_service().log().size();
  const size_t meta_rows = dep.metadata_service().log().size();

  constexpr auto kInvalid = StatusCode::kInvalidArgument;
  for (int64_t op : {int64_t{200}, int64_t{-1},
                     static_cast<int64_t>(AccessOp::kCreate),
                     static_cast<int64_t>(AccessOp::kEviction),
                     static_cast<int64_t>(AccessOp::kRestore),
                     static_cast<int64_t>(AccessOp::kDenied)}) {
    EXPECT_EQ(key("key.get", {WireValue(id.ToBytes()), WireValue(op)}),
              kInvalid)
        << op;
    EXPECT_EQ(key("key.get_multi", Multi(id, op)), kInvalid) << op;
  }
  for (int64_t op : {int64_t{200}, static_cast<int64_t>(AccessOp::kRevoke),
                     static_cast<int64_t>(AccessOp::kDestroy),
                     static_cast<int64_t>(AccessOp::kDenied),
                     static_cast<int64_t>(AccessOp::kRestore)}) {
    EXPECT_EQ(key("key.upload_journal", KeyJournal(id, op)), kInvalid) << op;
  }
  for (int64_t op : {int64_t{200}, static_cast<int64_t>(MetadataOp::kSetAttr)}) {
    EXPECT_EQ(meta("meta.upload_journal", MetaJournal(id, dir, op)), kInvalid)
        << op;
  }
  // Nothing was logged, and the audit tail of both tiers still reads.
  EXPECT_EQ(dep.key_service().log().size(), key_rows);
  EXPECT_EQ(dep.metadata_service().log().size(), meta_rows);
  RemoteAuditor auditor(&dep.key_rpc(), &dep.meta_rpc(), device, key_secret,
                        meta_secret);
  auto report = auditor.BuildReport(dep.queue().Now(), SimDuration::Hours(1));
  EXPECT_TRUE(report.ok()) << report.status();

  // The ops a client does send still go through.
  EXPECT_EQ(key("key.get", {WireValue(id.ToBytes()),
                            WireValue(static_cast<int64_t>(AccessOp::kRefresh))}),
            StatusCode::kOk);
  EXPECT_EQ(key("key.upload_journal",
                KeyJournal(id, static_cast<int64_t>(AccessOp::kEviction))),
            StatusCode::kOk);
}

TEST(ClientOpValidationTest, ThePhoneRefusesOpsAClientMayNotSend) {
  Deployment dep(PairedOpts(1, 1));
  const std::string device = dep.device_id();
  const Bytes key_secret = *dep.key_service().DeviceSecret(device);
  const AuditId id = RandomIds(1, 4)[0];
  const size_t rows = dep.key_service().log().size();
  auto call = [&](const std::string& method, WireValue::Array payload) {
    return dep.key_rpc()
        .Call(method,
              FrameAuthedCall(device, key_secret, method, std::move(payload)))
        .status()
        .code();
  };
  EXPECT_EQ(call("key.get", {WireValue(id.ToBytes()), WireValue(int64_t{200})}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(call("key.get_multi", Multi(id, 200)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dep.key_service().log().size(), rows);
  EXPECT_EQ(dep.phone()->key_journal_size(), 0u);
  EXPECT_EQ(dep.phone()->stats().forwarded_upstream, 0u);
}

// --- Re-registration after a disable. ---------------------------------------

TEST(ReRegistrationTest, ClearsTheKeyTiersNegativeCache) {
  Deployment dep(LanOpts());
  const std::string device = dep.device_id();
  KeyService& service = dep.key_service();
  const AuditId id = RandomIds(1, 5)[0];
  auto created = dep.key_client().CreateKey(id);
  ASSERT_TRUE(created.ok());
  const Bytes secret = *service.DeviceSecret(device);

  ASSERT_TRUE(service.DisableDevice(device).ok());
  EXPECT_FALSE(dep.key_client().GetKey(id).ok());
  const size_t denied = DeniedRows(service, device);
  EXPECT_GT(denied, 0u);

  service.RegisterDeviceWithSecret(device, secret);
  ASSERT_FALSE(service.IsDeviceDisabled(device));
  auto key = dep.key_client().GetKey(id);
  ASSERT_TRUE(key.ok()) << key.status();
  EXPECT_EQ(*key, *created);
  EXPECT_EQ(DeniedRows(service, device), denied);
}

// --- Directory renames through the phone. -----------------------------------

TEST(DirRenameTest, ThePhoneRenamesOnlineAndOfflineAndTheReportResolves) {
  Deployment dep(PairedOpts(2, 3));
  ASSERT_EQ(dep.key_shard_count(), 2u);
  ASSERT_EQ(dep.meta_replica_count(), 3u);
  KeypadFs& fs = dep.fs();
  PhoneProxy& phone = *dep.phone();
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  const AuditId id = CreateFiles(fs, {"/d/f"})[0];

  // Online: the rename is forwarded and the tier resolves the new path.
  ASSERT_TRUE(fs.Rename("/d", "/e").ok());
  EXPECT_EQ(phone.meta_journal_size(), 0u);
  auto online = dep.metadata_service().ResolvePath(dep.device_id(), id,
                                                   dep.queue().Now());
  ASSERT_TRUE(online.ok()) << online.status();
  EXPECT_EQ(*online, "/e/f");

  // Offline: the rename is journaled, and the file is read from the hoard.
  phone.SetUplinkConnected(false);
  ASSERT_TRUE(fs.Rename("/e", "/g").ok());
  EXPECT_EQ(phone.meta_journal_size(), 1u);
  fs.key_cache().Erase(id);
  ASSERT_TRUE(fs.ReadAll("/g/f").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  const SimTime t_loss = dep.queue().Now();
  phone.SetUplinkConnected(true);
  EXPECT_EQ(phone.meta_journal_size(), 0u);

  auto report =
      dep.auditor().BuildReport(dep.device_id(), t_loss, fs.config().texp);
  ASSERT_TRUE(report.ok()) << report.status();
  const AuditReportEntry* entry = nullptr;
  for (const auto& e : report->compromised) {
    if (e.audit_id == id) {
      entry = &e;
    }
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->path_at_loss, "/g/f");
}

}  // namespace
}  // namespace keypad
