// One chain walk (DESIGN.md §30): every audit-log check and every replica
// reconciliation walks the commit-group chain through one routine and
// compares rows with one sealed-row predicate, on typed rows.
//
//  * A tamper table runs through every entry point that checks a chain —
//    Verify, VerifyTail, LoadVerifiedWithBase, AppendReplicated,
//    ColdEntries and VerifyFullChain. Each must refuse each tamper with
//    kDataLoss and leave the log as it was.
//  * Reconciliation over seeded forks, truncated and untruncated, on both
//    tiers, must orphan exactly the rows a wire-form reference (the proof
//    reconciliation ran on WireValues before) orphans.
//  * A revoked device is one fact (the device record), a paired
//    deployment's thief reaches the datacenter at the deployment's profile,
//    and an audit row without a group start is refused.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/auditlog/segment_store.h"
#include "src/keypad/deployment.h"
#include "src/keyservice/audit_log.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

AuditId IdOf(uint8_t tag) {
  AuditId id;
  id.v.fill(tag);
  return id;
}

// --- The tamper table. ------------------------------------------------------

// The key tier's codec with a test hook that applies whichever tamper the
// table row installs, so CorruptEntryForTesting reaches every field of an
// in-memory row, chain fields included.
struct TamperCodec : AuditLogCodec {
  static inline std::function<void(AuditLogEntry&)> tamper;
  static void CorruptForTesting(Entry& entry) { tamper(entry); }
};
using TamperLog = SegmentedLog<TamperCodec>;

struct Tamper {
  const char* name;
  // A misaligned base moves every row one position past where its base
  // says it starts; every other tamper touches one row.
  bool every_row;
  std::function<void(AuditLogEntry&)> apply;
};

std::vector<Tamper> Tampers() {
  return {
      {"flipped field", false,
       [](AuditLogEntry& e) { e.device_id += "-tampered"; }},
      {"wrong prev seal", false,
       [](AuditLogEntry& e) { e.prev_hash = e.entry_hash; }},
      {"wrong group start", false, [](AuditLogEntry& e) { ++e.group_start; }},
      {"seq gap", false, [](AuditLogEntry& e) { ++e.seq; }},
      {"wrong entry seal", false,
       [](AuditLogEntry& e) { e.entry_hash = e.prev_hash; }},
      {"misaligned base", true,
       [](AuditLogEntry& e) {
         ++e.seq;
         ++e.group_start;
       }},
  };
}

// Applies `tamper` to the last row of `rows`, or to every row.
void ApplyTo(const Tamper& tamper, std::vector<AuditLogEntry>& rows) {
  if (tamper.every_row) {
    for (auto& row : rows) {
      tamper.apply(row);
    }
  } else {
    tamper.apply(rows.back());
  }
}

SegmentedLogOptions Segments(bool truncate) {
  SegmentedLogOptions options;
  options.segment_ops = 4;
  options.cold_ship = truncate;
  options.truncate = truncate;
  return options;
}

// Eleven rows in commit groups of 3, 1, 2, 1, 1 and 3: checkpoints end at
// 4 and 8, so rows 8..10 (one group) are the tail after the last one.
void Fill(TamperLog& log) {
  uint8_t tag = 0;
  for (int group : {3, 1, 2, 1, 1, 3}) {
    log.BeginBatch();
    for (int i = 0; i < group; ++i, ++tag) {
      AuditLogEntry entry;
      entry.timestamp = SimTime(1000 * tag);
      entry.client_time = entry.timestamp;
      entry.device_id = "laptop";
      entry.audit_id = IdOf(tag);
      entry.op = AccessOp::kDemandFetch;
      log.AppendEntry(std::move(entry));
    }
    log.CommitBatch();
  }
}

// Everything a failed check must leave as it was.
struct LogState {
  uint64_t size = 0;
  uint64_t base_seq = 0;
  std::vector<WireValue> rows;
  std::vector<Bytes> checkpoints;

  explicit LogState(const TamperLog& log)
      : size(log.size()), base_seq(log.base_seq()) {
    for (const auto& row : log.entries()) {
      rows.push_back(row.ToWire());
    }
    for (const auto& ckpt : log.checkpoints()) {
      checkpoints.push_back(ckpt.hash);
    }
  }
  bool operator==(const LogState& other) const {
    return size == other.size && base_seq == other.base_seq &&
           rows == other.rows && checkpoints == other.checkpoints;
  }
};

void ExpectDataLoss(const Status& status, const char* entry_point,
                    const Tamper& tamper) {
  EXPECT_EQ(status.code(), StatusCode::kDataLoss)
      << entry_point << " / " << tamper.name << ": " << status;
}

// A truncating log over its own cold tier: base 8, segments 0 and 1 cold.
struct ColdLog {
  explicit ColdLog(EventQueue* queue)
      : cloud(queue), store(MakeMemoryBackend(), &cloud) {
    log.Configure(Segments(true));
    log.set_segment_store(&store, "key");
    Fill(log);
  }
  SimObjectStore cloud;
  SegmentStore store;
  TamperLog log;
};

TEST(ChainWalkTamperTest, TheFixturesVerify) {
  EventQueue queue;
  TamperLog hot;
  hot.Configure(Segments(false));
  Fill(hot);
  ASSERT_EQ(hot.checkpoints().size(), 2u);
  EXPECT_EQ(hot.commit_groups(), 6u);
  EXPECT_TRUE(hot.Verify().ok());
  EXPECT_TRUE(hot.VerifyTail().ok());

  ColdLog cold(&queue);
  ASSERT_EQ(cold.log.base_seq(), 8u);
  EXPECT_TRUE(cold.log.Verify().ok());
  EXPECT_TRUE(cold.log.VerifyFullChain().ok());
  auto rows = cold.log.ColdEntries(0, 8);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 8u);

  // The snapshot and replication paths accept the clean rows and rebuild
  // the same grouping.
  TamperLog loaded;
  ASSERT_TRUE(loaded
                  .LoadVerifiedWithBase(cold.log.base_seq(),
                                        cold.log.base_seal(),
                                        cold.log.checkpoints(),
                                        cold.log.entries())
                  .ok());
  EXPECT_EQ(loaded.commit_groups(), 1u);
  EXPECT_EQ(loaded.max_group_size(), 3u);
  TamperLog backup;
  backup.Configure(Segments(false));
  ASSERT_TRUE(backup.AppendReplicated(hot.entries()).ok());
  EXPECT_EQ(backup.commit_groups(), 6u);
  EXPECT_EQ(backup.max_group_size(), 3u);
  EXPECT_EQ(backup.checkpoints().size(), 2u);
  EXPECT_TRUE(backup.Verify().ok());
}

TEST(ChainWalkTamperTest, VerifyAndVerifyTailRefuseEveryTamper) {
  for (const Tamper& tamper : Tampers()) {
    for (bool truncate : {false, true}) {
      EventQueue queue;
      ColdLog fixture(&queue);
      TamperLog hot;
      hot.Configure(Segments(false));
      Fill(hot);
      TamperLog& log = truncate ? fixture.log : hot;
      TamperCodec::tamper = tamper.apply;
      if (tamper.every_row) {
        for (size_t i = 0; i < log.entries().size(); ++i) {
          log.CorruptEntryForTesting(i);
        }
      } else {
        log.CorruptEntryForTesting(log.entries().size() - 1);
      }
      const LogState before(log);
      ExpectDataLoss(log.Verify(), "Verify", tamper);
      ExpectDataLoss(log.VerifyTail(), "VerifyTail", tamper);
      EXPECT_TRUE(LogState(log) == before) << tamper.name;
    }
  }
}

TEST(ChainWalkTamperTest, LoadVerifiedWithBaseRefusesEveryTamper) {
  for (const Tamper& tamper : Tampers()) {
    EventQueue queue;
    ColdLog source(&queue);
    std::vector<AuditLogEntry> rows = source.log.entries();
    ApplyTo(tamper, rows);
    TamperLog target;
    target.Configure(Segments(false));
    Fill(target);
    const LogState before(target);
    ExpectDataLoss(target.LoadVerifiedWithBase(source.log.base_seq(),
                                               source.log.base_seal(),
                                               source.log.checkpoints(),
                                               std::move(rows)),
                   "LoadVerifiedWithBase", tamper);
    EXPECT_TRUE(LogState(target) == before) << tamper.name;
    EXPECT_TRUE(target.Verify().ok()) << tamper.name;
  }
}

TEST(ChainWalkTamperTest, AppendReplicatedRefusesEveryTamper) {
  for (const Tamper& tamper : Tampers()) {
    TamperLog leader;
    leader.Configure(Segments(false));
    Fill(leader);
    const auto& all = leader.entries();
    TamperLog backup;
    backup.Configure(Segments(false));
    ASSERT_TRUE(backup
                    .AppendReplicated(std::vector<AuditLogEntry>(
                        all.begin(), all.begin() + 8))
                    .ok());
    // Two rows of overlap with the backup's tail, then the new group.
    std::vector<AuditLogEntry> delta(all.begin() + 6, all.end());
    ApplyTo(tamper, delta);
    const LogState before(backup);
    ExpectDataLoss(backup.AppendReplicated(delta), "AppendReplicated",
                   tamper);
    EXPECT_TRUE(LogState(backup) == before) << tamper.name;
  }
}

TEST(ChainWalkTamperTest, ColdEntriesAndVerifyFullChainRefuseEveryTamper) {
  for (const Tamper& tamper : Tampers()) {
    for (uint64_t index : {0u, 1u}) {
      EventQueue queue;
      ColdLog fixture(&queue);
      auto segment = fixture.store.Get("key", index);
      ASSERT_TRUE(segment.ok()) << segment.status();
      std::vector<AuditLogEntry> rows;
      for (const WireValue& wire : segment->entries) {
        rows.push_back(*AuditLogEntry::FromWire(wire));
      }
      ApplyTo(tamper, rows);
      segment->entries.clear();
      for (const auto& row : rows) {
        segment->entries.push_back(row.ToWire());
      }
      ASSERT_TRUE(fixture.store.Put(*segment).ok());

      const LogState before(fixture.log);
      ExpectDataLoss(fixture.log.ColdEntries(0, 8).status(), "ColdEntries",
                     tamper);
      ExpectDataLoss(fixture.log.VerifyFullChain(), "VerifyFullChain",
                     tamper);
      EXPECT_TRUE(LogState(fixture.log) == before) << tamper.name;
      // The in-memory checks do not read the cold tier.
      EXPECT_TRUE(fixture.log.Verify().ok()) << tamper.name;
    }
  }
}

// --- Reconciliation against a wire-form reference. --------------------------

// A log as the wire-form proof saw it: the in-memory rows as WireValues,
// their base, and each checkpoint's (end_seq, hash).
struct WireLog {
  uint64_t base = 0;
  std::vector<std::pair<uint64_t, Bytes>> checkpoints;
  std::vector<WireValue> rows;
};

template <typename Log>
WireLog WireOf(const Log& log) {
  WireLog out;
  out.base = log.base_seq();
  for (const auto& ckpt : log.checkpoints()) {
    out.checkpoints.push_back({ckpt.end_seq, ckpt.hash});
  }
  for (const auto& row : log.entries()) {
    out.rows.push_back(row.ToWire());
  }
  return out;
}

// The reference: equal checkpoint records first, then an aligned scan by
// absolute seq comparing wire forms; every local row past the proven
// prefix is orphaned.
std::vector<WireValue> ReferenceOrphans(const WireLog& local,
                                        const WireLog& adopted) {
  uint64_t common = 0;
  size_t c = 0;
  while (c < local.checkpoints.size() && c < adopted.checkpoints.size() &&
         local.checkpoints[c] == adopted.checkpoints[c]) {
    ++c;
  }
  if (c > 0) {
    common = local.checkpoints[c - 1].first;
  }
  const uint64_t local_end = local.base + local.rows.size();
  const uint64_t lo = std::max(local.base, adopted.base);
  const uint64_t hi = std::min(local_end, adopted.base + adopted.rows.size());
  uint64_t scan = lo;
  while (scan < hi &&
         local.rows[scan - local.base] == adopted.rows[scan - adopted.base]) {
    ++scan;
  }
  if (scan > lo) {
    common = std::max(common, scan);
  }
  std::vector<WireValue> out;
  for (uint64_t s = std::max(common, local.base); s < local_end; ++s) {
    out.push_back(local.rows[s - local.base]);
  }
  return out;
}

DeploymentOptions ForkOpts(bool meta, bool truncate, uint64_t seed) {
  DeploymentOptions options;
  options.seed = seed;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  // Held responses wait out one backup kAckTimeout when the mesh first
  // partitions; give each attempt room for that.
  options.rpc.timeout = SimDuration::Seconds(3);
  options.rpc.retry.max_attempts = 2;
  SegmentedLogOptions log;
  if (truncate) {
    log = Segments(true);
  }
  if (meta) {
    options.meta_replicas = 3;
    options.meta_log = log;
  } else {
    options.key_replicas = 3;
    options.key_service.log = log;
  }
  return options;
}

// One seeded fork: a partitioned primary keeps acking creates only its
// chain holds, a backup promotes and takes more, the primary crashes,
// heals and restarts, and reconciliation orphans its partition-era rows.
template <typename Set, typename ReplicaOf>
void RunFork(Deployment& dep, Set* set, bool meta, uint64_t seed,
             ReplicaOf replica_of) {
  ASSERT_NE(set, nullptr);
  auto fault = [&](Fault::Verb verb) {
    return meta ? Fault::Meta(verb, 0) : Fault::Key(verb, 0, 0);
  };
  SimRandom rng(seed);
  auto& fs = dep.fs();
  int file = 0;
  auto create = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(fs.Create("/f" + std::to_string(file++)).ok());
    }
  };
  create(3 + rng.UniformU64(8));
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  ASSERT_TRUE(dep.Inject(fault(Fault::kPartition)).ok());
  create(1 + rng.UniformU64(4));
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_TRUE(dep.Inject(fault(Fault::kCrash)).ok());
  create(rng.UniformU64(4));
  const size_t leader = set->current_leader();
  ASSERT_NE(leader, 0u);
  ASSERT_TRUE(dep.Inject(fault(Fault::kHeal)).ok());
  ASSERT_TRUE(dep.Inject(fault(Fault::kRestart)).ok());

  const WireLog local = WireOf(replica_of(0).log());
  const WireLog adopted = WireOf(replica_of(leader).log());
  const size_t orphans_before = set->orphaned().size();
  const uint64_t rejoins = set->stats().rejoins;
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  ASSERT_GT(set->stats().rejoins, rejoins);
  EXPECT_FALSE(set->is_leader(0));
  EXPECT_EQ(replica_of(0).log().size(), replica_of(leader).log().size());

  const std::vector<WireValue> expected = ReferenceOrphans(local, adopted);
  EXPECT_GT(expected.size(), 0u);
  const auto& orphaned = set->orphaned();
  ASSERT_EQ(orphaned.size() - orphans_before, expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(orphaned[orphans_before + k].replica, 0u);
    EXPECT_TRUE(orphaned[orphans_before + k].entry.ToWire() == expected[k])
        << "orphan " << k;
  }
}

TEST(ReconcileTypedRowsTest, KeyTierForksOrphanWhatTheWireReferenceDoes) {
  for (bool truncate : {false, true}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "truncate=" << truncate
                                      << " seed=" << seed);
      Deployment dep(ForkOpts(false, truncate, seed));
      RunFork(dep, dep.replica_set(0), false, seed,
              [&](size_t r) -> KeyService& { return dep.key_replica(0, r); });
    }
  }
}

TEST(ReconcileTypedRowsTest, MetadataTierForksOrphanWhatTheWireReferenceDoes) {
  for (bool truncate : {false, true}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "truncate=" << truncate
                                      << " seed=" << seed);
      Deployment dep(ForkOpts(true, truncate, seed));
      RunFork(dep, dep.meta_replica_set(), true, seed,
              [&](size_t r) -> MetadataService& {
                return dep.meta_replica(r);
              });
    }
  }
}

// --- A revoked device is one fact. ------------------------------------------

TEST(DeviceFactTest, ReplicatedFlipOfAnUnknownDeviceDeniesNothing) {
  EventQueue queue;
  KeyService service(&queue, 0xD1);
  // A leader's delta flips a device this replica never registered.
  KeyService::Delta delta;
  delta.device_changes.push_back({"ghost", true});
  ASSERT_TRUE(service.ApplyReplicated(delta).ok());

  const uint64_t rows = service.log().size();
  auto fetched = service.GetKey("ghost", IdOf(1));
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(fetched.status().message(), "key service: unregistered device");
  auto created = service.CreateKey("ghost", IdOf(2));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().message(), "key service: unregistered device");
  EXPECT_EQ(service.log().size(), rows);
  EXPECT_EQ(service.load_stats().negative_hits, 0u);
}

TEST(DeviceFactTest, NegativeHitsCountEveryDeniedRowOfADisabledDevice) {
  EventQueue queue;
  KeyService service(&queue, 0xD2);
  service.RegisterDeviceWithSecret("laptop", Bytes(32, 7));
  ASSERT_TRUE(service.CreateKey("laptop", IdOf(1)).ok());
  ASSERT_TRUE(service.DisableDevice("laptop").ok());
  const uint64_t rows = service.log().size();
  EXPECT_FALSE(service.GetKey("laptop", IdOf(1)).ok());
  EXPECT_FALSE(service.CreateKey("laptop", IdOf(2)).ok());
  EXPECT_FALSE(service
                   .GetKeysTyped("laptop", {{IdOf(1), AccessOp::kPrefetch},
                                            {IdOf(3), AccessOp::kPrefetch}})
                   .ok());
  EXPECT_EQ(service.log().size(), rows + 4);
  EXPECT_EQ(service.load_stats().negative_hits, 4u);
  // Re-registering enables the device again: nothing more is denied.
  service.RegisterDeviceWithSecret("laptop", Bytes(32, 7));
  EXPECT_TRUE(service.GetKey("laptop", IdOf(1)).ok());
  EXPECT_EQ(service.load_stats().negative_hits, 4u);
}

// --- A paired deployment's thief. -------------------------------------------

// The thief's first fetch of the owner's key, and the link it rode.
struct ThiefFetch {
  std::string link;
  bool shares_link = false;
  bool ok = false;
  SimDuration took;
};

ThiefFetch FetchAsThief(bool paired) {
  DeploymentOptions options;
  options.profile = CustomRttProfile(SimDuration::Millis(7));
  options.paired_phone = paired;
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  Deployment dep(options);
  EXPECT_TRUE(dep.fs().Create("/f").ok());
  dep.queue().RunUntilIdle();
  const AuditId id = dep.fs().ReadHeaderOf("/f")->audit_id;

  ThiefFetch fetch;
  auto creds = dep.MakeAttacker().StealCredentials();
  EXPECT_TRUE(creds.ok()) << creds.status();
  auto clients = dep.MakeAttackerClients(*creds);
  EXPECT_TRUE(clients.ok()) << clients.status();
  if (!clients.ok()) {
    return fetch;
  }
  NetworkLink* link = clients->key_rpc->link();
  EXPECT_EQ(clients->meta_rpc->link(), link);
  fetch.link = link->profile().name;
  fetch.shares_link = link == &dep.client_link();
  const SimTime start = dep.queue().Now();
  fetch.ok = clients->router->GetKey(id).ok();
  fetch.took = dep.queue().Now() - start;
  return fetch;
}

TEST(PairedThiefLinkTest, TheThiefReachesTheDatacenterAtProfileSpeed) {
  // Paired, the laptop's link is its Bluetooth hop to the phone; the thief
  // dials the datacenter over a link of its own at the deployment's
  // profile, and one fetch costs what it costs an unpaired thief.
  ThiefFetch paired = FetchAsThief(true);
  ThiefFetch unpaired = FetchAsThief(false);
  ASSERT_TRUE(paired.ok);
  ASSERT_TRUE(unpaired.ok);
  EXPECT_FALSE(paired.shares_link);
  EXPECT_TRUE(unpaired.shares_link);
  EXPECT_EQ(paired.link, "RTT=7ms");
  EXPECT_EQ(paired.took, unpaired.took);
  EXPECT_LT(paired.took, BluetoothProfile().rtt);
}

// --- Rows without a group start. --------------------------------------------

TEST(AuditRowWireTest, ARowWithoutAGroupStartIsDataLoss) {
  EventQueue queue;
  AuditLog log;
  log.Append(queue.Now(), "laptop", IdOf(1), AccessOp::kCreate);
  WireValue wire = log.entries()[0].ToWire();
  ASSERT_TRUE(AuditLogEntry::FromWire(wire).ok());
  auto fields = std::get<WireValue::Struct>(wire.raw());
  ASSERT_EQ(fields.erase("gstart"), 1u);
  auto decoded = AuditLogEntry::FromWire(WireValue(std::move(fields)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace keypad
