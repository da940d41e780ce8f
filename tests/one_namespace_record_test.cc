// One copy of every namespace record (DESIGN.md §31), and two faults that
// broke attribution:
//
//  * The metadata log's index holds positions, and the rows truncation
//    drops from the chain stay namespace state. A seeded script runs on a
//    default metadata service and on a truncating one; after every step
//    the truncating service (and a backup fed its deltas, and its restored
//    snapshot) must answer exactly what a full scan of the default
//    service's records answers. A reconciled replica of a truncating
//    replicated tier must answer what a scan of the winner's whole chain,
//    cold segments included, answers.
//  * A restarted ex-leader claims no leadership until it has rejoined or
//    promoted again, so a revocation issued right after its restart lands
//    on the real leader and survives.
//  * A disabled device cannot destroy its keys.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/metaservice/metadata_service.h"
#include "src/sim/random.h"
#include "src/wire/binary_codec.h"

namespace keypad {
namespace {

// --- A reference that scans a record list. ----------------------------------

Bytes Flat(const MetadataRecord& record) {
  Bytes out;
  record.AppendFlat(&out);
  return out;
}

Bytes Flat(const std::optional<MetadataRecord>& record) {
  return record ? Flat(*record) : Bytes();
}

Bytes Flat(const std::vector<MetadataRecord>& records) {
  Bytes out;
  for (const MetadataRecord& record : records) {
    record.AppendFlat(&out);
  }
  return out;
}

bool IsDirOp(MetadataOp op) {
  return op == MetadataOp::kMkdir || op == MetadataOp::kRenameDir;
}

// Every query answered by a linear scan over `all`, oldest first — what the
// metadata log's queries mean, with no index.
struct Scan {
  std::vector<MetadataRecord> all;

  std::vector<MetadataRecord> HistoryOf(const std::string& device,
                                        const AuditId& id) const {
    std::vector<MetadataRecord> out;
    for (const MetadataRecord& r : all) {
      if (r.device_id == device && !IsDirOp(r.op) && r.audit_id == id &&
          (r.op == MetadataOp::kCreateFile ||
           r.op == MetadataOp::kRenameFile || r.op == MetadataOp::kSetAttr)) {
        out.push_back(r);
      }
    }
    return out;
  }

  std::optional<MetadataRecord> LatestBinding(const std::string& device,
                                              const AuditId& id,
                                              SimTime as_of) const {
    std::optional<MetadataRecord> latest;
    for (const MetadataRecord& r : all) {
      if (r.device_id == device && r.audit_id == id &&
          r.client_time <= as_of &&
          (r.op == MetadataOp::kCreateFile ||
           r.op == MetadataOp::kRenameFile)) {
        latest = r;
      }
    }
    return latest;
  }

  std::optional<MetadataRecord> LatestDirBinding(const std::string& device,
                                                 const DirId& dir,
                                                 SimTime as_of) const {
    std::optional<MetadataRecord> latest;
    for (const MetadataRecord& r : all) {
      if (r.device_id == device && IsDirOp(r.op) && r.dir_id == dir &&
          r.client_time <= as_of) {
        latest = r;
      }
    }
    return latest;
  }

  // The root is the directory the device's last root registration named
  // (a nameless mkdir that is its own parent).
  std::optional<DirId> RootOf(const std::string& device) const {
    std::optional<DirId> root;
    for (const MetadataRecord& r : all) {
      if (r.device_id == device && r.op == MetadataOp::kMkdir &&
          r.dir_id == r.parent_dir_id && r.name.empty()) {
        root = r.dir_id;
      }
    }
    return root;
  }

  Result<std::string> ResolvePath(const std::string& device, const AuditId& id,
                                  SimTime as_of) const {
    auto binding = LatestBinding(device, id, as_of);
    if (!binding) {
      return NotFoundError("no binding");
    }
    std::optional<DirId> root = RootOf(device);
    if (!root) {
      return FailedPreconditionError("no root");
    }
    std::vector<std::string> names{binding->name};
    DirId dir = binding->dir_id;
    for (int depth = 0; depth < 256; ++depth) {
      if (dir == *root) {
        std::string path = "/";
        for (size_t i = names.size(); i > 0; --i) {
          path += names[i - 1];
          if (i > 1) {
            path += "/";
          }
        }
        return path;
      }
      auto up = LatestDirBinding(device, dir, as_of);
      if (!up) {
        return DataLossError("dangling directory id");
      }
      names.push_back(up->name);
      dir = up->parent_dir_id;
    }
    return DataLossError("directory cycle");
  }
};

std::string Describe(const Result<std::string>& path) {
  return path.ok() ? *path : "error " + std::to_string(static_cast<int>(
                                            path.status().code()));
}

// Every query `service` answers must match `scan`: the full record list,
// and, for every device, file and directory the records name, the history
// and the bindings and paths as of every `stride`-th record's client time
// and of `now`.
void ExpectAnswersLike(const MetadataService& service, const Scan& scan,
                       SimTime now, const std::string& where,
                       size_t stride = 1) {
  SCOPED_TRACE(where);
  EXPECT_EQ(Flat(service.log().AllKnownRecords()), Flat(scan.all));
  std::vector<SimTime> times{now};
  for (size_t i = 0; i < scan.all.size(); i += stride) {
    times.push_back(scan.all[i].client_time);
  }
  for (const MetadataRecord& r : scan.all) {
    if (IsDirOp(r.op)) {
      for (SimTime t : times) {
        EXPECT_EQ(Flat(service.log().LatestDirBinding(r.device_id, r.dir_id,
                                                       t)),
                  Flat(scan.LatestDirBinding(r.device_id, r.dir_id, t)))
            << "dir " << r.dir_id.ToHex();
      }
      continue;
    }
    EXPECT_EQ(Flat(service.HistoryOf(r.device_id, r.audit_id)),
              Flat(scan.HistoryOf(r.device_id, r.audit_id)))
        << "file " << r.audit_id.ToHex();
    for (SimTime t : times) {
      EXPECT_EQ(Flat(service.log().LatestBinding(r.device_id, r.audit_id, t)),
                Flat(scan.LatestBinding(r.device_id, r.audit_id, t)))
          << "file " << r.audit_id.ToHex();
      EXPECT_EQ(Describe(service.ResolvePath(r.device_id, r.audit_id, t)),
                Describe(scan.ResolvePath(r.device_id, r.audit_id, t)))
          << "file " << r.audit_id.ToHex();
    }
  }
}

SegmentedLogOptions TruncatingLog() {
  SegmentedLogOptions log;
  log.segment_ops = 4;
  log.truncate = true;
  return log;
}

// The same namespace history, step by step, on every service in `targets`
// (all driven by one queue, so their rows are byte-identical).
class Script {
 public:
  Script(EventQueue* queue, std::vector<MetadataService*> targets,
         uint64_t seed)
      : queue_(queue), targets_(std::move(targets)), rng_(seed), ids_(seed) {
    for (const std::string device : {"dev-a", "dev-b"}) {
      DirId root = DirId::Random(ids_);
      for (MetadataService* service : targets_) {
        service->RegisterDeviceWithSecret(device, Bytes(32, 0x11));
        EXPECT_TRUE(service->RegisterRoot(device, root).ok());
      }
      dirs_[device].push_back(root);
    }
  }

  // Later steps go to `targets` instead (which must hold the history so
  // far, devices and roots included).
  void Retarget(std::vector<MetadataService*> targets) {
    targets_ = std::move(targets);
  }

  // One random namespace op, then a random pause.
  void Step() {
    const std::string device = rng_.Bernoulli(0.7) ? "dev-a" : "dev-b";
    std::vector<DirId>& dirs = dirs_[device];
    std::vector<AuditId>& files = files_[device];
    const DirId in = dirs[rng_.UniformU64(dirs.size())];
    const std::string name = "n" + std::to_string(counter_++);
    switch (files.empty() ? 0 : rng_.UniformU64(6)) {
      case 0: {  // Create.
        files.push_back(AuditId::Random(ids_));
        Each([&](MetadataService& s) {
          return s.RegisterFileBinding(device, files.back(), in, name, false)
              .status();
        });
        break;
      }
      case 1: {  // File rename.
        const AuditId& id = files[rng_.UniformU64(files.size())];
        Each([&](MetadataService& s) {
          return s.RegisterFileBinding(device, id, in, name, true).status();
        });
        break;
      }
      case 2: {  // Mkdir.
        dirs.push_back(DirId::Random(ids_));
        const DirId& parent = dirs[rng_.UniformU64(dirs.size() - 1)];
        Each([&](MetadataService& s) {
          return s.RegisterMkdir(device, dirs.back(), parent, name);
        });
        break;
      }
      case 3: {  // Directory rename (the root never moves).
        if (dirs.size() < 2) {
          break;
        }
        const DirId& dir = dirs[1 + rng_.UniformU64(dirs.size() - 1)];
        Each([&](MetadataService& s) {
          return s.RegisterDirRename(device, dir, in, name);
        });
        break;
      }
      case 4: {  // Attribute.
        const AuditId& id = files[rng_.UniformU64(files.size())];
        Each([&](MetadataService& s) {
          return s.RegisterAttr(device, id, "mode=" + name);
        });
        break;
      }
      default: {  // A journal recorded earlier, offline.
        std::vector<MetadataService::JournalRecord> journal(
            1 + rng_.UniformU64(3));
        for (MetadataService::JournalRecord& record : journal) {
          record.client_time =
              queue_->Now() -
              SimDuration::Millis(static_cast<int64_t>(rng_.UniformU64(4000)));
          record.name = "j" + std::to_string(counter_++);
          if (rng_.Bernoulli(0.5)) {
            record.op = MetadataOp::kCreateFile;
            files.push_back(AuditId::Random(ids_));
            record.audit_id = files.back();
            record.dir_id = in;
          } else if (rng_.Bernoulli(0.5)) {
            record.op = MetadataOp::kRenameFile;
            record.audit_id = files[rng_.UniformU64(files.size())];
            record.dir_id = in;
          } else {
            record.op = MetadataOp::kMkdir;
            dirs.push_back(DirId::Random(ids_));
            record.dir_id = dirs.back();
            record.parent_dir_id = in;
          }
        }
        Each([&](MetadataService& s) {
          return s.UploadJournal(device, journal);
        });
        break;
      }
    }
    queue_->AdvanceBy(
        SimDuration::Millis(static_cast<int64_t>(1 + rng_.UniformU64(900))));
  }

 private:
  void Each(const std::function<Status(MetadataService&)>& op) {
    for (MetadataService* service : targets_) {
      EXPECT_TRUE(op(*service).ok());
    }
  }

  EventQueue* queue_;
  std::vector<MetadataService*> targets_;
  SimRandom rng_;
  SecureRandom ids_;
  std::map<std::string, std::vector<DirId>> dirs_;
  std::map<std::string, std::vector<AuditId>> files_;
  int counter_ = 0;
};

TEST(OneCopyIndexTest, TruncatingServiceAnswersLikeAFullScan) {
  EventQueue queue;
  MetadataService plain(&queue, 7, TestPairingParams());
  MetadataService truncating(&queue, 7, TestPairingParams(), TruncatingLog());
  MetadataService backup(&queue, 7, TestPairingParams(), TruncatingLog());
  // The backup is fed every delta the truncating service ships, and the
  // acknowledged prefix is what the leader may truncate.
  truncating.set_replicator(
      [&](MetadataService::Delta delta, std::function<void()> done) {
        EXPECT_TRUE(backup.ApplyReplicated(delta).ok());
        done();
      });
  truncating.set_durable_watermark([&] { return truncating.shipped_seq(); });

  Script script(&queue, {&plain, &truncating}, 31);
  for (const std::string device : {"dev-a", "dev-b"}) {
    backup.RegisterDeviceWithSecret(device, Bytes(32, 0x11));
  }
  truncating.ReplicateNow();
  for (int step = 0; step < 60; ++step) {
    script.Step();
    truncating.ReplicateNow();
    const Scan scan{plain.log().records()};
    const std::string at = "step " + std::to_string(step);
    ExpectAnswersLike(truncating, scan, queue.Now(), at + " truncating", 3);
    ExpectAnswersLike(backup, scan, queue.Now(), at + " backup", 3);
  }
  ASSERT_GT(truncating.log().base_seq(), 0u);
  ASSERT_GT(backup.log().base_seq(), 0u);
  const Scan scan{plain.log().records()};

  // A snapshot restores into a fresh service and into the service itself,
  // and either answers as before.
  const Bytes snapshot = truncating.Snapshot();
  MetadataService restored(&queue, 7, TestPairingParams(), TruncatingLog());
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_EQ(restored.log().base_seq(), truncating.log().base_seq());
  ExpectAnswersLike(restored, scan, queue.Now(), "restored");
  ASSERT_TRUE(truncating.Restore(snapshot).ok());
  ExpectAnswersLike(truncating, scan, queue.Now(), "restored in place");
  EXPECT_EQ(restored.Snapshot(), snapshot);

  // And the restored service keeps answering as it grows and truncates.
  script.Retarget({&plain, &restored});
  for (int step = 0; step < 12; ++step) {
    script.Step();
  }
  ExpectAnswersLike(restored, Scan{plain.log().records()}, queue.Now(),
                    "restored, then grown");
}

TEST(TruncatedPrefixCheckTest, RestoreRefusesAPrefixTheChainDoesNotHangOff) {
  EventQueue queue;
  MetadataService service(&queue, 7, TestPairingParams(), TruncatingLog());
  Script script(&queue, {&service}, 41);
  for (int step = 0; step < 20; ++step) {
    script.Step();
  }
  ASSERT_GT(service.log().base_seq(), 1u);
  const Bytes snapshot = service.Snapshot();
  auto decoded = BinaryDecode(snapshot);
  ASSERT_TRUE(decoded.ok());

  // The first edit makes cold_bindings unreadable. The others leave it
  // well formed, but not the prefix the chain hangs off: a row missing, a
  // row out of place, a row re-sealed.
  auto edit_rows = [](std::function<void(WireValue::Array&)> edit) {
    return [edit](WireValue& field) {
      WireValue::Array rows = *field.AsArray();
      edit(rows);
      field = WireValue(std::move(rows));
    };
  };
  const std::vector<std::function<void(WireValue&)>> edits = {
      [](WireValue& field) { field = WireValue(int64_t{7}); },
      edit_rows([](WireValue::Array& rows) { rows.pop_back(); }),
      edit_rows([](WireValue::Array& rows) { std::swap(rows[0], rows[1]); }),
      edit_rows([](WireValue::Array& rows) {
        auto row = MetadataRecord::FromWire(rows.back());
        ASSERT_TRUE(row.ok());
        row->entry_hash = row->prev_hash;
        rows.back() = row->ToWire();
      }),
  };
  for (size_t e = 0; e < edits.size(); ++e) {
    WireValue::Struct fields = std::get<WireValue::Struct>(decoded->raw());
    edits[e](fields.at("cold_bindings"));
    Status status =
        service.Restore(BinaryEncode(WireValue(std::move(fields))));
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "edit " << e;
    EXPECT_EQ(service.Snapshot(), snapshot) << "edit " << e;
  }
  EXPECT_TRUE(service.Restore(snapshot).ok());
}

// --- A reconciled replica of a truncating replicated metadata tier. ---------

TEST(OneCopyIndexTest, ReconciledReplicaAnswersLikeTheWinnersChain) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.meta_replicas = 2;
  options.meta_log = TruncatingLog();
  // Held responses wait out one backup ack timeout when the mesh first
  // partitions; give each attempt room for that.
  options.rpc.timeout = SimDuration::Seconds(3);
  options.rpc.retry.max_attempts = 2;
  Deployment dep(options);
  auto& fs = dep.fs();
  MetaReplicaSet* set = dep.meta_replica_set();
  ASSERT_NE(set, nullptr);

  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/docs/f" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(fs.Rename(path, "/g" + std::to_string(i)).ok());
    }
  }
  ASSERT_TRUE(fs.Rename("/docs", "/papers").ok());
  ASSERT_GT(dep.meta_replica(0).log().base_seq(), 0u);

  // Split brain: replica 0 keeps serving the laptop and grows the longer
  // chain, replica 1 promotes. On heal, replica 1 loses the contest and
  // reconciles onto replica 0's snapshot, truncated prefix and all.
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kPartition, 0)).ok());
  ASSERT_TRUE(fs.Mkdir("/papers/late").ok());
  ASSERT_TRUE(fs.Create("/papers/late/x").ok());
  ASSERT_TRUE(fs.Rename("/g0", "/papers/late/y").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  ASSERT_GE(set->stats().promotions, 1u);
  ASSERT_TRUE(dep.Inject(Fault::Meta(Fault::kHeal, 0)).ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  ASSERT_EQ(set->current_leader(), 0u);
  ASSERT_GE(set->stats().reconcile_rounds, 1u);

  auto check = [&](const std::string& where) {
    const MetadataLog& winner = dep.meta_replica(0).log();
    auto chain = winner.AllEntriesFromSeq(0);
    ASSERT_TRUE(chain.ok()) << chain.status();
    const Scan scan{*chain};
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_GT(dep.meta_replica(r).log().base_seq(), 0u) << where;
      EXPECT_EQ(dep.meta_replica(r).log().size(), winner.size()) << where;
      ExpectAnswersLike(dep.meta_replica(r), scan, dep.queue().Now(),
                        where + ", replica " + std::to_string(r));
    }
  };
  check("after reconcile");
  ASSERT_TRUE(fs.Create("/papers/late/z").ok());
  ASSERT_TRUE(fs.Rename("/papers/late", "/late").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(1));
  check("after more work");
}

// --- A restarted ex-leader claims no leadership. ----------------------------

DeploymentOptions ReplicatedKeyOpts() {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.key_replicas = 3;
  options.rpc.timeout = SimDuration::Seconds(3);
  options.rpc.retry.max_attempts = 2;
  return options;
}

// Partitions key replica 0 while it leads and serves, lets replica 1
// promote, crashes replica 0, heals and restarts it: replica 0 now holds
// the longer, partition-era chain and is about to reconcile it away.
// Returns the audit ids of the files created before the partition.
std::vector<AuditId> RestartTheExLeader(Deployment& dep) {
  auto& fs = dep.fs();
  std::vector<AuditId> ids;
  for (int i = 0; i < 5; ++i) {
    const std::string path = "/pre" + std::to_string(i);
    EXPECT_TRUE(fs.Create(path).ok());
    EXPECT_TRUE(fs.WriteAll(path, BytesOf("secret")).ok());
    ids.push_back(fs.ReadHeaderOf(path)->audit_id);
  }
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kPartition, 0, 0)).ok());
  EXPECT_TRUE(fs.Create("/during").ok());
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  EXPECT_TRUE(dep.replica_set(0)->is_leader(1));
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kCrash, 0, 0)).ok());
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kHeal, 0, 0)).ok());
  EXPECT_TRUE(dep.Inject(Fault::Key(Fault::kRestart, 0, 0)).ok());
  return ids;
}

bool HasRevokeRow(const AuditLog& log, const std::string& device) {
  for (const AuditLogEntry& entry : log.entries()) {
    if (entry.op == AccessOp::kRevoke && entry.device_id == device) {
      return true;
    }
  }
  return false;
}

TEST(RestartLeadershipTest, RevocationRightAfterRestartReachesEveryReplica) {
  Deployment dep(ReplicatedKeyOpts());
  std::vector<AuditId> ids = RestartTheExLeader(dep);
  ReplicaSet* set = dep.replica_set(0);
  EXPECT_FALSE(set->is_leader(0));
  EXPECT_EQ(set->current_leader(), 1u);

  dep.ReportDeviceLost();
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  for (size_t r = 0; r < 3; ++r) {
    const KeyService& replica = dep.key_replica(0, r);
    EXPECT_TRUE(replica.IsDeviceDisabled(dep.device_id())) << "replica " << r;
    EXPECT_TRUE(HasRevokeRow(replica.log(), dep.device_id()))
        << "replica " << r;
  }
  auto key = dep.key_client().GetKey(ids[0]);
  EXPECT_EQ(key.status().code(), StatusCode::kPermissionDenied);
}

TEST(RestartLeadershipTest, ThiefCallToARejoiningReplicaGetsNotLeader) {
  Deployment dep(ReplicatedKeyOpts());
  std::vector<AuditId> ids = RestartTheExLeader(dep);
  auto creds = dep.MakeAttacker().StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  ASSERT_TRUE(clients.ok());

  // Straight to replica 0, inside its rejoin window.
  KeyServiceClient direct(clients->key_rpc.get(), creds->device_id,
                          creds->key_secret);
  auto key = direct.GetKey(ids[0]);
  EXPECT_EQ(key.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(key.status().message().find("NOT_LEADER"), std::string::npos)
      << key.status();
}

// --- A disabled device cannot destroy its keys. -----------------------------

TEST(DestroyAfterRevocationTest, ThiefCannotEraseWhatTheReplacementInherits) {
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  options.cloud_backup = true;
  options.key_shards = 2;
  Deployment dep(options);
  auto& fs = dep.fs();
  std::vector<std::string> paths;
  for (int i = 0; i < 6; ++i) {
    paths.push_back("/f" + std::to_string(i));
    ASSERT_TRUE(fs.Create(paths.back()).ok());
    ASSERT_TRUE(fs.WriteAll(paths.back(), BytesOf("kept " + paths.back()))
                    .ok());
  }
  ASSERT_TRUE(dep.BackupNow().ok());
  dep.queue().AdvanceBy(fs.config().texp * 2 + SimDuration::Minutes(5));
  dep.ReportDeviceLost();

  auto attacker = dep.MakeAttacker();
  auto creds = attacker.StealCredentials();
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  ASSERT_TRUE(clients.ok());
  std::vector<Status> outcomes;
  for (const std::string& path : paths) {
    const AuditId id = fs.ReadHeaderOf(path)->audit_id;
    clients->router->DestroyKeyAsync(
        id, [&](Status status) { outcomes.push_back(std::move(status)); });
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(10));
  ASSERT_EQ(outcomes.size(), paths.size());
  for (const Status& status : outcomes) {
    EXPECT_EQ(status.code(), StatusCode::kPermissionDenied) << status;
  }
  // Each attempt is on its shard's record as a denial, and no key went.
  size_t denied = 0;
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    for (const AuditLogEntry& entry : dep.key_replica(s, 0).log().entries()) {
      EXPECT_NE(entry.op, AccessOp::kDestroy);
      if (entry.op == AccessOp::kDenied &&
          entry.device_id == dep.device_id()) {
        ++denied;
      }
    }
  }
  EXPECT_GE(denied, paths.size());

  auto replacement = dep.EnrollReplacementDevice("laptop-2");
  ASSERT_TRUE(replacement.ok()) << replacement.status();
  for (const std::string& path : paths) {
    auto body = replacement->fs->ReadAll(path);
    ASSERT_TRUE(body.ok()) << path << ": " << body.status();
    EXPECT_EQ(*body, BytesOf("kept " + path));
  }
}

}  // namespace
}  // namespace keypad
