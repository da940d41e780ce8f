// Post-loss forensic analysis (§2 goals, §5.2 evaluation; the paper ships a
// Python tool with the same role: "given a Tloss timestamp and an
// expiration time Texp, the tool reconstructs a full-fidelity audit report
// of all accesses after Tloss − Texp, including full path names and access
// timestamps").
//
// The auditor verifies both services' hash chains, gathers every key-service
// record with access time after the cutoff Tloss − Texp, resolves each
// audit ID to its latest *trusted* pathname (metadata as of Tloss) plus any
// post-loss bindings a thief registered, and classifies entries. The report
// is conservative by construction: it never misses a compromised file (zero
// false negatives), at the price of prefetch-induced false positives, which
// it can quantify when given ground truth.

#ifndef SRC_KEYPAD_FORENSICS_H_
#define SRC_KEYPAD_FORENSICS_H_

#include <set>
#include <string>
#include <vector>

#include "src/auditlog/checkpoint.h"
#include "src/keyservice/key_service.h"
#include "src/metaservice/metadata_service.h"
#include "src/rpc/rpc.h"
#include "src/util/ids.h"

namespace keypad {

struct AuditedAccess {
  SimTime when;
  AccessOp op;
};

struct AuditReportEntry {
  AuditId audit_id;
  // Latest pathname registered before Tloss (what the user knew the file
  // as). Empty if the file was created post-loss or never bound.
  std::string path_at_loss;
  // Pathnames registered after Tloss (e.g. by a thief unlocking files, or
  // bogus bindings). Chronological.
  std::vector<std::string> post_loss_paths;
  std::vector<AuditedAccess> accesses;
  // True if every access in the window was a prefetch — a candidate false
  // positive (§5.2).
  bool prefetch_only = false;
  // True if at least one access happened strictly after Tloss (as opposed
  // to only inside the [Tloss − Texp, Tloss] cache-exposure window).
  bool accessed_after_loss = false;
};

struct AuditReport {
  SimTime t_loss;
  SimTime cutoff;  // t_loss − texp.
  // Files the owner must consider compromised, most recent access first.
  std::vector<AuditReportEntry> compromised;
  // Subset sizes for quick reading.
  size_t demand_accessed_count = 0;
  size_t prefetch_only_count = 0;
  // Attempts blocked by revocation (kDenied records after Tloss).
  size_t denied_attempts = 0;
  // Log-chain verification results.
  bool key_log_verified = false;
  bool metadata_log_verified = false;
  // Replicated tiers (DESIGN.md §9–§10): true iff every live replica's
  // chain verified — key and metadata alike — not just the authoritative
  // ones.
  bool replica_logs_verified = true;
  // Entries orphaned by failover reconciliation (either tier) whose logical
  // row (device, audit id, op, client time — plus the namespace fields for
  // metadata records) the authoritative chain also carries: harmless
  // duplication — the invariant is duplicated, not lost.
  size_t duplicate_records = 0;
  // Orphaned entries with no authoritative counterpart. Key-tier ones are
  // folded into the report conservatively (a client-acknowledged access is
  // never dropped just because its chain lost the leadership contest).
  size_t orphaned_records = 0;

  bool Compromised(const AuditId& id) const;
  std::string ToString() const;
};

class ForensicAuditor {
 public:
  ForensicAuditor(const KeyService* key_service,
                  const MetadataService* metadata_service)
      : ForensicAuditor(std::vector<const KeyService*>{key_service},
                        metadata_service) {}

  // Sharded key tier (DESIGN.md §8): the auditor reads every shard's log —
  // each chain verifies independently, and the per-device records merge by
  // service timestamp into one timeline.
  ForensicAuditor(std::vector<const KeyService*> key_services,
                  const MetadataService* metadata_service)
      : key_services_(std::move(key_services)),
        metadata_service_(metadata_service) {}

  // Replicated key tier: one ReplicaSet per shard (nullptr entries mean
  // that shard is unreplicated). The auditor then verifies every replica
  // chain, reads records from each shard's *current leader* (the replica-0
  // view may be stale after a failover), and enumerates the entries
  // reconciliation orphaned as duplicated-or-surfaced.
  void AttachReplicaSets(std::vector<const ReplicaSet*> replica_sets) {
    replica_sets_ = std::move(replica_sets);
  }

  // Replicated metadata tier (DESIGN.md §10): the auditor verifies every
  // metadata replica's chain, resolves paths against the *current leader*
  // (the replica-0 view may be stale after a failover), and classifies the
  // namespace records reconciliation orphaned as duplicated-or-surfaced —
  // exactly as it does key-audit entries.
  void AttachMetaReplicaSet(const MetaReplicaSet* set) {
    meta_replica_set_ = set;
  }

  // Builds the post-loss report for `device_id`. `texp` must be the Texp
  // the device was configured with (the owner/IT department knows it).
  Result<AuditReport> BuildReport(const std::string& device_id, SimTime t_loss,
                                  SimDuration texp) const;

 private:
  // The shard's authoritative service: its replica set's current leader
  // when attached, the historical single instance otherwise.
  const KeyService* Authority(size_t shard) const;
  // Same for the metadata tier.
  const MetadataService* MetaAuthority() const;

  std::vector<const KeyService*> key_services_;
  const MetadataService* metadata_service_;
  std::vector<const ReplicaSet*> replica_sets_;
  const MetaReplicaSet* meta_replica_set_ = nullptr;
};

// The same report, built remotely over the services' audit RPC surface —
// how Bob's "web service provided by his drive manufacturer" (§2) or an IT
// console actually reads the logs. The services verify their own hash
// chains before serving audit data (they are the trusted parties).
class RemoteAuditor {
 public:
  RemoteAuditor(RpcClient* key_rpc, RpcClient* meta_rpc,
                std::string device_id, Bytes key_secret, Bytes meta_secret)
      : RemoteAuditor(std::vector<RpcClient*>{key_rpc}, meta_rpc,
                      std::move(device_id), std::move(key_secret),
                      std::move(meta_secret)) {}

  // Sharded key tier: one RPC stub per shard. Audits are incremental — the
  // auditor keeps a per-shard sequence cursor and each BuildReport pulls
  // only the log suffix appended since the last audit (audit.key_log_tail),
  // so the console's nightly audit is O(new entries), not O(log).
  RemoteAuditor(std::vector<RpcClient*> key_rpcs, RpcClient* meta_rpc,
                std::string device_id, Bytes key_secret, Bytes meta_secret)
      : key_rpcs_(std::move(key_rpcs)),
        meta_rpc_(meta_rpc),
        device_id_(std::move(device_id)),
        key_secret_(std::move(key_secret)),
        meta_secret_(std::move(meta_secret)),
        shards_(key_rpcs_.size()) {}

  // Non-const: advances the per-shard cursors and extends the cached
  // per-device timeline. Paths for the reported files come from one
  // audit.annotate request (DESIGN.md §19); a metadata chain that fails
  // verification fails the report.
  Result<AuditReport> BuildReport(SimTime t_loss, SimDuration texp);

  // Checkpoint-anchored catch-up (DESIGN.md §15): fetches each tier's
  // signed checkpoint chain, verifies hashes and signatures client-side,
  // and fast-forwards the cursors to the latest checkpoint — the sealed
  // prefix is vouched for by the signatures, so a fresh auditor's first
  // pull is O(tail since last checkpoint) instead of O(log from genesis).
  // Entries before the cursor are not cached locally; forensic replay of
  // the sealed prefix goes through audit.*_log_segment instead.
  Status CatchUpFromCheckpoints();

  // Test hooks: where each shard's cursor stands and how much of the
  // device's timeline is cached locally.
  uint64_t cursor(size_t shard = 0) const { return shards_[shard].cursor; }
  // The metadata tier's incremental cursor (audit.meta_log_tail).
  uint64_t meta_cursor() const { return meta_.cursor; }
  size_t meta_cached_entries() const { return meta_.cached.size(); }
  size_t cached_entries() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.cached.size();
    }
    return total;
  }
  // Cursor-resync forensics: how often a log (key shard or metadata tier)
  // came back *behind* the cursor (restore from an older snapshot /
  // failover to a shorter chain), how many previously-fetched rows the
  // resynced log no longer carries (kept locally as evidence), and
  // overlapping rows whose bytes changed.
  uint64_t resyncs() const { return resyncs_; }
  uint64_t regressed_entries() const { return regressed_entries_; }
  uint64_t overlap_mismatches() const { return overlap_mismatches_; }
  // Apparent regressions proven benign by checkpoint comparison (service
  // restart or prefix truncation of the *same* chain — no resync needed).
  uint64_t benign_restarts() const { return benign_restarts_; }
  // Total log rows pulled over the audit RPC surface (bench: checkpoint
  // catch-up vs genesis replay).
  uint64_t entries_fetched() const { return entries_fetched_; }

 private:
  // One log's incremental-plus-resync state: the "next unseen sequence
  // number" cursor, the service restore epoch last seen, the device's rows
  // fetched so far (kept per log so a resync re-verifies just its rows),
  // and the checkpoint fingerprint (count + latest hash) last seen, for
  // regression disambiguation.
  template <typename Row>
  struct TailCursor {
    uint64_t cursor = 0;
    uint64_t epoch = 0;
    std::vector<Row> cached;
    uint64_t ckpt_count = 0;
    Bytes ckpt_hash;
  };
  // Where one log's audit surface lives.
  struct Tier {
    RpcClient* rpc;
    const Bytes* secret;
    const char* tail_method;
    const char* ckpt_method;
  };
  Tier KeyTier(size_t shard) const {
    return {key_rpcs_[shard], &key_secret_, "audit.key_log_tail",
            "audit.key_checkpoints"};
  }
  Tier MetaTier() const {
    return {meta_rpc_, &meta_secret_, "audit.meta_log_tail",
            "audit.meta_checkpoints"};
  }

  // Advances one log's cursor by one tail round, detecting
  // restore-from-older-snapshot regressions.
  template <typename Row>
  Status PullTail(const Tier& tier, TailCursor<Row>* log);
  // Re-reads the log from sequence 0 after detecting regression, and
  // reconciles it against what this auditor had already fetched.
  template <typename Row>
  Status Resync(const Tier& tier, uint64_t server_epoch,
                TailCursor<Row>* log);
  // Fast-forwards one log's cursor to its latest verified checkpoint.
  template <typename Row>
  Status CatchUp(const Tier& tier, TailCursor<Row>* log);

  // Fetches and chain-verifies one tier's signed checkpoint list.
  Result<std::vector<LogCheckpoint>> FetchCheckpoints(RpcClient* rpc,
                                                      const char* method,
                                                      const Bytes& secret);
  // Whether the server's (verified) checkpoint chain extends the prefix
  // this auditor recorded: cursor regressions are disambiguated by
  // checkpoint id/hash, never by raw sequence alone, so a truncating
  // restart of the same chain is not mistaken for a
  // restore-from-older-snapshot.
  bool CheckpointsExtendRecorded(RpcClient* rpc, const char* method,
                                 const Bytes& secret, uint64_t recorded_count,
                                 const Bytes& recorded_hash);

  std::vector<RpcClient*> key_rpcs_;
  RpcClient* meta_rpc_;
  std::string device_id_;
  Bytes key_secret_;
  Bytes meta_secret_;
  std::vector<TailCursor<AuditLogEntry>> shards_;
  // The metadata tier's rows are retained as evidence; the report's paths
  // come from audit.annotate.
  TailCursor<MetadataRecord> meta_;
  uint64_t resyncs_ = 0;
  uint64_t regressed_entries_ = 0;
  uint64_t overlap_mismatches_ = 0;
  uint64_t benign_restarts_ = 0;
  uint64_t entries_fetched_ = 0;
};

}  // namespace keypad

#endif  // SRC_KEYPAD_FORENSICS_H_
