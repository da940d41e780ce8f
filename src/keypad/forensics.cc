#include "src/keypad/forensics.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "src/keyservice/auth.h"

namespace keypad {

bool AuditReport::Compromised(const AuditId& id) const {
  for (const auto& entry : compromised) {
    if (entry.audit_id == id) {
      return true;
    }
  }
  return false;
}

std::string AuditReport::ToString() const {
  std::ostringstream out;
  out << "Audit report (Tloss=" << t_loss.seconds_f()
      << "s, cutoff=" << cutoff.seconds_f() << "s)\n";
  out << "  key log chain: " << (key_log_verified ? "VERIFIED" : "BROKEN")
      << ", metadata log chain: "
      << (metadata_log_verified ? "VERIFIED" : "BROKEN") << "\n";
  out << "  compromised files: " << compromised.size() << " ("
      << demand_accessed_count << " demand-accessed, " << prefetch_only_count
      << " prefetch-only), denied post-revocation attempts: "
      << denied_attempts << "\n";
  for (const auto& entry : compromised) {
    out << "    " << (entry.path_at_loss.empty() ? "<unbound>"
                                                 : entry.path_at_loss);
    if (!entry.post_loss_paths.empty()) {
      out << " (post-loss bindings:";
      for (const auto& p : entry.post_loss_paths) {
        out << " " << p;
      }
      out << ")";
    }
    out << " — " << entry.accesses.size() << " access(es)";
    if (entry.prefetch_only) {
      out << " [prefetch only]";
    }
    out << "\n";
  }
  return out.str();
}

namespace {

// Shared classification core used by both the in-process and the remote
// auditor: groups key-service records per audit ID and classifies
// prefetch-only entries. The paths stay empty until AttachAnnotations fills
// them in, so the metadata tier is asked about exactly the reported files.
AuditReport ClassifyAccesses(SimTime t_loss, SimDuration texp,
                             const std::vector<AuditLogEntry>& entries) {
  AuditReport report;
  report.t_loss = t_loss;
  report.cutoff = t_loss - texp;
  report.key_log_verified = true;
  report.metadata_log_verified = true;

  std::map<AuditId, AuditReportEntry> by_id;
  // Latest trusted eviction per file: the client reported securely erasing
  // the cached key (hibernation/shutdown, §6). Only the *service-side*
  // timestamp is trusted for the pre-loss test — a thief holding the
  // device credentials could upload journal entries with forged client
  // times, but he cannot make the service have appended them in the past.
  std::map<AuditId, SimTime> evicted_at;
  for (const auto& entry : entries) {
    if (entry.op == AccessOp::kDenied) {
      if (entry.client_time >= t_loss) {
        ++report.denied_attempts;
      }
      continue;
    }
    if (entry.op == AccessOp::kEviction) {
      if (entry.timestamp < t_loss) {
        SimTime& at = evicted_at[entry.audit_id];
        at = std::max(at, entry.timestamp);
      }
      continue;
    }
    if (entry.op == AccessOp::kRevoke || entry.op == AccessOp::kDestroy ||
        entry.op == AccessOp::kRestore) {
      // Control records: a revoked or destroyed key cannot leak after the
      // fact, and a restore re-binding is an administrative action, not a
      // key leaving the service.
      continue;
    }
    AuditReportEntry& file = by_id[entry.audit_id];
    file.audit_id = entry.audit_id;
    file.accesses.push_back(AuditedAccess{entry.client_time, entry.op});
    if (entry.client_time >= t_loss) {
      file.accessed_after_loss = true;
    }
  }

  // A file whose only exposure is a cached key inside the window is clean
  // if a trusted eviction followed its last key fetch: the key was gone
  // from memory before the device was lost.
  for (auto it = by_id.begin(); it != by_id.end();) {
    const AuditReportEntry& file = it->second;
    auto evicted = evicted_at.find(it->first);
    bool erased_before_loss =
        !file.accessed_after_loss && evicted != evicted_at.end() &&
        std::all_of(file.accesses.begin(), file.accesses.end(),
                    [&](const AuditedAccess& access) {
                      return access.when < evicted->second;
                    });
    it = erased_before_loss ? by_id.erase(it) : std::next(it);
  }

  for (auto& [id, file] : by_id) {
    file.prefetch_only = !file.accesses.empty();
    for (const auto& access : file.accesses) {
      if (access.op != AccessOp::kPrefetch) {
        file.prefetch_only = false;
        break;
      }
    }
    if (file.prefetch_only) {
      ++report.prefetch_only_count;
    } else {
      ++report.demand_accessed_count;
    }
  }

  report.compromised.reserve(by_id.size());
  for (auto& [id, file] : by_id) {
    report.compromised.push_back(std::move(file));
  }
  std::sort(report.compromised.begin(), report.compromised.end(),
            [](const AuditReportEntry& a, const AuditReportEntry& b) {
              return a.accesses.back().when > b.accesses.back().when;
            });
  return report;
}

// The metadata tier's answers, one per compromised file in report order
// (MetadataService::Annotate).
Status AttachAnnotations(std::vector<FileAnnotation> annotations,
                         AuditReport* report) {
  if (annotations.size() != report->compromised.size()) {
    return DataLossError("forensics: " + std::to_string(annotations.size()) +
                         " annotations for " +
                         std::to_string(report->compromised.size()) +
                         " files");
  }
  for (size_t i = 0; i < annotations.size(); ++i) {
    report->compromised[i].path_at_loss =
        std::move(annotations[i].path_at_loss);
    report->compromised[i].post_loss_paths =
        std::move(annotations[i].post_loss_paths);
  }
  return Status::Ok();
}

// Auditor catch-up is deferrable background traffic (DESIGN.md §14):
// under overload the service sheds the nightly tail pulls first and the
// auditor simply resumes from its cursor on the next pass.
CallContext AuditorCallContext() {
  CallContext ctx;
  ctx.priority = RpcPriority::kBackground;
  return ctx;
}

// The fields that make a row on one chain the same logical event as a row
// on another, reconciled chain: the seal-chain fields and the service
// timestamp necessarily differ across chains.
bool SameLogicalRow(const AuditLogEntry& a, const AuditLogEntry& b) {
  return a.device_id == b.device_id && a.audit_id == b.audit_id &&
         a.op == b.op && a.client_time == b.client_time;
}

bool SameLogicalRow(const MetadataRecord& a, const MetadataRecord& b) {
  return a.device_id == b.device_id && a.audit_id == b.audit_id &&
         a.op == b.op && a.dir_id == b.dir_id && a.name == b.name &&
         a.client_time == b.client_time;
}

// Classifies one replica set's reconciliation orphans of `device_id`
// against the authoritative rows: a duplicate when some held row is the
// same logical event, else a sole survivor handed to `survivor`.
template <typename Row, typename Survivor>
void ClassifyOrphans(const std::vector<OrphanedRow<Row>>& orphans,
                     const std::vector<Row>& authoritative,
                     const std::string& device_id, size_t* duplicates,
                     Survivor&& survivor) {
  for (const auto& orphan : orphans) {
    const Row& row = orphan.entry;
    if (row.device_id != device_id) {
      continue;
    }
    if (std::any_of(
            authoritative.begin(), authoritative.end(),
            [&](const Row& held) { return SameLogicalRow(held, row); })) {
      ++*duplicates;
    } else {
      survivor(row);
    }
  }
}

// Authoritative chains get the strongest check the deployment supports:
// end-to-end from genesis, refetching truncated segments from the cold
// tier (with cloud repair) and verifying each against its signed
// checkpoint. A replica that adopted a truncated snapshot without a cold
// tier of its own can't replay the sealed prefix — there the verified
// checkpoint chain vouches for it (Verify()).
template <typename Log>
Status VerifyChainDeep(const Log& log) {
  Status deep = log.VerifyFullChain();
  if (deep.ok() || deep.code() != StatusCode::kUnavailable) {
    return deep;
  }
  return log.Verify();
}

}  // namespace

const KeyService* ForensicAuditor::Authority(size_t shard) const {
  if (shard < replica_sets_.size() && replica_sets_[shard] != nullptr) {
    const ReplicaSet* set = replica_sets_[shard];
    return set->service(set->current_leader());
  }
  return key_services_[shard];
}

const MetadataService* ForensicAuditor::MetaAuthority() const {
  if (meta_replica_set_ != nullptr) {
    return meta_replica_set_->service(meta_replica_set_->current_leader());
  }
  return metadata_service_;
}

Result<AuditReport> ForensicAuditor::BuildReport(const std::string& device_id,
                                                 SimTime t_loss,
                                                 SimDuration texp) const {
  // Trust nothing until the chains check out — every shard's authoritative
  // chain must verify independently before any of them contributes records.
  bool key_logs_ok = true;
  for (size_t i = 0; i < key_services_.size(); ++i) {
    key_logs_ok = key_logs_ok && VerifyChainDeep(Authority(i)->log()).ok();
  }
  // Replica chains verify too: a backup holding a broken chain is an audit
  // finding even when the leader's chain is intact.
  bool replicas_ok = true;
  for (const ReplicaSet* set : replica_sets_) {
    if (set == nullptr) {
      continue;
    }
    for (size_t r = 0; r < set->size(); ++r) {
      replicas_ok = replicas_ok && set->service(r)->log().Verify().ok();
    }
  }
  if (meta_replica_set_ != nullptr) {
    for (size_t r = 0; r < meta_replica_set_->size(); ++r) {
      replicas_ok = replicas_ok &&
                    meta_replica_set_->service(r)->log().Verify().ok();
    }
  }
  if (!key_logs_ok || !VerifyChainDeep(MetaAuthority()->log()).ok()) {
    AuditReport report;
    report.t_loss = t_loss;
    report.cutoff = t_loss - texp;
    report.key_log_verified = key_logs_ok;
    report.metadata_log_verified = VerifyChainDeep(MetaAuthority()->log()).ok();
    report.replica_logs_verified = replicas_ok;
    return Result<AuditReport>(std::move(report));
  }

  std::vector<AuditLogEntry> entries;
  for (size_t i = 0; i < key_services_.size(); ++i) {
    for (const auto& entry : Authority(i)->LogSince(t_loss - texp)) {
      if (entry.device_id == device_id) {
        entries.push_back(entry);
      }
    }
  }

  // Rows reconciliation orphaned off losing chains classify the same way
  // on both tiers: a duplicate of an authoritative row, or a sole survivor
  // counted as orphaned. A key-tier survivor inside the window joins the
  // timeline, so the acknowledged access is never lost. A metadata
  // survivor is evidence of a namespace event, not an access, so it only
  // joins the counters.
  size_t duplicate_records = 0;
  size_t orphaned_records = 0;
  for (size_t i = 0; i < replica_sets_.size(); ++i) {
    if (replica_sets_[i] == nullptr) {
      continue;
    }
    ClassifyOrphans(replica_sets_[i]->orphaned(),
                    Authority(i)->LogSince(SimTime()), device_id,
                    &duplicate_records, [&](const AuditLogEntry& entry) {
                      ++orphaned_records;
                      if (entry.client_time >= t_loss - texp) {
                        entries.push_back(entry);
                      }
                    });
  }
  if (meta_replica_set_ != nullptr) {
    // AllKnownRecords: the metadata log keeps its truncated-prefix rows, so
    // an orphan that duplicates a checkpointed (and since-truncated) row
    // still classifies as a duplicate, matching an untruncated run.
    ClassifyOrphans(meta_replica_set_->orphaned(),
                    MetaAuthority()->log().AllKnownRecords(), device_id,
                    &duplicate_records,
                    [&](const MetadataRecord&) { ++orphaned_records; });
  }

  if (key_services_.size() > 1 || orphaned_records > 0) {
    // Each shard's slice is already chronological; merge into one timeline
    // by the trusted service-side timestamp.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const AuditLogEntry& a, const AuditLogEntry& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  AuditReport report = ClassifyAccesses(t_loss, texp, entries);
  std::vector<AuditId> ids;
  ids.reserve(report.compromised.size());
  for (const AuditReportEntry& file : report.compromised) {
    ids.push_back(file.audit_id);
  }
  KP_RETURN_IF_ERROR(AttachAnnotations(
      MetaAuthority()->Annotate(device_id, ids, t_loss), &report));
  report.replica_logs_verified = replicas_ok;
  report.duplicate_records = duplicate_records;
  report.orphaned_records = orphaned_records;
  return Result<AuditReport>(std::move(report));
}

namespace {

// Overlap re-verification after a resync: the fields that make two copies
// of one sequence number the same row (the chain fields necessarily differ
// across forks).
template <typename Row>
bool SameRow(const Row& a, const Row& b) {
  return SameLogicalRow(a, b) && a.timestamp == b.timestamp;
}

// One audit.*_log_tail reply.
template <typename Row>
struct TailPage {
  uint64_t next = 0;
  uint64_t epoch = 0;
  uint64_t ckpt_count = 0;
  Bytes ckpt_hash;
  std::vector<Row> rows;
};

Result<uint64_t> UintField(const WireValue& value, const char* name) {
  KP_ASSIGN_OR_RETURN(WireValue field, value.Field(name));
  KP_ASSIGN_OR_RETURN(int64_t v, field.AsInt());
  return static_cast<uint64_t>(v);
}

template <typename Row>
Result<TailPage<Row>> FetchTail(RpcClient* rpc, const std::string& device_id,
                                const Bytes& secret, const char* method,
                                uint64_t cursor) {
  WireValue::Array payload;
  payload.push_back(WireValue(static_cast<int64_t>(cursor)));
  auto result = rpc->Call(
      method, FrameAuthedCall(device_id, secret, method, std::move(payload)),
      AuditorCallContext());
  if (!result.ok()) {
    return result.status();
  }
  TailPage<Row> page;
  KP_ASSIGN_OR_RETURN(page.next, UintField(*result, "next"));
  KP_ASSIGN_OR_RETURN(page.epoch, UintField(*result, "epoch"));
  KP_ASSIGN_OR_RETURN(page.ckpt_count, UintField(*result, "ckpt_count"));
  KP_ASSIGN_OR_RETURN(WireValue hash, result->Field("ckpt_hash"));
  KP_ASSIGN_OR_RETURN(page.ckpt_hash, hash.AsBytes());
  KP_ASSIGN_OR_RETURN(WireValue entries, result->Field("entries"));
  KP_ASSIGN_OR_RETURN(Bytes flat, entries.AsBytes());
  KP_ASSIGN_OR_RETURN(page.rows, DecodeFlatRows<Row>(flat));
  return page;
}

}  // namespace

Result<std::vector<LogCheckpoint>> RemoteAuditor::FetchCheckpoints(
    RpcClient* rpc, const char* method, const Bytes& secret) {
  auto result = rpc->Call(method, FrameAuthedCall(device_id_, secret, method,
                                                  WireValue::Array()),
                          AuditorCallContext());
  if (!result.ok()) {
    return result.status();
  }
  KP_ASSIGN_OR_RETURN(WireValue::Array raw, result->AsArray());
  std::vector<LogCheckpoint> out;
  out.reserve(raw.size());
  for (const auto& raw_ckpt : raw) {
    KP_ASSIGN_OR_RETURN(LogCheckpoint ckpt, LogCheckpoint::FromWire(raw_ckpt));
    out.push_back(std::move(ckpt));
  }
  KP_RETURN_IF_ERROR(VerifyCheckpointChain(out, DefaultCheckpointKey()));
  return out;
}

bool RemoteAuditor::CheckpointsExtendRecorded(RpcClient* rpc,
                                              const char* method,
                                              const Bytes& secret,
                                              uint64_t recorded_count,
                                              const Bytes& recorded_hash) {
  if (recorded_count == 0) {
    // Nothing recorded to anchor on: fall back to the legacy full resync.
    return false;
  }
  auto ckpts = FetchCheckpoints(rpc, method, secret);
  if (!ckpts.ok() || ckpts->size() < recorded_count) {
    return false;
  }
  // The server's verified chain carries our recorded checkpoint at the same
  // position with the same hash: its history extends (not replaces) what
  // this auditor already fetched.
  return (*ckpts)[recorded_count - 1].hash == recorded_hash;
}

template <typename Row>
Status RemoteAuditor::CatchUp(const Tier& tier, TailCursor<Row>* log) {
  KP_ASSIGN_OR_RETURN(std::vector<LogCheckpoint> ckpts,
                      FetchCheckpoints(tier.rpc, tier.ckpt_method,
                                       *tier.secret));
  if (!ckpts.empty()) {
    log->cursor = std::max(log->cursor, ckpts.back().end_seq);
    log->ckpt_count = ckpts.size();
    log->ckpt_hash = ckpts.back().hash;
  }
  return Status::Ok();
}

Status RemoteAuditor::CatchUpFromCheckpoints() {
  for (size_t shard = 0; shard < key_rpcs_.size(); ++shard) {
    KP_RETURN_IF_ERROR(CatchUp(KeyTier(shard), &shards_[shard]));
  }
  return CatchUp(MetaTier(), &meta_);
}

template <typename Row>
Status RemoteAuditor::Resync(const Tier& tier, uint64_t server_epoch,
                             TailCursor<Row>* log) {
  ++resyncs_;
  KP_ASSIGN_OR_RETURN(TailPage<Row> page,
                      FetchTail<Row>(tier.rpc, device_id_, *tier.secret,
                                     tier.tail_method, 0));
  entries_fetched_ += page.rows.size();
  // Overlap re-verification: every row this auditor already fetched must
  // either still exist with identical content, or it stays in the local
  // cache as evidence — a row served once is never silently un-happened by
  // a restore or failover. Changed overlap rows (same sequence, different
  // content) are tamper/fork evidence; both versions are kept.
  std::vector<Row> merged = std::move(page.rows);
  std::unordered_map<uint64_t, size_t> fresh_by_seq;
  fresh_by_seq.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    fresh_by_seq.emplace(merged[i].seq, i);
  }
  for (const Row& had : log->cached) {
    auto match = fresh_by_seq.find(had.seq);
    if (match == fresh_by_seq.end()) {
      ++regressed_entries_;
      merged.push_back(had);
    } else if (!SameRow(merged[match->second], had)) {
      ++overlap_mismatches_;
      merged.push_back(had);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Row& a, const Row& b) {
                     return a.timestamp < b.timestamp;
                   });
  log->cached = std::move(merged);
  log->cursor = page.next;
  log->epoch = server_epoch;
  return Status::Ok();
}

template <typename Row>
Status RemoteAuditor::PullTail(const Tier& tier, TailCursor<Row>* log) {
  KP_ASSIGN_OR_RETURN(TailPage<Row> page,
                      FetchTail<Row>(tier.rpc, device_id_, *tier.secret,
                                     tier.tail_method, log->cursor));
  if (page.next < log->cursor || page.epoch != log->epoch) {
    // The log apparently moved under the cursor: either the cursor ran
    // past the server (restore from an older snapshot / failover onto a
    // shorter chain) or the service merely restarted — possibly having
    // truncated a checkpointed prefix we already hold. Raw sequence
    // numbers can't tell these apart; the signed checkpoint chain can.
    if (page.next >= log->cursor &&
        CheckpointsExtendRecorded(tier.rpc, tier.ckpt_method, *tier.secret,
                                  log->ckpt_count, log->ckpt_hash)) {
      // Same chain, extended: adopt the new epoch and keep the cursor.
      log->epoch = page.epoch;
      ++benign_restarts_;
    } else {
      // Genuinely different (or shorter) history: the suffix we just
      // asked for is not trustworthy as an increment; refetch from
      // sequence zero and re-verify the overlap.
      KP_RETURN_IF_ERROR(Resync(tier, page.epoch, log));
      log->ckpt_count = page.ckpt_count;
      log->ckpt_hash = std::move(page.ckpt_hash);
      return Status::Ok();
    }
  }
  entries_fetched_ += page.rows.size();
  log->cached.insert(log->cached.end(),
                     std::make_move_iterator(page.rows.begin()),
                     std::make_move_iterator(page.rows.end()));
  log->cursor = page.next;
  log->ckpt_count = page.ckpt_count;
  log->ckpt_hash = std::move(page.ckpt_hash);
  return Status::Ok();
}

Result<AuditReport> RemoteAuditor::BuildReport(SimTime t_loss,
                                               SimDuration texp) {
  // Pull each shard's log tail past our cursor; the service verifies its
  // chain before serving (a fault here means a broken chain or an outage).
  // Repeat audits only move the suffix — the sequence cursor makes the
  // nightly audit incremental instead of a full-log replay.
  for (size_t shard = 0; shard < key_rpcs_.size(); ++shard) {
    KP_RETURN_IF_ERROR(PullTail(KeyTier(shard), &shards_[shard]));
  }
  // The metadata tier keeps its own incremental cursor: the tail pull
  // notices a restore-from-older-snapshot (or a failover onto a shorter
  // chain) on this tier too, and preserves regressed namespace rows as
  // evidence; the paths themselves come from audit.annotate below.
  KP_RETURN_IF_ERROR(PullTail(MetaTier(), &meta_));
  std::vector<AuditLogEntry> entries;
  for (const auto& shard : shards_) {
    for (const auto& entry : shard.cached) {
      if (entry.timestamp >= t_loss - texp) {
        entries.push_back(entry);
      }
    }
  }
  if (shards_.size() > 1) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const AuditLogEntry& a, const AuditLogEntry& b) {
                       return a.timestamp < b.timestamp;
                     });
  }

  // Every reported file's paths in one request. The service verifies its
  // whole chain first, so a broken metadata chain fails the report instead
  // of silently dropping post-loss bindings.
  AuditReport report = ClassifyAccesses(t_loss, texp, entries);
  Bytes ids;
  ids.reserve(report.compromised.size() * sizeof(AuditId::v));
  for (const AuditReportEntry& file : report.compromised) {
    ids.insert(ids.end(), file.audit_id.v.begin(), file.audit_id.v.end());
  }
  WireValue::Array params;
  params.push_back(WireValue(std::move(ids)));
  params.push_back(WireValue(t_loss.nanos()));
  auto result = meta_rpc_->Call(
      "audit.annotate", FrameAuthedCall(device_id_, meta_secret_,
                                        "audit.annotate", std::move(params)));
  if (!result.ok()) {
    return result.status();
  }
  KP_ASSIGN_OR_RETURN(Bytes flat, result->AsBytes());
  KP_ASSIGN_OR_RETURN(std::vector<FileAnnotation> annotations,
                      DecodeFlatRows<FileAnnotation>(flat));
  KP_RETURN_IF_ERROR(AttachAnnotations(std::move(annotations), &report));
  return report;
}

}  // namespace keypad
