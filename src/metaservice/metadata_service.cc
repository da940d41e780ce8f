#include "src/metaservice/metadata_service.h"

#include "src/keyservice/auth.h"
#include "src/util/strings.h"
#include "src/wire/binary_codec.h"

namespace keypad {

std::string IbeIdentityFor(const DirId& dir_id, const std::string& name,
                           const AuditId& audit_id) {
  return dir_id.ToHex() + "/" + name + "|" + audit_id.ToHex();
}

WireValue MetaReplDelta::ToWire() const {
  WireValue::Struct s;
  WireValue::Array raw_records;
  for (const auto& record : records) {
    raw_records.push_back(record.ToWire());
  }
  s.emplace("records", WireValue(std::move(raw_records)));
  WireValue::Array raw_roots;
  for (const auto& change : root_changes) {
    WireValue::Struct r;
    r.emplace("device", WireValue(change.device_id));
    r.emplace("root", WireValue(change.root_id.ToBytes()));
    raw_roots.push_back(WireValue(std::move(r)));
  }
  s.emplace("roots", WireValue(std::move(raw_roots)));
  WireValue::Array raw_devices;
  for (const auto& change : device_changes) {
    WireValue::Struct d;
    d.emplace("device", WireValue(change.device_id));
    d.emplace("disabled", WireValue(change.disabled));
    raw_devices.push_back(WireValue(std::move(d)));
  }
  s.emplace("devices", WireValue(std::move(raw_devices)));
  return WireValue(std::move(s));
}

Result<MetaReplDelta> MetaReplDelta::FromWire(const WireValue& value) {
  MetaReplDelta delta;
  KP_ASSIGN_OR_RETURN(WireValue records_v, value.Field("records"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_records, records_v.AsArray());
  for (const auto& raw : raw_records) {
    KP_ASSIGN_OR_RETURN(MetadataRecord record, MetadataRecord::FromWire(raw));
    delta.records.push_back(std::move(record));
  }
  KP_ASSIGN_OR_RETURN(WireValue roots_v, value.Field("roots"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_roots, roots_v.AsArray());
  for (const auto& raw : raw_roots) {
    RootChange change;
    KP_ASSIGN_OR_RETURN(WireValue device_v, raw.Field("device"));
    KP_ASSIGN_OR_RETURN(change.device_id, device_v.AsString());
    KP_ASSIGN_OR_RETURN(WireValue root_v, raw.Field("root"));
    KP_ASSIGN_OR_RETURN(Bytes root_bytes, root_v.AsBytes());
    KP_ASSIGN_OR_RETURN(change.root_id, DirId::FromBytes(root_bytes));
    delta.root_changes.push_back(std::move(change));
  }
  KP_ASSIGN_OR_RETURN(WireValue devices_v, value.Field("devices"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_devices, devices_v.AsArray());
  for (const auto& raw : raw_devices) {
    DeviceChange change;
    KP_ASSIGN_OR_RETURN(WireValue device_v, raw.Field("device"));
    KP_ASSIGN_OR_RETURN(change.device_id, device_v.AsString());
    KP_ASSIGN_OR_RETURN(WireValue disabled_v, raw.Field("disabled"));
    KP_ASSIGN_OR_RETURN(change.disabled, disabled_v.AsBool());
    delta.device_changes.push_back(std::move(change));
  }
  return delta;
}

MetadataService::MetadataService(EventQueue* queue, uint64_t rng_seed,
                                 const PairingParams& group)
    : queue_(queue), rng_(rng_seed), pkg_(group, rng_) {
  ConfigureLog(ApplySegmentedLogEnv({}));
}

void MetadataService::ConfigureLog(SegmentedLogOptions options) {
  log_.Configure(options);
  if (options.cold_ship && segment_store_ == nullptr) {
    cold_cloud_ = std::make_unique<SimObjectStore>(queue_);
    segment_store_ = std::make_unique<SegmentStore>(
        MakeStorageBackend(DefaultStorageBackendKind()), cold_cloud_.get());
  }
  if (segment_store_ != nullptr) {
    log_.set_segment_store(segment_store_.get(), "meta");
  }
}

Bytes MetadataService::RegisterDevice(const std::string& device_id) {
  DeviceRecord record;
  record.secret = rng_.NextBytes(32);
  devices_[device_id] = record;
  return record.secret;
}

void MetadataService::RegisterDeviceWithSecret(const std::string& device_id,
                                               const Bytes& secret) {
  DeviceRecord record;
  record.secret = secret;
  devices_[device_id] = record;
}

Result<Bytes> MetadataService::DeviceSecret(
    const std::string& device_id) const {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return NotFoundError("metadata service: unknown device " + device_id);
  }
  return it->second.secret;
}

Status MetadataService::DisableDevice(const std::string& device_id) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return NotFoundError("metadata service: unknown device " + device_id);
  }
  it->second.disabled = true;
  NoteDeviceChange(device_id, true);
  return Status::Ok();
}

Status MetadataService::EnableDevice(const std::string& device_id) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return NotFoundError("metadata service: unknown device " + device_id);
  }
  it->second.disabled = false;
  NoteDeviceChange(device_id, false);
  return Status::Ok();
}

bool MetadataService::IsDeviceDisabled(const std::string& device_id) const {
  auto it = devices_.find(device_id);
  return it != devices_.end() && it->second.disabled;
}

Status MetadataService::CheckDevice(const std::string& device_id) const {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return PermissionDeniedError("metadata service: unregistered device");
  }
  if (it->second.disabled) {
    return PermissionDeniedError("metadata service: device disabled");
  }
  return Status::Ok();
}

Status MetadataService::UploadJournal(
    const std::string& device_id, const std::vector<JournalRecord>& records) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id));
  for (const auto& journal : records) {
    MetadataRecord record;
    record.device_id = device_id;
    record.op = journal.op;
    record.audit_id = journal.audit_id;
    record.dir_id = journal.dir_id;
    record.parent_dir_id = journal.parent_dir_id;
    record.name = journal.name;
    record.client_time = journal.client_time;
    log_.Append(queue_->Now(), std::move(record));
  }
  return Status::Ok();
}

Status MetadataService::RegisterRoot(const std::string& device_id,
                                     const DirId& root_id) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id));
  roots_[device_id] = root_id;
  NoteRootChange(device_id, root_id);
  MetadataRecord record;
  record.device_id = device_id;
  record.op = MetadataOp::kMkdir;
  record.dir_id = root_id;
  record.parent_dir_id = root_id;  // Root is its own parent.
  record.name = "";
  log_.Append(queue_->Now(), std::move(record));
  return Status::Ok();
}

Result<Bytes> MetadataService::RegisterFileBinding(
    const std::string& device_id, const AuditId& audit_id,
    const DirId& dir_id, const std::string& name, bool is_rename) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id));
  MetadataOp op = is_rename ? MetadataOp::kRenameFile : MetadataOp::kCreateFile;
  // At-most-once across failover: the RPC layer's reply cache dedups
  // retries hitting the *same* server, but a retry that lands on a freshly
  // promoted leader arrives with no cache entry. The binding content makes
  // the duplicate detectable — if the latest binding for this file is
  // already exactly (op, dir, name), the first attempt's record reached the
  // log before the old leader died, so re-extract the (deterministic) IBE
  // key without appending a second record.
  auto latest = log_.LatestBinding(device_id, audit_id, queue_->Now());
  if (!latest.has_value() || latest->op != op || latest->dir_id != dir_id ||
      latest->name != name) {
    // Durably log *before* releasing the IBE unlock key: the key is the
    // proof-of-registration the client (or a thief) needs.
    MetadataRecord record;
    record.device_id = device_id;
    record.op = op;
    record.audit_id = audit_id;
    record.dir_id = dir_id;
    record.name = name;
    log_.Append(queue_->Now(), std::move(record));
  }

  IbePrivateKey key = pkg_.Extract(IbeIdentityFor(dir_id, name, audit_id));
  return key.Serialize(*ibe_params().group);
}

Status MetadataService::RegisterMkdir(const std::string& device_id,
                                      const DirId& dir_id,
                                      const DirId& parent_id,
                                      const std::string& name) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id));
  MetadataRecord record;
  record.device_id = device_id;
  record.op = MetadataOp::kMkdir;
  record.dir_id = dir_id;
  record.parent_dir_id = parent_id;
  record.name = name;
  log_.Append(queue_->Now(), std::move(record));
  return Status::Ok();
}

Status MetadataService::RegisterDirRename(const std::string& device_id,
                                          const DirId& dir_id,
                                          const DirId& new_parent_id,
                                          const std::string& new_name) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id));
  MetadataRecord record;
  record.device_id = device_id;
  record.op = MetadataOp::kRenameDir;
  record.dir_id = dir_id;
  record.parent_dir_id = new_parent_id;
  record.name = new_name;
  log_.Append(queue_->Now(), std::move(record));
  return Status::Ok();
}

Status MetadataService::RegisterAttr(const std::string& device_id,
                                     const AuditId& audit_id,
                                     const std::string& attr) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id));
  MetadataRecord record;
  record.device_id = device_id;
  record.op = MetadataOp::kSetAttr;
  record.audit_id = audit_id;
  record.attr = attr;
  log_.Append(queue_->Now(), std::move(record));
  return Status::Ok();
}

Result<std::string> MetadataService::ResolvePath(const std::string& device_id,
                                                 const AuditId& audit_id,
                                                 SimTime as_of) const {
  auto binding = log_.LatestBinding(device_id, audit_id, as_of);
  if (!binding.has_value()) {
    return NotFoundError("metadata service: no binding for audit id");
  }
  auto root_it = roots_.find(device_id);
  if (root_it == roots_.end()) {
    return FailedPreconditionError("metadata service: no root registered");
  }

  std::vector<std::string> components;
  components.push_back(binding->name);
  DirId dir = binding->dir_id;
  // Walk up the directory records; bail out defensively on cycles.
  for (int depth = 0; depth < 256; ++depth) {
    if (dir == root_it->second) {
      std::string path = "/";
      for (size_t i = components.size(); i > 0; --i) {
        path += components[i - 1];
        if (i > 1) {
          path += "/";
        }
      }
      return path;
    }
    auto dir_binding = log_.LatestDirBinding(device_id, dir, as_of);
    if (!dir_binding.has_value()) {
      return DataLossError("metadata service: dangling directory id");
    }
    components.push_back(dir_binding->name);
    dir = dir_binding->parent_dir_id;
  }
  return DataLossError("metadata service: directory cycle");
}

void FileAnnotation::AppendFlat(Bytes* out) const {
  AppendBlob(*out, path_at_loss);
  AppendU32Be(*out, static_cast<uint32_t>(post_loss_paths.size()));
  for (const std::string& path : post_loss_paths) {
    AppendBlob(*out, path);
  }
}

bool FileAnnotation::ReadFlat(ByteReader& in, FileAnnotation* file) {
  uint32_t count = 0;
  if (!in.Str(&file->path_at_loss) || !in.U32(&count)) {
    return false;
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (!in.Str(&file->post_loss_paths.emplace_back())) {
      return false;
    }
  }
  return true;
}

std::vector<FileAnnotation> MetadataService::Annotate(
    const std::string& device_id, const std::vector<AuditId>& ids,
    SimTime t_loss) const {
  std::vector<FileAnnotation> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    FileAnnotation& file = out[i];
    // Trusted path: metadata as the user last registered it, at Tloss.
    auto path = ResolvePath(device_id, ids[i], t_loss);
    if (path.ok()) {
      file.path_at_loss = std::move(*path);
    }
    // Post-loss registrations (thief unlock registrations / bogus binds).
    for (const auto& record : log_.HistoryOf(device_id, ids[i])) {
      if (record.client_time < t_loss || record.op == MetadataOp::kSetAttr) {
        continue;
      }
      auto post_path = ResolvePath(device_id, ids[i], record.client_time);
      // A bogus binding may name a directory that never existed; surface
      // the raw leaf name rather than dropping the evidence.
      std::string shown = post_path.ok()
                              ? std::move(*post_path)
                              : "<unresolvable dir " +
                                    record.dir_id.ToHex().substr(0, 8) +
                                    ">/" + record.name;
      if (file.post_loss_paths.empty() ||
          file.post_loss_paths.back() != shown) {
        file.post_loss_paths.push_back(std::move(shown));
      }
    }
  }
  return out;
}

void MetadataService::NoteRootChange(const std::string& device_id,
                                     const DirId& root_id) {
  if (!replicator_) {
    return;
  }
  pending_root_changes_.push_back({device_id, root_id});
}

void MetadataService::NoteDeviceChange(const std::string& device_id,
                                       bool disabled) {
  if (!replicator_) {
    return;
  }
  pending_device_changes_.push_back({device_id, disabled});
}

MetaReplDelta MetadataService::TakeUnshippedDelta() {
  MetaReplDelta delta;
  delta.records = log_.EntriesAfterSeq(shipped_seq_);
  shipped_seq_ = log_.size();
  delta.root_changes = std::move(pending_root_changes_);
  pending_root_changes_.clear();
  delta.device_changes = std::move(pending_device_changes_);
  pending_device_changes_.clear();
  return delta;
}

void MetadataService::ReplicateNow(std::function<void()> done) {
  if (!replicator_) {
    if (done) {
      done();
    }
    return;
  }
  MetaReplDelta delta = TakeUnshippedDelta();
  if (delta.empty()) {
    if (done) {
      done();
    }
    return;
  }
  if (!done) {
    done = [] {};
  }
  replicator_(std::move(delta), std::move(done));
}

Status MetadataService::ApplyReplicated(const MetaReplDelta& delta) {
  // Chain continuity first: a diverged backup must reject the whole delta
  // untouched so the leader can mark it out-of-sync and reconciliation can
  // sort out the fork later.
  KP_RETURN_IF_ERROR(log_.AppendReplicated(delta.records));
  for (const auto& change : delta.root_changes) {
    roots_[change.device_id] = change.root_id;
  }
  for (const auto& change : delta.device_changes) {
    auto it = devices_.find(change.device_id);
    if (it != devices_.end()) {
      it->second.disabled = change.disabled;
    }
  }
  // Everything applied is, by definition, shipped state: if this backup is
  // later promoted it must not re-stream records the old leader already
  // distributed.
  shipped_seq_ = log_.size();
  return Status::Ok();
}

void MetadataService::OpenReleaseWindow() {
  if (window_open_) {
    return;
  }
  window_open_ = true;
  // Zero-duration: the flush runs after every same-instant RPC has been
  // handled, so mutations arriving together ship to the backups as one
  // delta. Unlike the key tier there is no group seal to amortize — the
  // records are already hashed and durable — only the responses wait.
  flush_event_ = queue_->ScheduleAfter(SimDuration(),
                                       [this] { FlushReleaseWindow(); });
}

void MetadataService::FlushReleaseWindow() {
  if (!window_open_) {
    return;
  }
  window_open_ = false;
  if (flush_event_ != EventQueue::kInvalidEvent) {
    queue_->Cancel(flush_event_);
    flush_event_ = EventQueue::kInvalidEvent;
  }
  // The records are durable locally, but the responses carry IBE unlock
  // keys: they may not leave until every in-sync backup holds the records
  // too, or a leader crash after release could lose the only copy of a
  // binding whose key is already in a thief's hands (DESIGN.md §10).
  auto responses = std::make_shared<std::vector<PendingResponse>>(
      std::move(pending_responses_));
  pending_responses_.clear();
  auto release = [responses] {
    for (auto& pending : *responses) {
      pending.respond(std::move(pending.result));
    }
  };
  if (replicator_) {
    MetaReplDelta delta = TakeUnshippedDelta();
    if (delta.empty()) {
      release();
    } else {
      replicator_(std::move(delta), std::move(release));
    }
  } else {
    release();
  }
}

void MetadataService::AbortPending() {
  if (flush_event_ != EventQueue::kInvalidEvent) {
    queue_->Cancel(flush_event_);
    flush_event_ = EventQueue::kInvalidEvent;
  }
  window_open_ = false;
  // Responses never sent: the clients' timeouts and retries take over,
  // exactly as with any crashed server. The appended records stay — they
  // are durable — and surface as duplicates (never losses) if the retry
  // re-registers on the next leader before this replica rejoins.
  pending_responses_.clear();
}

Bytes MetadataService::Snapshot() const {
  WireValue::Struct snapshot;

  WireValue::Array devices;
  for (const auto& [id, record] : devices_) {
    WireValue::Struct d;
    d.emplace("id", WireValue(id));
    d.emplace("secret", WireValue(record.secret));
    d.emplace("disabled", WireValue(record.disabled));
    devices.push_back(WireValue(std::move(d)));
  }
  snapshot.emplace("devices", WireValue(std::move(devices)));

  WireValue::Array roots;
  for (const auto& [device, root_id] : roots_) {
    WireValue::Struct r;
    r.emplace("device", WireValue(device));
    r.emplace("root", WireValue(root_id.ToBytes()));
    roots.push_back(WireValue(std::move(r)));
  }
  snapshot.emplace("roots", WireValue(std::move(roots)));

  WireValue::Array log_records;
  for (const auto& record : log_.records()) {
    log_records.push_back(record.ToWire());
  }
  snapshot.emplace("log", WireValue(std::move(log_records)));

  // Lifecycle state (DESIGN.md §15): truncation base, the signed checkpoint
  // chain, and the pre-base binding records — namespace state the truncated
  // chain prefix carried. Pre-lifecycle snapshots simply lack these fields.
  snapshot.emplace("log_base",
                   WireValue(static_cast<int64_t>(log_.base_seq())));
  snapshot.emplace("log_base_seal", WireValue(log_.base_seal()));
  WireValue::Array ckpts;
  for (const auto& ckpt : log_.checkpoints()) {
    ckpts.push_back(ckpt.ToWire());
  }
  snapshot.emplace("ckpts", WireValue(std::move(ckpts)));
  WireValue::Array cold_bindings;
  if (log_.base_seq() > 0) {
    for (const auto& record : log_.AllKnownRecords()) {
      if (record.seq < log_.base_seq()) {
        cold_bindings.push_back(record.ToWire());
      }
    }
  }
  snapshot.emplace("cold_bindings", WireValue(std::move(cold_bindings)));
  return BinaryEncode(WireValue(std::move(snapshot)));
}

Status MetadataService::Restore(const Bytes& snapshot) {
  KP_ASSIGN_OR_RETURN(WireValue value, BinaryDecode(snapshot));

  // Rebuild the log first and verify its chain (checkpoint signatures
  // included) before touching anything.
  KP_ASSIGN_OR_RETURN(WireValue log_value, value.Field("log"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_log, log_value.AsArray());
  std::vector<MetadataRecord> log_records;
  for (const auto& raw : raw_log) {
    KP_ASSIGN_OR_RETURN(MetadataRecord record, MetadataRecord::FromWire(raw));
    log_records.push_back(std::move(record));
  }
  MetadataLog restored_log;
  restored_log.Configure(log_.log_options());
  if (segment_store_) {
    restored_log.set_segment_store(segment_store_.get(), "meta");
  }
  restored_log.set_truncate_anchor(log_.truncate_anchor());
  Status log_status;
  if (value.HasField("log_base")) {
    KP_ASSIGN_OR_RETURN(WireValue base_v, value.Field("log_base"));
    KP_ASSIGN_OR_RETURN(int64_t base_int, base_v.AsInt());
    KP_ASSIGN_OR_RETURN(WireValue seal_v, value.Field("log_base_seal"));
    KP_ASSIGN_OR_RETURN(Bytes base_seal, seal_v.AsBytes());
    KP_ASSIGN_OR_RETURN(WireValue ckpts_v, value.Field("ckpts"));
    KP_ASSIGN_OR_RETURN(WireValue::Array raw_ckpts, ckpts_v.AsArray());
    std::vector<LogCheckpoint> ckpts;
    for (const auto& raw : raw_ckpts) {
      KP_ASSIGN_OR_RETURN(LogCheckpoint ckpt, LogCheckpoint::FromWire(raw));
      ckpts.push_back(std::move(ckpt));
    }
    std::vector<MetadataRecord> cold;
    KP_ASSIGN_OR_RETURN(WireValue cold_v, value.Field("cold_bindings"));
    KP_ASSIGN_OR_RETURN(WireValue::Array raw_cold, cold_v.AsArray());
    for (const auto& raw : raw_cold) {
      KP_ASSIGN_OR_RETURN(MetadataRecord record,
                          MetadataRecord::FromWire(raw));
      cold.push_back(std::move(record));
    }
    log_status = restored_log.RestoreWithColdIndex(
        std::move(cold), static_cast<uint64_t>(base_int),
        std::move(base_seal), std::move(ckpts), std::move(log_records));
  } else {
    log_status = restored_log.LoadVerified(std::move(log_records));
  }
  if (!log_status.ok()) {
    return DataLossError("metadata service: snapshot log chain mismatch");
  }

  std::map<std::string, DeviceRecord> devices;
  KP_ASSIGN_OR_RETURN(WireValue devices_value, value.Field("devices"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_devices, devices_value.AsArray());
  for (const auto& raw : raw_devices) {
    KP_ASSIGN_OR_RETURN(WireValue id_v, raw.Field("id"));
    KP_ASSIGN_OR_RETURN(std::string id, id_v.AsString());
    DeviceRecord record;
    KP_ASSIGN_OR_RETURN(WireValue secret_v, raw.Field("secret"));
    KP_ASSIGN_OR_RETURN(record.secret, secret_v.AsBytes());
    KP_ASSIGN_OR_RETURN(WireValue disabled_v, raw.Field("disabled"));
    KP_ASSIGN_OR_RETURN(record.disabled, disabled_v.AsBool());
    devices.emplace(std::move(id), std::move(record));
  }

  std::map<std::string, DirId> roots;
  KP_ASSIGN_OR_RETURN(WireValue roots_value, value.Field("roots"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_roots, roots_value.AsArray());
  for (const auto& raw : raw_roots) {
    KP_ASSIGN_OR_RETURN(WireValue device_v, raw.Field("device"));
    KP_ASSIGN_OR_RETURN(std::string device, device_v.AsString());
    KP_ASSIGN_OR_RETURN(WireValue root_v, raw.Field("root"));
    KP_ASSIGN_OR_RETURN(Bytes root_bytes, root_v.AsBytes());
    KP_ASSIGN_OR_RETURN(DirId root_id, DirId::FromBytes(root_bytes));
    roots.emplace(std::move(device), root_id);
  }

  AbortPending();
  devices_ = std::move(devices);
  roots_ = std::move(roots);
  log_ = std::move(restored_log);
  // pkg_ is untouched: the IBE master secret lives in the HSM, not in the
  // crashed process image.
  // A restored replica restarts replication from its adopted log: nothing
  // staged survives, and the whole log counts as shipped (the rejoin
  // reconciliation, not the delta stream, squares it with the leader).
  pending_root_changes_.clear();
  pending_device_changes_.clear();
  shipped_seq_ = log_.size();
  ++restore_epoch_;
  return Status::Ok();
}

void MetadataService::BindRpc(RpcServer* server) {
  auto authed = [this](const std::string& method,
                       auto fn) -> RpcServer::Handler {
    return [this, method, fn](const WireValue::Array& params)
               -> Result<WireValue> {
      KP_ASSIGN_OR_RETURN(AuthedCall call, SplitAuthedCall(params));
      auto it = devices_.find(call.device_id);
      if (it == devices_.end()) {
        return PermissionDeniedError("metadata service: unregistered device");
      }
      KP_RETURN_IF_ERROR(VerifyAuthTag(it->second.secret, method, call));
      return fn(call.device_id, call.payload);
    };
  };

  // Registers one method, honoring the replication mode: on a replicated
  // service every handler executes immediately (records append — and hash
  // — at once) but the response is withheld until the un-shipped log
  // suffix lands on every in-sync backup, extending the "durably log
  // before the unlock key leaves" barrier across the replica set
  // (DESIGN.md §10). `gated` methods are leader-only when a serve gate is
  // installed (meta.* — they mutate the namespace or mint IBE keys);
  // audit.* stays readable on any replica.
  auto install = [this, server, authed](const std::string& method, bool gated,
                                        auto fn) {
    RpcServer::Handler body = authed(method, fn);
    if (replicator_) {
      server->RegisterAsyncMethod(
          method, [this, gated, body](const WireValue::Array& params,
                                      RpcServer::Responder respond) {
            if (gated && serve_gate_) {
              Status gate = serve_gate_();
              if (!gate.ok()) {
                // Rejected before any append: nothing to hold — tell the
                // client who leads, right away.
                respond(std::move(gate));
                return;
              }
            }
            OpenReleaseWindow();
            Result<WireValue> result = body(params);
            pending_responses_.push_back(
                {std::move(respond), std::move(result)});
          });
    } else {
      server->RegisterMethod(
          method, [this, gated, body](const WireValue::Array& params)
                      -> Result<WireValue> {
            if (gated && serve_gate_) {
              KP_RETURN_IF_ERROR(serve_gate_());
            }
            return body(params);
          });
    }
  };

  install(
      "meta.register_root", true,
             [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 1) {
                 return InvalidArgumentError("meta.register_root: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes id_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(DirId id, DirId::FromBytes(id_bytes));
               KP_RETURN_IF_ERROR(RegisterRoot(device, id));
               return WireValue(true);
             });

  install(
      "meta.bind_file", true,
             [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 4) {
                 return InvalidArgumentError("meta.bind_file: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes aid_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(AuditId aid, AuditId::FromBytes(aid_bytes));
               KP_ASSIGN_OR_RETURN(Bytes did_bytes, payload[1].AsBytes());
               KP_ASSIGN_OR_RETURN(DirId did, DirId::FromBytes(did_bytes));
               KP_ASSIGN_OR_RETURN(std::string name, payload[2].AsString());
               KP_ASSIGN_OR_RETURN(bool is_rename, payload[3].AsBool());
               KP_ASSIGN_OR_RETURN(
                   Bytes ibe_key,
                   RegisterFileBinding(device, aid, did, name, is_rename));
               return WireValue(std::move(ibe_key));
             });

  install(
      "meta.mkdir", true,
             [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 3) {
                 return InvalidArgumentError("meta.mkdir: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes did_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(DirId did, DirId::FromBytes(did_bytes));
               KP_ASSIGN_OR_RETURN(Bytes pid_bytes, payload[1].AsBytes());
               KP_ASSIGN_OR_RETURN(DirId pid, DirId::FromBytes(pid_bytes));
               KP_ASSIGN_OR_RETURN(std::string name, payload[2].AsString());
               KP_RETURN_IF_ERROR(RegisterMkdir(device, did, pid, name));
               return WireValue(true);
             });

  install(
      "meta.rename_dir", true,
             [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 3) {
                 return InvalidArgumentError("meta.rename_dir: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes did_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(DirId did, DirId::FromBytes(did_bytes));
               KP_ASSIGN_OR_RETURN(Bytes pid_bytes, payload[1].AsBytes());
               KP_ASSIGN_OR_RETURN(DirId pid, DirId::FromBytes(pid_bytes));
               KP_ASSIGN_OR_RETURN(std::string name, payload[2].AsString());
               KP_RETURN_IF_ERROR(RegisterDirRename(device, did, pid, name));
               return WireValue(true);
             });

  install(
      "meta.set_attr", true,
             [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 2) {
                 return InvalidArgumentError("meta.set_attr: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes aid_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(AuditId aid, AuditId::FromBytes(aid_bytes));
               KP_ASSIGN_OR_RETURN(std::string attr, payload[1].AsString());
               KP_RETURN_IF_ERROR(RegisterAttr(device, aid, attr));
               return WireValue(true);
             });

  // The report's path annotations in one request (DESIGN.md §19): the
  // audit ids the console found in the key-tier window plus Tloss in, one
  // flat FileAnnotation row per id out. The whole chain is verified first,
  // once per request — no result is cached across requests.
  install(
      "audit.annotate", false,
      [this](const std::string& device,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (payload.size() != 2) {
          return InvalidArgumentError("audit.annotate: bad arity");
        }
        KP_ASSIGN_OR_RETURN(Bytes raw_ids, payload[0].AsBytes());
        KP_ASSIGN_OR_RETURN(int64_t t_loss_ns, payload[1].AsInt());
        std::vector<AuditId> ids;
        ByteReader in(raw_ids);
        while (!in.at_end()) {
          AuditId& id = ids.emplace_back();
          if (!in.Copy(id.v.data(), id.v.size())) {
            return InvalidArgumentError("audit.annotate: ragged id list");
          }
        }
        KP_RETURN_IF_ERROR(log_.Verify());
        return WireValue(
            EncodeFlatRows(Annotate(device, ids, SimTime(t_loss_ns))));
      });

  install(
      "meta.upload_journal", true,
             [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 1) {
                 return InvalidArgumentError(
                     "meta.upload_journal: bad arity");
               }
               KP_ASSIGN_OR_RETURN(WireValue::Array raw, payload[0].AsArray());
               std::vector<JournalRecord> records;
               for (const auto& r : raw) {
                 JournalRecord record;
                 KP_ASSIGN_OR_RETURN(WireValue op_v, r.Field("op"));
                 KP_ASSIGN_OR_RETURN(int64_t op_int, op_v.AsInt());
                 record.op = static_cast<MetadataOp>(op_int);
                 KP_ASSIGN_OR_RETURN(WireValue aid_v, r.Field("aid"));
                 KP_ASSIGN_OR_RETURN(Bytes aid_bytes, aid_v.AsBytes());
                 KP_ASSIGN_OR_RETURN(record.audit_id,
                                     AuditId::FromBytes(aid_bytes));
                 KP_ASSIGN_OR_RETURN(WireValue did_v, r.Field("did"));
                 KP_ASSIGN_OR_RETURN(Bytes did_bytes, did_v.AsBytes());
                 KP_ASSIGN_OR_RETURN(record.dir_id,
                                     DirId::FromBytes(did_bytes));
                 KP_ASSIGN_OR_RETURN(WireValue pid_v, r.Field("pid"));
                 KP_ASSIGN_OR_RETURN(Bytes pid_bytes, pid_v.AsBytes());
                 KP_ASSIGN_OR_RETURN(record.parent_dir_id,
                                     DirId::FromBytes(pid_bytes));
                 KP_ASSIGN_OR_RETURN(WireValue name_v, r.Field("name"));
                 KP_ASSIGN_OR_RETURN(record.name, name_v.AsString());
                 KP_ASSIGN_OR_RETURN(WireValue ts_v, r.Field("ts"));
                 KP_ASSIGN_OR_RETURN(int64_t ts_int, ts_v.AsInt());
                 record.client_time = SimTime(ts_int);
                 records.push_back(std::move(record));
               }
               KP_RETURN_IF_ERROR(UploadJournal(device, records));
               return WireValue(true);
             });

  install(
      "audit.meta_log_tail", false,
      [this](const std::string& device,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (payload.size() != 1) {
          return InvalidArgumentError("audit.meta_log_tail: bad arity");
        }
        KP_ASSIGN_OR_RETURN(int64_t next_seq, payload[0].AsInt());
        // Checkpoints vouch for the sealed prefix; only the tail after the
        // latest checkpoint is replayed per request. Cursors below the
        // truncation base are served from the cold tier, each segment
        // re-verified against its signed checkpoint first.
        KP_RETURN_IF_ERROR(log_.VerifyTail());
        uint64_t from = static_cast<uint64_t>(next_seq);
        std::vector<MetadataRecord> records;
        if (from < log_.base_seq()) {
          KP_ASSIGN_OR_RETURN(records, log_.AllEntriesFromSeq(from));
        } else {
          records = log_.EntriesAfterSeq(from);
        }
        std::erase_if(records, [&](const MetadataRecord& record) {
          return record.device_id != device;
        });
        // "next" covers the whole log, not just this device's rows, so the
        // cursor advances past other devices' records too. The rows travel
        // as one flat blob (DESIGN.md §19).
        WireValue::Struct out;
        out.emplace("next", WireValue(static_cast<int64_t>(log_.size())));
        out.emplace("entries", WireValue(EncodeFlatRows(records)));
        // Restore epoch: lets a remote cursor distinguish "service restored
        // from an older snapshot" (epoch bump, possibly next < cursor) from
        // a plain short read, and trigger an overlap-verified resync.
        out.emplace("epoch",
                    WireValue(static_cast<int64_t>(restore_epoch_)));
        // Checkpoint fingerprint: count plus latest hash, so an auditor can
        // tell a server-side truncation (benign cursor clamp) from a
        // restore-from-older-snapshot (full resync) by comparing chains.
        const auto& ckpts = log_.checkpoints();
        out.emplace("ckpt_count",
                    WireValue(static_cast<int64_t>(ckpts.size())));
        out.emplace("ckpt_hash",
                    WireValue(ckpts.empty() ? Bytes() : ckpts.back().hash));
        out.emplace("base",
                    WireValue(static_cast<int64_t>(log_.base_seq())));
        return WireValue(std::move(out));
      });

  // The signed checkpoint chain; the auditor verifies it client-side and
  // uses it to anchor catch-up and disambiguate truncation from restore.
  install(
      "audit.meta_checkpoints", false,
      [this](const std::string&,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (!payload.empty()) {
          return InvalidArgumentError("audit.meta_checkpoints: bad arity");
        }
        WireValue::Array out;
        for (const auto& ckpt : log_.checkpoints()) {
          out.push_back(ckpt.ToWire());
        }
        return WireValue(std::move(out));
      });

  // One sealed cold segment by checkpoint id, for forensic replay of a
  // truncated prefix. Local medium only (no cloud blocking inside an RPC).
  install(
      "audit.meta_log_segment", false,
      [this](const std::string&,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (payload.size() != 1) {
          return InvalidArgumentError("audit.meta_log_segment: bad arity");
        }
        KP_ASSIGN_OR_RETURN(int64_t index, payload[0].AsInt());
        if (segment_store_ == nullptr) {
          return UnavailableError("metadata service: no cold segment tier");
        }
        KP_ASSIGN_OR_RETURN(
            SealedSegment segment,
            segment_store_->Get("meta", static_cast<uint64_t>(index)));
        return segment.ToWire();
      });
}

}  // namespace keypad
