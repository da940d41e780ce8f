#include "src/keyservice/key_service.h"

#include <cctype>
#include <cstdlib>

#include "src/keyservice/auth.h"
#include "src/wire/binary_codec.h"

namespace keypad {

namespace {

// KEYPAD_HOTKEY_CACHE overrides the configured default: 0/off/false/no
// disables the server-side hot-key cache, 1/on/true/yes enables it — the
// ablation knob for the read-path benches (mirrors KEYPAD_BATCH_FETCH).
bool HotKeyCacheEnabled(bool configured) {
  const char* env = std::getenv("KEYPAD_HOTKEY_CACHE");
  if (env == nullptr || env[0] == '\0') {
    return configured;
  }
  std::string value(env);
  for (char& c : value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (value == "0" || value == "off" || value == "false" || value == "no") {
    return false;
  }
  if (value == "1" || value == "on" || value == "true" || value == "yes") {
    return true;
  }
  return configured;
}

}  // namespace

WireValue KeyReplDelta::ToWire() const {
  WireValue::Struct s;
  WireValue::Array raw_entries;
  for (const auto& entry : entries) {
    raw_entries.push_back(entry.ToWire());
  }
  s.emplace("entries", WireValue(std::move(raw_entries)));
  WireValue::Array raw_keys;
  for (const auto& change : key_changes) {
    WireValue::Struct k;
    k.emplace("device", WireValue(change.device_id));
    k.emplace("id", WireValue(change.audit_id.ToBytes()));
    k.emplace("key", WireValue(change.key));
    k.emplace("disabled", WireValue(change.disabled));
    k.emplace("erased", WireValue(change.erased));
    raw_keys.push_back(WireValue(std::move(k)));
  }
  s.emplace("keys", WireValue(std::move(raw_keys)));
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

Result<KeyReplDelta> KeyReplDelta::FromWire(const WireValue& value) {
  KeyReplDelta delta;
  KP_ASSIGN_OR_RETURN(WireValue entries_v, value.Field("entries"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_entries, entries_v.AsArray());
  for (const auto& raw : raw_entries) {
    KP_ASSIGN_OR_RETURN(AuditLogEntry entry, AuditLogEntry::FromWire(raw));
    delta.entries.push_back(std::move(entry));
  }
  KP_ASSIGN_OR_RETURN(WireValue keys_v, value.Field("keys"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_keys, keys_v.AsArray());
  for (const auto& raw : raw_keys) {
    KeyChange change;
    KP_ASSIGN_OR_RETURN(WireValue device_v, raw.Field("device"));
    KP_ASSIGN_OR_RETURN(change.device_id, device_v.AsString());
    KP_ASSIGN_OR_RETURN(WireValue id_v, raw.Field("id"));
    KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_v.AsBytes());
    KP_ASSIGN_OR_RETURN(change.audit_id, AuditId::FromBytes(id_bytes));
    KP_ASSIGN_OR_RETURN(WireValue key_v, raw.Field("key"));
    KP_ASSIGN_OR_RETURN(change.key, key_v.AsBytes());
    KP_ASSIGN_OR_RETURN(WireValue disabled_v, raw.Field("disabled"));
    KP_ASSIGN_OR_RETURN(change.disabled, disabled_v.AsBool());
    KP_ASSIGN_OR_RETURN(WireValue erased_v, raw.Field("erased"));
    KP_ASSIGN_OR_RETURN(change.erased, erased_v.AsBool());
    delta.key_changes.push_back(std::move(change));
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

KeyService::KeyService(EventQueue* queue, uint64_t rng_seed,
                       KeyServiceOptions options)
    : queue_(queue),
      rng_(rng_seed),
      options_(options),
      hot_keys_(HotKeyCacheEnabled(options.hot_key_cache)
                    ? options.hot_key_capacity
                    : 0) {
  options_.log = ApplySegmentedLogEnv(options_.log);
  log_.Configure(options_.log);
  if (options_.log.cold_ship) {
    cold_cloud_ = std::make_unique<SimObjectStore>(queue_);
    segment_store_ = std::make_unique<SegmentStore>(
        MakeStorageBackend(DefaultStorageBackendKind()), cold_cloud_.get());
    log_.set_segment_store(segment_store_.get(), "key");
  }
}

std::vector<AuditLogEntry> KeyService::LogSince(SimTime since) const {
  Result<std::vector<AuditLogEntry>> all =
      log_.AllEntriesFromSeq(0, /*repair=*/true);
  std::vector<AuditLogEntry> source =
      all.ok() ? std::move(all).value() : log_.entries();
  std::vector<AuditLogEntry> out;
  for (const auto& entry : source) {
    if (entry.timestamp >= since) {
      out.push_back(entry);
    }
  }
  return out;
}

void KeyService::ChargeUnwrap(const KeyMapKey& map_key) {
  if (hot_keys_.Touch(map_key)) {
    ++hot_hits_;
    return;
  }
  ++hot_misses_;
  if (seal_charge_ && options_.unwrap_cost > SimDuration()) {
    seal_charge_(options_.unwrap_cost);
  }
  hot_keys_.Insert(map_key);
}

void KeyService::InvalidateHotKey(const KeyMapKey& map_key) {
  if (hot_keys_.Erase(map_key)) {
    ++hot_invalidations_;
  }
}

void KeyService::InvalidateHotDevice(const std::string& device_id) {
  hot_invalidations_ += hot_keys_.EraseDevice(device_id);
}

Bytes KeyService::RegisterDevice(const std::string& device_id) {
  DeviceRecord record;
  record.secret = rng_.NextBytes(32);
  devices_[device_id] = record;
  return record.secret;
}

void KeyService::RegisterDeviceWithSecret(const std::string& device_id,
                                          const Bytes& secret) {
  DeviceRecord record;
  record.secret = secret;
  devices_[device_id] = record;
}

uint64_t KeyService::LogAppend(SimTime timestamp, SimTime client_time,
                               const std::string& device_id,
                               const AuditId& audit_id, AccessOp op) {
  BatchScope scope(this);
  return log_.Append(timestamp, client_time, device_id, audit_id, op);
}

void KeyService::NoteSealed(size_t sealed) {
  if (sealed == 0 || !seal_charge_) {
    return;
  }
  SimDuration cost = options_.seal_cost_fixed +
                     options_.seal_cost_per_entry *
                         static_cast<int64_t>(sealed);
  if (cost > SimDuration()) {
    seal_charge_(cost);
  }
}

void KeyService::OpenCommitWindow() {
  if (window_open_) {
    return;
  }
  window_open_ = true;
  log_.BeginBatch();
  flush_event_ = queue_->ScheduleAfter(options_.commit_window,
                                       [this] { FlushCommitWindow(); });
}

void KeyService::FlushCommitWindow() {
  if (!window_open_) {
    return;
  }
  window_open_ = false;
  if (flush_event_ != EventQueue::kInvalidEvent) {
    queue_->Cancel(flush_event_);
    flush_event_ = EventQueue::kInvalidEvent;
  }
  NoteSealed(log_.CommitBatch());
  ++window_flushes_;
  // Only now that the group seal is durable may the responses (and the
  // keys inside them) leave the service (§3.1). With a replica set the
  // barrier extends further: the sealed group must land on every in-sync
  // backup before release, so a client-acknowledged record can never be
  // lost to a single-replica crash (DESIGN.md §9).
  auto responses = std::make_shared<std::vector<PendingResponse>>(
      std::move(pending_responses_));
  pending_responses_.clear();
  auto release = [responses] {
    for (auto& pending : *responses) {
      pending.respond(std::move(pending.result));
    }
  };
  if (replicator_) {
    KeyReplDelta delta = TakeUnshippedDelta();
    if (delta.empty()) {
      release();
    } else {
      replicator_(std::move(delta), std::move(release));
    }
  } else {
    release();
  }
}

void KeyService::NoteKeyChange(const std::string& device_id,
                               const AuditId& audit_id, const Bytes& key,
                               bool disabled, bool erased) {
  if (!replicator_) {
    return;
  }
  pending_key_changes_.push_back({device_id, audit_id, key, disabled, erased});
}

void KeyService::NoteDeviceChange(const std::string& device_id,
                                  bool disabled) {
  if (!replicator_) {
    return;
  }
  pending_device_changes_.push_back({device_id, disabled});
}

KeyReplDelta KeyService::TakeUnshippedDelta() {
  KeyReplDelta delta;
  delta.entries = log_.EntriesAfterSeq(shipped_seq_);
  shipped_seq_ = log_.size();
  delta.key_changes = std::move(pending_key_changes_);
  pending_key_changes_.clear();
  delta.device_changes = std::move(pending_device_changes_);
  pending_device_changes_.clear();
  return delta;
}

void KeyService::ReplicateNow(std::function<void()> done) {
  if (!replicator_) {
    if (done) {
      done();
    }
    return;
  }
  KeyReplDelta delta = TakeUnshippedDelta();
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

Status KeyService::ApplyReplicated(const KeyReplDelta& delta) {
  // Chain continuity first: a diverged backup must reject the whole delta
  // untouched so the leader can mark it out-of-sync and reconciliation can
  // sort out the fork later.
  KP_RETURN_IF_ERROR(log_.AppendReplicated(delta.entries));
  for (const auto& change : delta.key_changes) {
    KeyMapKey map_key(change.device_id, change.audit_id);
    // Any replicated mutation makes a resident unwrapped copy stale.
    InvalidateHotKey(map_key);
    if (change.erased) {
      auto it = keys_.find(map_key);
      if (it != keys_.end()) {
        SecureZero(it->second.key);
        keys_.erase(it);
      }
      continue;
    }
    if (change.disabled) {
      auto it = keys_.find(map_key);
      if (it != keys_.end()) {
        it->second.disabled = true;
      }
      continue;
    }
    KeyRecord record;
    record.key = change.key;
    keys_[map_key] = std::move(record);
  }
  for (const auto& change : delta.device_changes) {
    auto it = devices_.find(change.device_id);
    if (it != devices_.end()) {
      it->second.disabled = change.disabled;
    }
    if (change.disabled) {
      InvalidateHotDevice(change.device_id);
      negative_devices_.insert(change.device_id);
    } else {
      negative_devices_.erase(change.device_id);
    }
  }
  // Everything applied is, by definition, shipped state: if this backup is
  // later promoted it must not re-stream records the old leader already
  // distributed.
  shipped_seq_ = log_.size();
  return Status::Ok();
}

void KeyService::AbortStaged() {
  if (flush_event_ != EventQueue::kInvalidEvent) {
    queue_->Cancel(flush_event_);
    flush_event_ = EventQueue::kInvalidEvent;
  }
  window_open_ = false;
  log_.DiscardStaged();
  // Responses never sent: the clients' timeouts and retries take over,
  // exactly as with any crashed server.
  pending_responses_.clear();
}

KeyService::LoadStats KeyService::load_stats() const {
  LoadStats stats;
  stats.log_entries = log_.size();
  stats.commit_groups = log_.commit_groups();
  stats.max_group_size = log_.max_group_size();
  stats.avg_group_size =
      stats.commit_groups == 0
          ? 0
          : static_cast<double>(stats.log_entries) / stats.commit_groups;
  stats.seal_ns = log_.seal_ns();
  stats.window_flushes = window_flushes_;
  stats.hot_hits = hot_hits_;
  stats.hot_misses = hot_misses_;
  stats.hot_invalidations = hot_invalidations_;
  stats.hot_size = hot_keys_.size();
  stats.negative_hits = negative_hits_;
  if (rpc_server_ != nullptr) {
    stats.shed_demand = rpc_server_->shed_demand();
    stats.shed_prefetch = rpc_server_->shed_prefetch();
    stats.shed_background = rpc_server_->shed_background();
    stats.deadline_expired = rpc_server_->deadline_expired();
    stats.queue_depth_high_water = rpc_server_->queue_depth_high_water();
    stats.overload_events = rpc_server_->overload_events();
  }
  return stats;
}

Status KeyService::DisableDevice(const std::string& device_id) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return NotFoundError("key service: unknown device " + device_id);
  }
  it->second.disabled = true;
  // Fencing: the revoked device must never be served from a resident copy,
  // and subsequent fetch storms should fail fast off the negative cache.
  InvalidateHotDevice(device_id);
  negative_devices_.insert(device_id);
  // One revocation record marks the control action in the audit trail.
  LogAppend(queue_->Now(), device_id, AuditId{}, AccessOp::kRevoke);
  NoteDeviceChange(device_id, true);
  return Status::Ok();
}

Status KeyService::TransferDeviceKeys(const std::string& from_id,
                                      const std::string& to_id) {
  auto from = devices_.find(from_id);
  if (from == devices_.end()) {
    return NotFoundError("key service: unknown device " + from_id);
  }
  if (!from->second.disabled) {
    return FailedPreconditionError(
        "key service: refusing restore from a still-active device " +
        from_id);
  }
  auto to = devices_.find(to_id);
  if (to == devices_.end()) {
    return NotFoundError("key service: unknown device " + to_id);
  }
  if (to->second.disabled) {
    return FailedPreconditionError("key service: replacement device " +
                                   to_id + " is disabled");
  }
  // Copy every (from, audit_id) binding to (to, audit_id); deterministic
  // map order keeps replica audit chains identical when each replica runs
  // this admin action. One kRestore entry per re-bound key.
  BatchScope scope(this);
  for (auto it = keys_.lower_bound(KeyMapKey{from_id, AuditId{}});
       it != keys_.end() && it->first.first == from_id; ++it) {
    if (it->second.disabled) {
      continue;  // Per-key disables carry over by NOT transferring.
    }
    keys_[KeyMapKey{to_id, it->first.second}] = it->second;
    LogAppend(queue_->Now(), to_id, it->first.second, AccessOp::kRestore);
    NoteKeyChange(to_id, it->first.second, it->second.key, false, false);
  }
  return Status::Ok();
}

Status KeyService::EnableDevice(const std::string& device_id) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return NotFoundError("key service: unknown device " + device_id);
  }
  it->second.disabled = false;
  negative_devices_.erase(device_id);
  NoteDeviceChange(device_id, false);
  return Status::Ok();
}

bool KeyService::IsDeviceDisabled(const std::string& device_id) const {
  auto it = devices_.find(device_id);
  return it != devices_.end() && it->second.disabled;
}

Result<Bytes> KeyService::DeviceSecret(const std::string& device_id) const {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return NotFoundError("key service: unknown device " + device_id);
  }
  return it->second.secret;
}

Status KeyService::CheckDevice(const std::string& device_id,
                               const AuditId& audit_id) {
  if (negative_devices_.count(device_id) > 0) {
    // Revocation-storm fast path: no key-store or device-record touch, but
    // the attempt itself is forensically valuable — log it, then refuse.
    ++negative_hits_;
    LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kDenied);
    return PermissionDeniedError("key service: device disabled");
  }
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return PermissionDeniedError("key service: unregistered device");
  }
  if (it->second.disabled) {
    negative_devices_.insert(device_id);
    LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kDenied);
    return PermissionDeniedError("key service: device disabled");
  }
  return Status::Ok();
}

Result<Bytes> KeyService::CreateKey(const std::string& device_id,
                                    const AuditId& audit_id) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id, audit_id));
  KeyMapKey map_key(device_id, audit_id);
  if (keys_.count(map_key) > 0) {
    return AlreadyExistsError("key service: audit id already bound");
  }
  KeyRecord record;
  record.key = rng_.NextBytes(kRemoteKeyLen);
  // Durably log *before* responding (paper §3.1).
  LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kCreate);
  keys_.emplace(map_key, record);
  // The freshly minted key is unwrapped-resident by construction.
  hot_keys_.Insert(map_key);
  NoteKeyChange(device_id, audit_id, record.key, false, false);
  return record.key;
}

Result<Bytes> KeyService::GetKey(const std::string& device_id,
                                 const AuditId& audit_id, AccessOp op) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id, audit_id));
  auto it = keys_.find(KeyMapKey(device_id, audit_id));
  if (it == keys_.end()) {
    return NotFoundError("key service: no such key");
  }
  if (it->second.disabled) {
    LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kDenied);
    return PermissionDeniedError("key service: key disabled");
  }
  LogAppend(queue_->Now(), device_id, audit_id, op);
  ChargeUnwrap(it->first);
  return it->second.key;
}

Result<std::vector<std::pair<AuditId, Bytes>>> KeyService::GetKeys(
    const std::string& device_id, const std::vector<AuditId>& audit_ids,
    AccessOp op) {
  KP_RETURN_IF_ERROR(
      CheckDevice(device_id, audit_ids.empty() ? AuditId{} : audit_ids[0]));
  // One RPC batch = one commit group: K appends, one seal.
  BatchScope scope(this);
  std::vector<std::pair<AuditId, Bytes>> out;
  for (const auto& id : audit_ids) {
    auto it = keys_.find(KeyMapKey(device_id, id));
    if (it == keys_.end() || it->second.disabled) {
      continue;
    }
    LogAppend(queue_->Now(), device_id, id, op);
    ChargeUnwrap(it->first);
    out.emplace_back(id, it->second.key);
  }
  return out;
}

Result<KeyService::MultiGetResult> KeyService::GetKeysTyped(
    const std::string& device_id, const std::vector<MultiGetItem>& items) {
  if (negative_devices_.count(device_id) > 0 ||
      (devices_.count(device_id) > 0 && devices_.at(device_id).disabled)) {
    // Revoked device: the whole batch is denied, but every attempted id
    // still earns its own kDenied row — sealed together as one group, so
    // failing fast stays fully audited.
    if (negative_devices_.count(device_id) > 0) {
      ++negative_hits_;
    } else {
      negative_devices_.insert(device_id);
    }
    BatchScope scope(this);
    for (const auto& item : items) {
      log_.Append(queue_->Now(), device_id, item.audit_id, AccessOp::kDenied);
    }
    return PermissionDeniedError("key service: device disabled");
  }
  if (devices_.count(device_id) == 0) {
    return PermissionDeniedError("key service: unregistered device");
  }
  // One RPC batch = one commit group: N appends, one seal.
  BatchScope scope(this);
  MultiGetResult result;
  for (const auto& item : items) {
    auto it = keys_.find(KeyMapKey(device_id, item.audit_id));
    if (it == keys_.end()) {
      result.misses.push_back(
          {item.audit_id, NotFoundError("key service: no such key")});
      continue;
    }
    if (it->second.disabled) {
      log_.Append(queue_->Now(), device_id, item.audit_id, AccessOp::kDenied);
      result.misses.push_back(
          {item.audit_id,
           PermissionDeniedError("key service: key disabled")});
      continue;
    }
    log_.Append(queue_->Now(), device_id, item.audit_id, item.op);
    ChargeUnwrap(it->first);
    result.keys.emplace_back(item.audit_id, it->second.key);
  }
  return result;
}

Result<KeyService::GroupFetchResult> KeyService::FetchGroup(
    const std::string& device_id, const AuditId& demand_id,
    const std::vector<AuditId>& prefetch_ids) {
  // The demand fetch and its prefetch batch seal as one commit group.
  BatchScope scope(this);
  GroupFetchResult result;
  KP_ASSIGN_OR_RETURN(result.demand_key,
                      GetKey(device_id, demand_id, AccessOp::kDemandFetch));
  for (const auto& id : prefetch_ids) {
    if (id == demand_id) {
      continue;
    }
    auto it = keys_.find(KeyMapKey(device_id, id));
    if (it == keys_.end() || it->second.disabled) {
      continue;
    }
    LogAppend(queue_->Now(), device_id, id, AccessOp::kPrefetch);
    ChargeUnwrap(it->first);
    result.prefetched.emplace_back(id, it->second.key);
  }
  return result;
}

Status KeyService::UploadJournal(const std::string& device_id,
                                 const std::vector<JournalEntry>& entries) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return PermissionDeniedError("key service: unregistered device");
  }
  if (it->second.disabled) {
    return PermissionDeniedError("key service: device disabled");
  }
  // The whole uploaded journal seals as one commit group.
  BatchScope scope(this);
  for (const auto& entry : entries) {
    if (entry.op == AccessOp::kCreate && !entry.key.empty()) {
      KeyMapKey map_key(device_id, entry.audit_id);
      if (keys_.count(map_key) == 0) {
        KeyRecord record;
        record.key = entry.key;
        keys_.emplace(map_key, record);
        NoteKeyChange(device_id, entry.audit_id, entry.key, false, false);
      }
    }
    LogAppend(queue_->Now(), entry.client_time, device_id, entry.audit_id,
                entry.op);
  }
  return Status::Ok();
}

Status KeyService::NoteEviction(const std::string& device_id,
                                const AuditId& audit_id) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id, audit_id));
  LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kEviction);
  return Status::Ok();
}

Status KeyService::DisableKey(const std::string& device_id,
                              const AuditId& audit_id) {
  auto it = keys_.find(KeyMapKey(device_id, audit_id));
  if (it == keys_.end()) {
    return NotFoundError("key service: no such key");
  }
  it->second.disabled = true;
  InvalidateHotKey(KeyMapKey(device_id, audit_id));
  LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kRevoke);
  NoteKeyChange(device_id, audit_id, Bytes(), true, false);
  return Status::Ok();
}

Status KeyService::DestroyKey(const std::string& device_id,
                              const AuditId& audit_id) {
  auto it = keys_.find(KeyMapKey(device_id, audit_id));
  if (it == keys_.end()) {
    return NotFoundError("key service: no such key");
  }
  SecureZero(it->second.key);
  keys_.erase(it);
  InvalidateHotKey(KeyMapKey(device_id, audit_id));
  LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kDestroy);
  // Assured delete must propagate: every replica zeroes its copy.
  NoteKeyChange(device_id, audit_id, Bytes(), false, true);
  return Status::Ok();
}

Bytes KeyService::Snapshot() const {
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

  WireValue::Array keys;
  for (const auto& [map_key, record] : keys_) {
    WireValue::Struct k;
    k.emplace("device", WireValue(map_key.first));
    k.emplace("id", WireValue(map_key.second.ToBytes()));
    k.emplace("key", WireValue(record.key));
    k.emplace("disabled", WireValue(record.disabled));
    keys.push_back(WireValue(std::move(k)));
  }
  snapshot.emplace("keys", WireValue(std::move(keys)));

  WireValue::Array log_entries;
  for (const auto& entry : log_.entries()) {
    log_entries.push_back(entry.ToWire());
  }
  snapshot.emplace("log", WireValue(std::move(log_entries)));

  // Lifecycle state (DESIGN.md §15): the truncation base and the signed
  // checkpoint chain. Pre-lifecycle snapshots simply lack these fields.
  snapshot.emplace("log_base",
                   WireValue(static_cast<int64_t>(log_.base_seq())));
  snapshot.emplace("log_base_seal", WireValue(log_.base_seal()));
  WireValue::Array ckpts;
  for (const auto& ckpt : log_.checkpoints()) {
    ckpts.push_back(ckpt.ToWire());
  }
  snapshot.emplace("ckpts", WireValue(std::move(ckpts)));
  return BinaryEncode(WireValue(std::move(snapshot)));
}

Status KeyService::Restore(const Bytes& snapshot) {
  KP_ASSIGN_OR_RETURN(WireValue value, BinaryDecode(snapshot));

  // Rebuild the log first and verify its full chain (group seals included)
  // before touching anything. LoadVerified preserves the snapshotted
  // commit-group boundaries, so a restored log hashes exactly as the
  // original — re-appending would re-derive single-entry groups and break
  // every multi-entry seal.
  KP_ASSIGN_OR_RETURN(WireValue log_value, value.Field("log"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_log, log_value.AsArray());
  std::vector<AuditLogEntry> log_entries;
  for (const auto& raw : raw_log) {
    KP_ASSIGN_OR_RETURN(AuditLogEntry entry, AuditLogEntry::FromWire(raw));
    log_entries.push_back(std::move(entry));
  }
  AuditLog restored_log;
  restored_log.Configure(options_.log);
  if (segment_store_) {
    restored_log.set_segment_store(segment_store_.get(), "key");
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
    log_status = restored_log.LoadVerifiedWithBase(
        static_cast<uint64_t>(base_int), std::move(base_seal),
        std::move(ckpts), std::move(log_entries));
  } else {
    log_status = restored_log.LoadVerified(std::move(log_entries));
  }
  if (!log_status.ok()) {
    return DataLossError("key service: snapshot log chain mismatch");
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

  std::map<KeyMapKey, KeyRecord> keys;
  KP_ASSIGN_OR_RETURN(WireValue keys_value, value.Field("keys"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_keys, keys_value.AsArray());
  for (const auto& raw : raw_keys) {
    KP_ASSIGN_OR_RETURN(WireValue device_v, raw.Field("device"));
    KP_ASSIGN_OR_RETURN(std::string device, device_v.AsString());
    KP_ASSIGN_OR_RETURN(WireValue id_v, raw.Field("id"));
    KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_v.AsBytes());
    KP_ASSIGN_OR_RETURN(AuditId id, AuditId::FromBytes(id_bytes));
    KeyRecord record;
    KP_ASSIGN_OR_RETURN(WireValue key_v, raw.Field("key"));
    KP_ASSIGN_OR_RETURN(record.key, key_v.AsBytes());
    KP_ASSIGN_OR_RETURN(WireValue disabled_v, raw.Field("disabled"));
    KP_ASSIGN_OR_RETURN(record.disabled, disabled_v.AsBool());
    keys.emplace(KeyMapKey(std::move(device), id), std::move(record));
  }

  // Anything staged or awaiting a window flush belongs to the pre-crash
  // incarnation and is lost with it.
  AbortStaged();
  devices_ = std::move(devices);
  keys_ = std::move(keys);
  log_ = std::move(restored_log);
  // Every resident copy described the pre-restore store; the negative
  // cache rebuilds from the restored device records.
  hot_keys_.Clear();
  negative_devices_.clear();
  for (const auto& [id, record] : devices_) {
    if (record.disabled) {
      negative_devices_.insert(id);
    }
  }
  // The log under any remote cursor may just have been replaced by an
  // older one; the epoch bump is how auditors notice. Pending replication
  // state described the pre-restore log, so it is meaningless now — a
  // rejoining replica reconciles via its replica set instead.
  ++restore_epoch_;
  shipped_seq_ = log_.size();
  pending_key_changes_.clear();
  pending_device_changes_.clear();
  return Status::Ok();
}

void KeyService::BindRpc(RpcServer* server) {
  rpc_server_ = server;
  // Authenticates the frame, then dispatches to `fn(device, payload)`.
  auto authed = [this](const std::string& method,
                       auto fn) -> RpcServer::Handler {
    return [this, method, fn](const WireValue::Array& params)
               -> Result<WireValue> {
      KP_ASSIGN_OR_RETURN(AuthedCall call, SplitAuthedCall(params));
      auto it = devices_.find(call.device_id);
      if (it == devices_.end()) {
        return PermissionDeniedError("key service: unregistered device");
      }
      KP_RETURN_IF_ERROR(VerifyAuthTag(it->second.secret, method, call));
      return fn(call.device_id, call.payload);
    };
  };

  // Registers one method, honoring the commit-window mode: with a window,
  // the handler executes immediately (its appends stage into the open
  // window's commit group) but the response is withheld until the group
  // seal lands — the client-visible "durably log before the key leaves"
  // barrier now covers the whole group. A replicated service uses the same
  // held-response path even with a zero window, because responses must
  // additionally wait for backup acknowledgement. `gated` methods are
  // leader-only when a serve gate is installed (key.* — they mutate or
  // release keys); audit.* stays readable on any replica.
  auto install = [this, server, authed](const std::string& method, bool gated,
                                        auto fn) {
    RpcServer::Handler body = authed(method, fn);
    if (options_.commit_window > SimDuration() || replicator_) {
      server->RegisterAsyncMethod(
          method, [this, gated, body](const WireValue::Array& params,
                                      RpcServer::Responder respond) {
            if (gated && serve_gate_) {
              Status gate = serve_gate_();
              if (!gate.ok()) {
                // Rejected before any append: nothing to seal, nothing to
                // hold — tell the client who leads, right away.
                respond(std::move(gate));
                return;
              }
            }
            OpenCommitWindow();
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
      "key.create", true,
      [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 1) {
                 return InvalidArgumentError("key.create: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes id_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(AuditId id, AuditId::FromBytes(id_bytes));
               KP_ASSIGN_OR_RETURN(Bytes key, CreateKey(device, id));
               return WireValue(std::move(key));
             });

  install(
      "key.get", true,
      [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 2) {
                 return InvalidArgumentError("key.get: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes id_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(AuditId id, AuditId::FromBytes(id_bytes));
               KP_ASSIGN_OR_RETURN(int64_t op_int, payload[1].AsInt());
               KP_ASSIGN_OR_RETURN(
                   Bytes key, GetKey(device, id, static_cast<AccessOp>(op_int)));
               return WireValue(std::move(key));
             });

  install(
      "key.get_batch", true,
      [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 1) {
                 return InvalidArgumentError("key.get_batch: bad arity");
               }
               KP_ASSIGN_OR_RETURN(WireValue::Array ids, payload[0].AsArray());
               std::vector<AuditId> audit_ids;
               for (const auto& id_value : ids) {
                 KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_value.AsBytes());
                 KP_ASSIGN_OR_RETURN(AuditId id,
                                     AuditId::FromBytes(id_bytes));
                 audit_ids.push_back(id);
               }
               KP_ASSIGN_OR_RETURN(auto pairs, GetKeys(device, audit_ids));
               WireValue::Array out;
               for (auto& [id, key] : pairs) {
                 WireValue::Struct entry;
                 entry.emplace("id", WireValue(id.ToBytes()));
                 entry.emplace("key", WireValue(std::move(key)));
                 out.push_back(WireValue(std::move(entry)));
               }
               return WireValue(std::move(out));
             });

  // Batched typed fetch (DESIGN.md §13): N {id, op} items in one authed
  // frame, one commit group. Granted keys and per-id misses come back in
  // one response so a missing key never fails its batch siblings.
  install(
      "key.get_multi", true,
      [this](const std::string& device,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (payload.size() != 1) {
          return InvalidArgumentError("key.get_multi: bad arity");
        }
        KP_ASSIGN_OR_RETURN(WireValue::Array raw_items, payload[0].AsArray());
        std::vector<MultiGetItem> items;
        items.reserve(raw_items.size());
        for (const auto& raw : raw_items) {
          MultiGetItem item;
          KP_ASSIGN_OR_RETURN(WireValue id_v, raw.Field("id"));
          KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_v.AsBytes());
          KP_ASSIGN_OR_RETURN(item.audit_id, AuditId::FromBytes(id_bytes));
          KP_ASSIGN_OR_RETURN(WireValue op_v, raw.Field("op"));
          KP_ASSIGN_OR_RETURN(int64_t op_int, op_v.AsInt());
          item.op = static_cast<AccessOp>(op_int);
          items.push_back(item);
        }
        KP_ASSIGN_OR_RETURN(MultiGetResult result,
                            GetKeysTyped(device, items));
        WireValue::Struct out;
        WireValue::Array keys;
        for (auto& [id, key] : result.keys) {
          WireValue::Struct entry;
          entry.emplace("id", WireValue(id.ToBytes()));
          entry.emplace("key", WireValue(std::move(key)));
          keys.push_back(WireValue(std::move(entry)));
        }
        out.emplace("keys", WireValue(std::move(keys)));
        WireValue::Array misses;
        for (const auto& miss : result.misses) {
          WireValue::Struct entry;
          entry.emplace("id", WireValue(miss.audit_id.ToBytes()));
          entry.emplace("code", WireValue(static_cast<int64_t>(
                                    miss.status.code())));
          entry.emplace("msg", WireValue(miss.status.message()));
          misses.push_back(WireValue(std::move(entry)));
        }
        out.emplace("misses", WireValue(std::move(misses)));
        return WireValue(std::move(out));
      });

  install(
      "key.evict", true,
      [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 1) {
                 return InvalidArgumentError("key.evict: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes id_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(AuditId id, AuditId::FromBytes(id_bytes));
               KP_RETURN_IF_ERROR(NoteEviction(device, id));
               return WireValue(true);
             });

  // Audit surface (the owner/IT console or the drive maker's web service).
  // Authenticated with the device secret: whoever can audit a device can
  // already act for it administratively in this model.
  //
  // Incremental audit: the committed tail with seq >= the caller's cursor,
  // so a repeat auditor transfers (and the service scans) only what's new
  // instead of re-walking the whole log. Cursors below the truncation base
  // are served from the cold tier (each segment re-verified against its
  // signed checkpoint before any entry leaves the service).
  install(
      "audit.key_log_tail", false,
      [this](const std::string& device,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (payload.size() != 1) {
          return InvalidArgumentError("audit.key_log_tail: bad arity");
        }
        KP_ASSIGN_OR_RETURN(int64_t next_seq, payload[0].AsInt());
        // Checkpoints vouch for the sealed prefix; only the tail after the
        // latest checkpoint is replayed per request.
        KP_RETURN_IF_ERROR(log_.VerifyTail());
        uint64_t from = static_cast<uint64_t>(next_seq);
        std::vector<AuditLogEntry> entries;
        if (from < log_.base_seq()) {
          KP_ASSIGN_OR_RETURN(entries, log_.AllEntriesFromSeq(from));
        } else {
          entries = log_.EntriesAfterSeq(from);
        }
        std::erase_if(entries, [&](const AuditLogEntry& entry) {
          return entry.device_id != device;
        });
        // "next" covers the whole committed log, not just this device's
        // rows, so the cursor advances past other devices' entries too.
        // The rows travel as one flat blob (DESIGN.md §19).
        WireValue::Struct out;
        out.emplace("next", WireValue(static_cast<int64_t>(log_.size())));
        out.emplace("entries", WireValue(EncodeFlatRows(entries)));
        // Restore epoch: lets a remote cursor distinguish "shard restored
        // from an older snapshot" (epoch bump, possibly next < cursor) from
        // a plain short read, and trigger an overlap-verified resync.
        out.emplace("epoch",
                    WireValue(static_cast<int64_t>(restore_epoch_)));
        // Checkpoint fingerprint: count plus latest hash, so an auditor can
        // tell "server truncated a prefix I already hold" (cursor clamp,
        // benign) from "server restored an older log" (full resync) by
        // comparing checkpoint chains instead of raw sequence numbers.
        const auto& ckpts = log_.checkpoints();
        out.emplace("ckpt_count",
                    WireValue(static_cast<int64_t>(ckpts.size())));
        out.emplace("ckpt_hash",
                    WireValue(ckpts.empty() ? Bytes() : ckpts.back().hash));
        out.emplace("base",
                    WireValue(static_cast<int64_t>(log_.base_seq())));
        return WireValue(std::move(out));
      });

  // The signed checkpoint chain (all of it — checkpoints are tiny). The
  // auditor verifies hashes + signatures client-side and uses the chain to
  // anchor catch-up and to disambiguate truncation from restore.
  install(
      "audit.key_checkpoints", false,
      [this](const std::string&,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (!payload.empty()) {
          return InvalidArgumentError("audit.key_checkpoints: bad arity");
        }
        WireValue::Array out;
        for (const auto& ckpt : log_.checkpoints()) {
          out.push_back(ckpt.ToWire());
        }
        return WireValue(std::move(out));
      });

  // One sealed cold segment by checkpoint id, for forensic replay of a
  // truncated prefix. Served from the local medium only (no cloud blocking
  // inside an RPC); integrity is the caller's job via the signed checkpoint.
  install(
      "audit.key_log_segment", false,
      [this](const std::string&,
             const WireValue::Array& payload) -> Result<WireValue> {
        if (payload.size() != 1) {
          return InvalidArgumentError("audit.key_log_segment: bad arity");
        }
        KP_ASSIGN_OR_RETURN(int64_t index, payload[0].AsInt());
        if (segment_store_ == nullptr) {
          return UnavailableError("key service: no cold segment tier");
        }
        KP_ASSIGN_OR_RETURN(
            SealedSegment segment,
            segment_store_->Get("key", static_cast<uint64_t>(index)));
        return segment.ToWire();
      });

  install(
      "key.destroy", true,
      [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 1) {
                 return InvalidArgumentError("key.destroy: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes id_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(AuditId id, AuditId::FromBytes(id_bytes));
               KP_RETURN_IF_ERROR(DestroyKey(device, id));
               return WireValue(true);
             });

  install(
      "key.fetch_group", true,
      [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 2) {
                 return InvalidArgumentError("key.fetch_group: bad arity");
               }
               KP_ASSIGN_OR_RETURN(Bytes demand_bytes, payload[0].AsBytes());
               KP_ASSIGN_OR_RETURN(AuditId demand_id,
                                   AuditId::FromBytes(demand_bytes));
               KP_ASSIGN_OR_RETURN(WireValue::Array ids, payload[1].AsArray());
               std::vector<AuditId> prefetch_ids;
               for (const auto& id_value : ids) {
                 KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_value.AsBytes());
                 KP_ASSIGN_OR_RETURN(AuditId id,
                                     AuditId::FromBytes(id_bytes));
                 prefetch_ids.push_back(id);
               }
               KP_ASSIGN_OR_RETURN(GroupFetchResult group,
                                   FetchGroup(device, demand_id,
                                              prefetch_ids));
               WireValue::Struct out;
               out.emplace("demand", WireValue(std::move(group.demand_key)));
               WireValue::Array prefetched;
               for (auto& [id, key] : group.prefetched) {
                 WireValue::Struct entry;
                 entry.emplace("id", WireValue(id.ToBytes()));
                 entry.emplace("key", WireValue(std::move(key)));
                 prefetched.push_back(WireValue(std::move(entry)));
               }
               out.emplace("prefetched", WireValue(std::move(prefetched)));
               return WireValue(std::move(out));
             });

  install(
      "key.upload_journal", true,
      [this](const std::string& device,
                    const WireValue::Array& payload) -> Result<WireValue> {
               if (payload.size() != 1) {
                 return InvalidArgumentError("key.upload_journal: bad arity");
               }
               KP_ASSIGN_OR_RETURN(WireValue::Array raw, payload[0].AsArray());
               std::vector<JournalEntry> entries;
               for (const auto& e : raw) {
                 JournalEntry entry;
                 KP_ASSIGN_OR_RETURN(WireValue id_v, e.Field("id"));
                 KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_v.AsBytes());
                 KP_ASSIGN_OR_RETURN(entry.audit_id,
                                     AuditId::FromBytes(id_bytes));
                 KP_ASSIGN_OR_RETURN(WireValue op_v, e.Field("op"));
                 KP_ASSIGN_OR_RETURN(int64_t op_int, op_v.AsInt());
                 entry.op = static_cast<AccessOp>(op_int);
                 KP_ASSIGN_OR_RETURN(WireValue ts_v, e.Field("ts"));
                 KP_ASSIGN_OR_RETURN(int64_t ts_int, ts_v.AsInt());
                 entry.client_time = SimTime(ts_int);
                 if (e.HasField("key")) {
                   KP_ASSIGN_OR_RETURN(WireValue key_v, e.Field("key"));
                   KP_ASSIGN_OR_RETURN(entry.key, key_v.AsBytes());
                 }
                 entries.push_back(std::move(entry));
               }
               KP_RETURN_IF_ERROR(UploadJournal(device, entries));
               return WireValue(true);
             });
}

}  // namespace keypad
