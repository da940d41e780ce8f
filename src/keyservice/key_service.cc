#include "src/keyservice/key_service.h"

#include "src/keyservice/key_service_client.h"

namespace keypad {

WireValue KeyChange::ToWire() const {
  WireValue::Struct k;
  k.emplace("device", WireValue(device_id));
  k.emplace("id", WireValue(audit_id.ToBytes()));
  k.emplace("key", WireValue(key));
  k.emplace("disabled", WireValue(disabled));
  k.emplace("erased", WireValue(erased));
  return WireValue(std::move(k));
}

Result<KeyChange> KeyChange::FromWire(const WireValue& value) {
  KeyChange change;
  KP_ASSIGN_OR_RETURN(WireValue device_v, value.Field("device"));
  KP_ASSIGN_OR_RETURN(change.device_id, device_v.AsString());
  KP_ASSIGN_OR_RETURN(WireValue id_v, value.Field("id"));
  KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_v.AsBytes());
  KP_ASSIGN_OR_RETURN(change.audit_id, AuditId::FromBytes(id_bytes));
  KP_ASSIGN_OR_RETURN(WireValue key_v, value.Field("key"));
  KP_ASSIGN_OR_RETURN(change.key, key_v.AsBytes());
  KP_ASSIGN_OR_RETURN(WireValue disabled_v, value.Field("disabled"));
  KP_ASSIGN_OR_RETURN(change.disabled, disabled_v.AsBool());
  KP_ASSIGN_OR_RETURN(WireValue erased_v, value.Field("erased"));
  KP_ASSIGN_OR_RETURN(change.erased, erased_v.AsBool());
  return change;
}

KeyService::KeyService(EventQueue* queue, uint64_t rng_seed,
                       KeyServiceOptions options)
    : ServiceShell(queue, rng_seed, options.log, options.commit_window),
      options_(options),
      hot_keys_(options.hot_key_cache ? kHotKeyCapacity : 0) {}

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

void KeyService::OnWindowFlush() {
  NoteSealed(log_.CommitBatch());
  ++window_flushes_;
}

void KeyService::OnDeviceFlag(const std::string& device_id, bool disabled) {
  if (disabled) {
    // Fencing: the revoked device must never be served from a resident
    // copy, and subsequent fetch storms should fail fast off the negative
    // cache.
    InvalidateHotDevice(device_id);
    negative_devices_.insert(device_id);
  } else {
    negative_devices_.erase(device_id);
  }
}

void KeyService::ApplyChanges(const std::vector<KeyChange>& changes) {
  for (const auto& change : changes) {
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
  KP_RETURN_IF_ERROR(ServiceShell::DisableDevice(device_id));
  // One revocation record marks the control action in the audit trail.
  LogAppend(queue_->Now(), device_id, AuditId{}, AccessOp::kRevoke);
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
    NoteChange(to_id, it->first.second, it->second.key, false, false);
  }
  return Status::Ok();
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
  NoteChange(device_id, audit_id, record.key, false, false);
  return record.key;
}

Result<std::vector<Result<Bytes>>> KeyService::Release(
    const std::string& device_id, const std::vector<MultiGetItem>& items) {
  bool cached = negative_devices_.count(device_id) > 0;
  if (!cached) {
    auto device = devices_.find(device_id);
    if (device == devices_.end()) {
      return PermissionDeniedError("key service: unregistered device");
    }
    if (device->second.disabled) {
      negative_devices_.insert(device_id);
    }
  }
  // One call = one commit group: N appends, one seal.
  BatchScope scope(this);
  if (negative_devices_.count(device_id) > 0) {
    // Revocation-storm fast path: no key-store touch, but every attempted
    // id is logged before the refusal.
    if (cached) {
      negative_hits_ += items.size();
    }
    for (const auto& item : items) {
      log_.Append(queue_->Now(), device_id, item.audit_id, AccessOp::kDenied);
    }
    return PermissionDeniedError("key service: device disabled");
  }
  std::vector<Result<Bytes>> released;
  released.reserve(items.size());
  for (const auto& item : items) {
    auto it = keys_.find(KeyMapKey(device_id, item.audit_id));
    if (it == keys_.end()) {
      released.push_back(NotFoundError("key service: no such key"));
    } else if (it->second.disabled) {
      log_.Append(queue_->Now(), device_id, item.audit_id, AccessOp::kDenied);
      released.push_back(PermissionDeniedError("key service: key disabled"));
    } else {
      log_.Append(queue_->Now(), device_id, item.audit_id, item.op);
      ChargeUnwrap(it->first);
      released.push_back(it->second.key);
    }
  }
  return released;
}

Result<Bytes> KeyService::GetKey(const std::string& device_id,
                                 const AuditId& audit_id, AccessOp op) {
  KP_ASSIGN_OR_RETURN(std::vector<Result<Bytes>> released,
                      Release(device_id, {{audit_id, op}}));
  return std::move(released[0]);
}

Result<KeyService::MultiGetResult> KeyService::GetKeysTyped(
    const std::string& device_id, const std::vector<MultiGetItem>& items) {
  KP_ASSIGN_OR_RETURN(std::vector<Result<Bytes>> released,
                      Release(device_id, items));
  MultiGetResult result;
  for (size_t i = 0; i < items.size(); ++i) {
    if (released[i].ok()) {
      result.keys.emplace_back(items[i].audit_id, std::move(*released[i]));
    } else {
      result.misses.push_back({items[i].audit_id, released[i].status()});
    }
  }
  return result;
}

Status KeyService::UploadJournal(const std::string& device_id,
                                 const std::vector<JournalEntry>& entries) {
  KP_RETURN_IF_ERROR(RequireEnabledDevice(device_id));
  // The whole uploaded journal seals as one commit group.
  BatchScope scope(this);
  for (const auto& entry : entries) {
    if (entry.op == AccessOp::kCreate && !entry.key.empty()) {
      KeyMapKey map_key(device_id, entry.audit_id);
      if (keys_.count(map_key) == 0) {
        KeyRecord record;
        record.key = entry.key;
        keys_.emplace(map_key, record);
        NoteChange(device_id, entry.audit_id, entry.key, false, false);
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
  NoteChange(device_id, audit_id, Bytes(), true, false);
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
  NoteChange(device_id, audit_id, Bytes(), false, true);
  return Status::Ok();
}

void KeyService::SnapshotState(WireValue::Struct& snapshot) const {
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
}

Result<std::function<void()>> KeyService::ParseState(
    const WireValue& snapshot) {
  std::map<KeyMapKey, KeyRecord> keys;
  KP_ASSIGN_OR_RETURN(WireValue keys_value, snapshot.Field("keys"));
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
  return std::function<void()>([this, keys = std::move(keys)]() mutable {
    keys_ = std::move(keys);
    // Every resident copy described the pre-restore store; the negative
    // cache rebuilds from the restored device records.
    hot_keys_.Clear();
    negative_devices_.clear();
    for (const auto& [id, record] : devices_) {
      if (record.disabled) {
        negative_devices_.insert(id);
      }
    }
  });
}

void KeyService::BindRpc(RpcServer* server) {
  rpc_server_ = server;
  Install(
      server, "key.create", true,
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

  Install(
      server, "key.get", true,
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

  // Batched typed fetch (DESIGN.md §13, §26): N items in one authed
  // frame, one commit group, answered positionally so a missing key never
  // fails its batch siblings.
  Install(server, "key.get_multi", true,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(std::vector<MultiGetItem> items,
                                DecodeMultiGetRequest(payload));
            KP_ASSIGN_OR_RETURN(std::vector<Result<Bytes>> released,
                                Release(device, items));
            return EncodeMultiGetReply(std::move(released));
          });

  Install(
      server, "key.evict", true,
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

  InstallAuditRpc(server);

  Install(
      server, "key.destroy", true,
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

  Install(
      server, "key.upload_journal", true,
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
