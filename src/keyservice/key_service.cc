#include "src/keyservice/key_service.h"

#include <algorithm>

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
      hot_capacity_(options.hot_key_cache ? kHotKeyCapacity : 0) {}

std::vector<AuditLogEntry> KeyService::LogSince(SimTime since) const {
  Result<std::vector<AuditLogEntry>> all =
      log_.AllEntriesFromSeq(0, /*repair=*/true);
  std::vector<AuditLogEntry> out =
      all.ok() ? std::move(all).value() : log_.entries();
  // Filtered in place: the log is copied once per read.
  std::erase_if(out, [since](const AuditLogEntry& entry) {
    return entry.timestamp < since;
  });
  return out;
}

size_t KeyService::MaxKeyBucketForTesting() const {
  size_t most = 0;
  for (size_t b = 0; b < keys_.bucket_count(); ++b) {
    most = std::max(most, keys_.bucket_size(b));
  }
  return most;
}

void KeyService::ChargeUnwrap(KeyEntry& entry) {
  if (entry.second.hot.resident) {
    ++hot_hits_;
  } else {
    ++hot_misses_;
    if (seal_charge_ && options_.unwrap_cost > SimDuration()) {
      seal_charge_(options_.unwrap_cost);
    }
  }
  MakeHot(entry);
}

void KeyService::MakeHot(KeyEntry& entry) {
  if (hot_capacity_ == 0) {
    return;
  }
  HotLinks& links = entry.second.hot;
  if (links.resident) {
    if (hottest_ == &entry) {
      return;
    }
    UnlinkHot(entry);
  } else if (hot_size_ >= hot_capacity_) {
    UnlinkHot(*coldest_);
  }
  links.resident = true;
  links.hotter = nullptr;
  links.colder = hottest_;
  if (hottest_ != nullptr) {
    hottest_->second.hot.hotter = &entry;
  } else {
    coldest_ = &entry;
  }
  hottest_ = &entry;
  ++hot_size_;
}

void KeyService::UnlinkHot(KeyEntry& entry) {
  HotLinks& links = entry.second.hot;
  (links.hotter != nullptr ? links.hotter->second.hot.colder : hottest_) =
      links.colder;
  (links.colder != nullptr ? links.colder->second.hot.hotter : coldest_) =
      links.hotter;
  links.hotter = links.colder = nullptr;
  links.resident = false;
  --hot_size_;
}

void KeyService::InvalidateHotKey(KeyEntry& entry) {
  if (entry.second.hot.resident) {
    UnlinkHot(entry);
    ++hot_invalidations_;
  }
}

void KeyService::InvalidateHotDevice(const std::string& device_id) {
  for (KeyEntry* entry = hottest_; entry != nullptr;) {
    KeyEntry* colder = entry->second.hot.colder;
    if (entry->first.first == device_id) {
      UnlinkHot(*entry);
      ++hot_invalidations_;
    }
    entry = colder;
  }
}

void KeyService::ClearHotKeys() {
  while (hottest_ != nullptr) {
    UnlinkHot(*hottest_);
  }
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
    // copy.
    InvalidateHotDevice(device_id);
  }
}

void KeyService::ApplyChanges(const std::vector<KeyChange>& changes) {
  for (const auto& change : changes) {
    auto it = keys_.find(KeyProbe(change.device_id, change.audit_id));
    if (it != keys_.end()) {
      // Any replicated mutation makes a resident unwrapped copy stale.
      InvalidateHotKey(*it);
    }
    if (change.erased) {
      if (it != keys_.end()) {
        SecureZero(it->second.key);
        keys_.erase(it);
      }
    } else if (change.disabled) {
      if (it != keys_.end()) {
        it->second.disabled = true;
      }
    } else if (it != keys_.end()) {
      it->second.key = change.key;
      it->second.disabled = false;
    } else {
      keys_.try_emplace(KeyMapKey(change.device_id, change.audit_id),
                        KeyRecord{change.key, false, {}});
    }
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
  stats.hot_size = hot_size_;
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
  // Copy every (from, audit_id) binding to (to, audit_id), in ascending id
  // order so replica audit chains stay identical when each replica runs
  // this admin action. The bindings are collected first, by address:
  // inserting may rehash the index, which moves no record but invalidates
  // iterators. One kRestore entry per re-bound key.
  std::vector<const KeyEntry*> bindings;
  for (const KeyEntry& entry : keys_) {
    // Per-key disables carry over by NOT transferring.
    if (entry.first.first == from_id && !entry.second.disabled) {
      bindings.push_back(&entry);
    }
  }
  std::sort(bindings.begin(), bindings.end(),
            [](const KeyEntry* a, const KeyEntry* b) {
              return a->first.second < b->first.second;
            });
  BatchScope scope(this);
  for (const KeyEntry* from_entry : bindings) {
    const AuditId& audit_id = from_entry->first.second;
    KeyEntry& entry = *keys_.try_emplace(KeyMapKey(to_id, audit_id)).first;
    InvalidateHotKey(entry);
    entry.second.key = from_entry->second.key;
    entry.second.disabled = false;
    LogAppend(queue_->Now(), to_id, audit_id, AccessOp::kRestore);
    NoteChange(to_id, audit_id, entry.second.key, false, false);
  }
  return Status::Ok();
}

Status KeyService::CheckDevice(const std::string& device_id,
                               const AuditId& audit_id) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return PermissionDeniedError("key service: unregistered device");
  }
  if (it->second.disabled) {
    // No key-store touch, but the attempt itself is forensically valuable
    // — log it, then refuse.
    ++negative_hits_;
    LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kDenied);
    return PermissionDeniedError("key service: device disabled");
  }
  return Status::Ok();
}

Result<Bytes> KeyService::CreateKey(const std::string& device_id,
                                    const AuditId& audit_id) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id, audit_id));
  auto [it, inserted] = keys_.try_emplace(KeyMapKey(device_id, audit_id));
  if (!inserted) {
    return AlreadyExistsError("key service: audit id already bound");
  }
  it->second.key = rng_.NextBytes(kRemoteKeyLen);
  // Durably log *before* responding (paper §3.1).
  LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kCreate);
  // The freshly minted key is unwrapped-resident by construction.
  MakeHot(*it);
  NoteChange(device_id, audit_id, it->second.key, false, false);
  return it->second.key;
}

Result<std::vector<Result<Bytes>>> KeyService::Release(
    const std::string& device_id, const std::vector<MultiGetItem>& items) {
  auto device = devices_.find(device_id);
  if (device == devices_.end()) {
    return PermissionDeniedError("key service: unregistered device");
  }
  // One call = one commit group: N appends, one seal.
  BatchScope scope(this);
  if (device->second.disabled) {
    // Revocation storm: no key-store touch, but every attempted id is
    // logged before the refusal.
    negative_hits_ += items.size();
    for (const auto& item : items) {
      log_.Append(queue_->Now(), device_id, item.audit_id, AccessOp::kDenied);
    }
    return PermissionDeniedError("key service: device disabled");
  }
  std::vector<Result<Bytes>> released;
  released.reserve(items.size());
  for (const auto& item : items) {
    auto it = keys_.find(KeyProbe(device_id, item.audit_id));
    if (it == keys_.end()) {
      released.push_back(NotFoundError("key service: no such key"));
    } else if (it->second.disabled) {
      log_.Append(queue_->Now(), device_id, item.audit_id, AccessOp::kDenied);
      released.push_back(PermissionDeniedError("key service: key disabled"));
    } else {
      log_.Append(queue_->Now(), device_id, item.audit_id, item.op);
      ChargeUnwrap(*it);
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
    if (entry.op == AccessOp::kCreate && !entry.key.empty() &&
        keys_.try_emplace(KeyMapKey(device_id, entry.audit_id),
                          KeyRecord{entry.key, false, {}})
            .second) {
      NoteChange(device_id, entry.audit_id, entry.key, false, false);
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
  auto it = keys_.find(KeyProbe(device_id, audit_id));
  if (it == keys_.end()) {
    return NotFoundError("key service: no such key");
  }
  it->second.disabled = true;
  InvalidateHotKey(*it);
  LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kRevoke);
  NoteChange(device_id, audit_id, Bytes(), true, false);
  return Status::Ok();
}

Status KeyService::DestroyKey(const std::string& device_id,
                              const AuditId& audit_id) {
  KP_RETURN_IF_ERROR(CheckDevice(device_id, audit_id));
  auto it = keys_.find(KeyProbe(device_id, audit_id));
  if (it == keys_.end()) {
    return NotFoundError("key service: no such key");
  }
  InvalidateHotKey(*it);
  SecureZero(it->second.key);
  keys_.erase(it);
  LogAppend(queue_->Now(), device_id, audit_id, AccessOp::kDestroy);
  // Assured delete must propagate: every replica zeroes its copy.
  NoteChange(device_id, audit_id, Bytes(), false, true);
  return Status::Ok();
}

void KeyService::SnapshotState(WireValue::Struct& snapshot) const {
  // Rows go out in (device, id) order, whatever the index's order.
  std::vector<const KeyEntry*> sorted;
  sorted.reserve(keys_.size());
  for (const KeyEntry& entry : keys_) {
    sorted.push_back(&entry);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const KeyEntry* a, const KeyEntry* b) {
              return a->first < b->first;
            });
  WireValue::Array keys;
  keys.reserve(sorted.size());
  for (const KeyEntry* entry : sorted) {
    const auto& [map_key, record] = *entry;
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
    const WireValue& snapshot, AuditLog& /*log*/) {
  KeyMap keys;
  KP_ASSIGN_OR_RETURN(WireValue keys_value, snapshot.Field("keys"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_keys, keys_value.AsArray());
  keys.reserve(raw_keys.size());
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
    // Every resident copy described the pre-restore store.
    ClearHotKeys();
    keys_ = std::move(keys);
  });
}

void KeyService::BindRpc(RpcServer* server) {
  rpc_server_ = server;
  Install(server, "key.create", true, 1,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(AuditId id, IdArg<AuditId>(payload[0]));
            KP_ASSIGN_OR_RETURN(Bytes key, CreateKey(device, id));
            return WireValue(std::move(key));
          });

  Install(server, "key.get", true, 2,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(AuditId id, IdArg<AuditId>(payload[0]));
            KP_ASSIGN_OR_RETURN(int64_t op_int, payload[1].AsInt());
            KP_ASSIGN_OR_RETURN(AccessOp op,
                                DecodeAccessOp(op_int, OpSource::kFetch));
            KP_ASSIGN_OR_RETURN(Bytes key, GetKey(device, id, op));
            return WireValue(std::move(key));
          });

  // Batched typed fetch (DESIGN.md §13, §26): N items in one authed
  // frame, one commit group, answered positionally so a missing key never
  // fails its batch siblings.
  Install(server, "key.get_multi", true, 2,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(std::vector<MultiGetItem> items,
                                DecodeMultiGetRequest(payload));
            KP_ASSIGN_OR_RETURN(std::vector<Result<Bytes>> released,
                                Release(device, items));
            return EncodeMultiGetReply(std::move(released));
          });

  Install(server, "key.evict", true, 1,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(AuditId id, IdArg<AuditId>(payload[0]));
            KP_RETURN_IF_ERROR(NoteEviction(device, id));
            return WireValue(true);
          });

  Install(server, "key.destroy", true, 1,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(AuditId id, IdArg<AuditId>(payload[0]));
            KP_RETURN_IF_ERROR(DestroyKey(device, id));
            return WireValue(true);
          });

  InstallSharedRpc(server);
}

}  // namespace keypad
