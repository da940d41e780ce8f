#include "src/keypad/keypad_fs.h"

#include "src/cryptocore/keywrap.h"
#include "src/cryptocore/sha256.h"
#include "src/metaservice/metadata_service.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/wire/binary_codec.h"

namespace keypad {

namespace {

constexpr uint8_t kTagRawKd = 0x00;
constexpr uint8_t kTagWrapped = 0x01;

Bytes Tagged(uint8_t tag, const Bytes& body) {
  Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(tag);
  Append(out, body);
  return out;
}

// Well-known object holding the sealed service credentials.
ObjectId CredentialsObjectId() {
  Sha256::Digest d = Sha256::Hash("keypad-credentials-object");
  Bytes prefix(d.begin(), d.begin() + 16);
  return *ObjectId::FromBytes(prefix);
}

}  // namespace

KeypadFs::KeypadFs(BlockDevice* device, EventQueue* queue, uint64_t rng_seed,
                   EncFs::Options fs_options, KeypadConfig config,
                   Services services)
    : EncFs(device, queue, rng_seed, fs_options),
      config_(std::move(config)),
      services_(services),
      cache_(queue, config_.texp),
      prefetcher_(config_.prefetch, rng_seed ^ 0x70F37C4Bull) {
  // In-use keys are refreshed through the key service at expiry, producing
  // kRefresh audit records (§4 "Key Expiration").
  cache_.set_refresh([this](const AuditId& id,
                            std::function<void(Result<Bytes>)> done) {
    RefreshKeyAsync(id, std::move(done));
  });
}

KeypadFs::~KeypadFs() {
  for (auto& [id, entry] : grace_) {
    queue()->Cancel(entry.expiry_event);
    SecureZero(entry.kd);
  }
  for (auto& [id, pending] : pending_) {
    SecureZero(pending.kd);
  }
}

Result<std::unique_ptr<KeypadFs>> KeypadFs::Format(
    BlockDevice* device, EventQueue* queue, uint64_t rng_seed,
    std::string_view password, EncFs::Options fs_options, KeypadConfig config,
    Services services) {
  auto fs = std::unique_ptr<KeypadFs>(
      new KeypadFs(device, queue, rng_seed, fs_options, std::move(config),
                   services));
  KP_RETURN_IF_ERROR(fs->InitFormat(password));
  // The root directory must be known to the metadata service before any
  // file binding can be interpreted.
  KP_RETURN_IF_ERROR(services.meta->RegisterRoot(fs->root_dir_id()));
  return fs;
}

Result<std::unique_ptr<KeypadFs>> KeypadFs::Mount(
    BlockDevice* device, EventQueue* queue, uint64_t rng_seed,
    std::string_view password, EncFs::Options fs_options, KeypadConfig config,
    Services services) {
  auto fs = std::unique_ptr<KeypadFs>(
      new KeypadFs(device, queue, rng_seed, fs_options, std::move(config),
                   services));
  KP_RETURN_IF_ERROR(fs->InitMount(password));
  return fs;
}

void KeypadFs::ResetStats() {
  stats_ = Stats{};
  cache_.ResetStats();
  prefetcher_.ResetStats();
}

void KeypadFs::Hibernate() {
  for (const auto& id : cache_.Clear()) {
    services_.key->NoteEvictionAsync(id);
  }
  for (auto& [id, entry] : grace_) {
    queue()->Cancel(entry.expiry_event);
    SecureZero(entry.kd);
  }
  grace_.clear();
}

Status KeypadFs::StoreCredentials(const Credentials& creds) {
  WireValue::Struct s;
  s.emplace("device", WireValue(creds.device_id));
  s.emplace("key_secret", WireValue(creds.key_secret));
  s.emplace("meta_secret", WireValue(creds.meta_secret));
  Bytes sealed = SealBlob(BinaryEncode(WireValue(std::move(s))));
  device()->WriteObject(CredentialsObjectId(), std::move(sealed));
  return Status::Ok();
}

Result<KeypadFs::Credentials> KeypadFs::LoadCredentials(EncFs* fs) {
  KP_ASSIGN_OR_RETURN(Bytes sealed,
                      fs->device()->ReadObject(CredentialsObjectId()));
  KP_ASSIGN_OR_RETURN(Bytes plain, fs->OpenBlob(sealed));
  KP_ASSIGN_OR_RETURN(WireValue value, BinaryDecode(plain));
  Credentials creds;
  KP_ASSIGN_OR_RETURN(WireValue device_v, value.Field("device"));
  KP_ASSIGN_OR_RETURN(creds.device_id, device_v.AsString());
  KP_ASSIGN_OR_RETURN(WireValue ks_v, value.Field("key_secret"));
  KP_ASSIGN_OR_RETURN(creds.key_secret, ks_v.AsBytes());
  KP_ASSIGN_OR_RETURN(WireValue ms_v, value.Field("meta_secret"));
  KP_ASSIGN_OR_RETURN(creds.meta_secret, ms_v.AsBytes());
  return creds;
}

// --- Key fetching. ------------------------------------------------------------

void KeypadFs::RefreshKeyAsync(const AuditId& id,
                               std::function<void(Result<Bytes>)> done) {
  // Asynchronous refresh of an in-use key; logs kRefresh at the service.
  // Implemented with the client stub's async creation channel: reuse
  // CallAsync through a small dedicated method on the stub.
  services_.key->GetKeyAsync(id, AccessOp::kRefresh, std::move(done));
}

std::vector<AuditId> KeypadFs::ListDirAuditIds(const std::string& dir_path) {
  std::vector<AuditId> out;
  auto dir = ResolveDir(dir_path);
  if (!dir.ok()) {
    return out;
  }
  for (const auto& entry : dir->dir.entries) {
    if (entry.is_dir) {
      continue;  // Prefetch is never recursive (§4).
    }
    auto header = ReadHeaderAt(entry.obj);
    if (header.ok() && header->keypad_protected) {
      out.push_back(header->audit_id);
    }
  }
  return out;
}

void KeypadFs::CacheInsert(const AuditId& id, Bytes key) {
  if (config_.brownout != nullptr) {
    cache_.Insert(id, std::move(key),
                  config_.brownout->CacheLifetimeForInsert(cache_.texp(),
                                                           queue()->Now()));
    return;
  }
  cache_.Insert(id, std::move(key));
}

Result<Bytes> KeypadFs::FetchRemoteKey(const AuditId& id,
                                       const std::string& dir_path) {
  ++stats_.demand_fetches;
  std::vector<AuditId> prefetch_ids = prefetcher_.OnMiss(
      dir_path, id, [&] { return ListDirAuditIds(dir_path); });
  // Don't re-fetch keys that are already cached.
  std::erase_if(prefetch_ids,
                [&](const AuditId& p) { return cache_.Contains(p); });
  // Under brownout the tier is shedding load — drop the speculative
  // fanout entirely (the only cost is a possible future demand miss) and
  // keep just the fetch a user is actually blocked on.
  if (!prefetch_ids.empty() && config_.brownout != nullptr &&
      config_.brownout->SuppressPrefetch(queue()->Now())) {
    prefetch_ids.clear();
  }

  if (prefetch_ids.empty()) {
    KP_ASSIGN_OR_RETURN(Bytes kr,
                        services_.key->GetKey(id, AccessOp::kDemandFetch));
    CacheInsert(id, kr);
    return kr;
  }
  KP_ASSIGN_OR_RETURN(KeyClient::GroupFetch group,
                      services_.key->FetchGroup(id, prefetch_ids));
  CacheInsert(id, group.demand_key);
  for (auto& [pid, pkey] : group.prefetched) {
    CacheInsert(pid, std::move(pkey));
    ++stats_.keys_prefetched;
  }
  return group.demand_key;
}

// --- Grace cache. ---------------------------------------------------------------

void KeypadFs::GraceInsert(const AuditId& id, Bytes kd) {
  GraceErase(id);
  GraceEntry entry;
  entry.kd = std::move(kd);
  entry.expires_at = queue()->Now() + config_.grace;
  entry.expiry_event =
      queue()->Schedule(entry.expires_at, [this, id] { GraceErase(id); });
  grace_.emplace(id, std::move(entry));
}

std::optional<Bytes> KeypadFs::GraceLookup(const AuditId& id) {
  auto it = grace_.find(id);
  if (it == grace_.end()) {
    return std::nullopt;
  }
  if (queue()->Now() >= it->second.expires_at) {
    GraceErase(id);
    return std::nullopt;
  }
  return it->second.kd;
}

void KeypadFs::GraceErase(const AuditId& id) {
  auto it = grace_.find(id);
  if (it == grace_.end()) {
    return;
  }
  queue()->Cancel(it->second.expiry_event);
  SecureZero(it->second.kd);
  grace_.erase(it);
}

// --- IBE lock/unlock helpers. ----------------------------------------------------

Result<Bytes> KeypadFs::IbeLockBlob(const std::string& identity,
                                    const Bytes& tagged) {
  Charge(config_.costs.ibe_lock);
  ++stats_.ibe_locks;
  KP_ASSIGN_OR_RETURN(IbeCiphertext ct,
                      IbeEncrypt(*services_.ibe, identity, tagged, rng()));
  return ct.Serialize(*services_.ibe->group);
}

Result<Bytes> KeypadFs::IbeUnlockBlob(const Bytes& blob,
                                      const Bytes& ibe_key_bytes,
                                      const std::string& identity) {
  Charge(config_.costs.ibe_unlock);
  KP_ASSIGN_OR_RETURN(
      IbeCiphertext ct,
      IbeCiphertext::Deserialize(blob, *services_.ibe->group));
  KP_ASSIGN_OR_RETURN(IbePrivateKey key,
                      IbePrivateKey::Deserialize(identity, ibe_key_bytes,
                                                 *services_.ibe->group));
  return IbeDecrypt(*services_.ibe, key, ct);
}

Result<Bytes> KeypadFs::BlockingUnlock(const AuditId& id, const DirId& dir_id,
                                       const std::string& name,
                                       FileHeader* header,
                                       bool* header_dirty) {
  ++stats_.ibe_blocking_unlocks;
  // Register the *current, truthful* binding; the PKG logs it and releases
  // the unlock key. A thief who lies gets a key for the wrong identity,
  // which fails the ciphertext MAC below.
  KP_ASSIGN_OR_RETURN(Bytes ibe_key_bytes,
                      services_.meta->BindFile(id, dir_id, name,
                                               /*is_rename=*/true));
  std::string identity = IbeIdentityFor(dir_id, name, id);
  KP_ASSIGN_OR_RETURN(Bytes tagged,
                      IbeUnlockBlob(header->key_blob, ibe_key_bytes,
                                    identity));
  if (tagged.empty()) {
    return DataLossError("keypad: empty IBE plaintext");
  }
  Bytes body(tagged.begin() + 1, tagged.end());
  if (tagged[0] == kTagRawKd) {
    // Creation lock: the data key itself. If the remote key is known by
    // now, normalize the header; otherwise leave it locked (the pending
    // machinery or a later access completes it).
    if (auto kr = cache_.Lookup(id)) {
      header->key_blob = WrapKey(*kr, body, rng());
      header->ibe_locked = false;
      *header_dirty = true;
    }
    return body;
  }
  if (tagged[0] == kTagWrapped) {
    // Rename lock: the wrapped blob. Fetching K_R produces the key-service
    // audit record.
    Bytes kr;
    if (auto cached = cache_.Lookup(id)) {
      Charge(config_.costs.cache_hit);
      ++stats_.cache_hits;
      kr = *cached;
    } else {
      KP_ASSIGN_OR_RETURN(kr, FetchRemoteKey(id, "/"));
    }
    KP_ASSIGN_OR_RETURN(Bytes kd, UnwrapKey(kr, body));
    header->key_blob = body;
    header->ibe_locked = false;
    *header_dirty = true;
    return kd;
  }
  return DataLossError("keypad: unknown IBE plaintext tag");
}

void KeypadFs::BackgroundUnlock(const AuditId& id, const std::string& identity,
                                const Bytes& ibe_key_bytes) {
  auto path_it = lock_paths_.find(id);
  if (path_it == lock_paths_.end()) {
    return;  // Unlinked or already handled.
  }
  auto resolved = ResolveFile(path_it->second);
  if (!resolved.ok()) {
    return;
  }
  auto header = ReadHeaderAt(resolved->obj);
  if (!header.ok() || !header->ibe_locked) {
    lock_paths_.erase(path_it);
    return;
  }
  auto tagged = IbeUnlockBlob(header->key_blob, ibe_key_bytes, identity);
  if (!tagged.ok()) {
    // The file was re-locked under a newer identity (renamed again) — the
    // newer bind's response will unlock it.
    return;
  }
  if ((*tagged)[0] == kTagWrapped) {
    FileHeader h = *header;
    h.key_blob = Bytes(tagged->begin() + 1, tagged->end());
    h.ibe_locked = false;
    Charge(config_.costs.header_rewrite);
    if (WriteHeaderAt(resolved->obj, h).ok()) {
      ++stats_.ibe_background_unlocks;
      lock_paths_.erase(path_it);
    }
  }
  // kTagRawKd background unlocks are handled by MaybeCompletePending, which
  // needs the remote key as well.
}

// --- Pending creations (IBE mode). ------------------------------------------------

void KeypadFs::SendPendingKeyCreate(const AuditId& id) {
  services_.key->CreateKeyAsync(id, [this, id](Result<Bytes> result) {
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      return;
    }
    if (!result.ok()) {
      if (it->second.key_retries_left-- > 0) {
        queue()->ScheduleAfter(config_.retry_backoff,
                               [this, id] { SendPendingKeyCreate(id); });
      }
      return;
    }
    it->second.kr = std::move(*result);
    CacheInsert(id, *it->second.kr);
    MaybeCompletePending(id);
  });
}

void KeypadFs::SendPendingMetaBind(const AuditId& id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  ++stats_.metadata_async;
  services_.meta->BindFileAsync(
      id, it->second.dir_id, it->second.name, /*is_rename=*/false,
      [this, id](Result<Bytes> result) {
        auto it2 = pending_.find(id);
        if (it2 == pending_.end()) {
          return;
        }
        if (!result.ok()) {
          if (it2->second.meta_retries_left-- > 0) {
            queue()->ScheduleAfter(config_.retry_backoff,
                                   [this, id] { SendPendingMetaBind(id); });
          }
          return;
        }
        it2->second.meta_done = true;
        MaybeCompletePending(id);
      });
}

void KeypadFs::MaybeCompletePending(const AuditId& id) {
  auto it = pending_.find(id);
  if (it == pending_.end() || !it->second.kr.has_value() ||
      !it->second.meta_done) {
    return;
  }
  PendingCreate& pending = it->second;
  // Normalize the header: Wrap(K_R, K_D) replaces the IBE creation lock.
  auto resolved = ResolveFile(pending.current_path);
  if (resolved.ok()) {
    auto header = ReadHeaderAt(resolved->obj);
    if (header.ok() && header->ibe_locked) {
      FileHeader h = *header;
      h.key_blob = WrapKey(*pending.kr, pending.kd, rng());
      h.ibe_locked = false;
      Charge(config_.costs.header_rewrite);
      if (WriteHeaderAt(resolved->obj, h).ok()) {
        ++stats_.ibe_background_unlocks;
      }
    }
  }
  SecureZero(pending.kd);
  lock_paths_.erase(id);
  pending_.erase(it);
}

// --- EncFs hook overrides. ---------------------------------------------------------

Result<Bytes> KeypadFs::ProvisionNewFile(const std::string& path,
                                         const DirId& dir_id,
                                         FileHeader* header) {
  if (!Covered(path)) {
    ++stats_.uncovered_ops;
    return EncFs::ProvisionNewFile(path, dir_id, header);
  }
  AuditId id = AuditId::Random(rng());
  Bytes kd = rng().NextBytes(32);
  header->audit_id = id;
  header->keypad_protected = true;
  std::string name = PathBasename(path);

  if (!config_.ibe_enabled) {
    // Creation barrier (§3.1): both registrations must be acknowledged
    // before the create returns. The two requests overlap.
    ++stats_.creates_blocking;
    ++stats_.metadata_blocking;
    struct Barrier {
      bool key_done = false;
      bool meta_done = false;
      Result<Bytes> kr = Status(StatusCode::kUnavailable, "pending");
      Status meta_status;
    };
    auto barrier = std::make_shared<Barrier>();
    services_.key->CreateKeyAsync(id, [barrier](Result<Bytes> result) {
      barrier->kr = std::move(result);
      barrier->key_done = true;
    });
    services_.meta->BindFileAsync(
        id, dir_id, name, /*is_rename=*/false,
        [barrier](Result<Bytes> result) {
          barrier->meta_status = result.status();
          barrier->meta_done = true;
        });
    queue()->RunUntilFlag(&barrier->key_done);
    queue()->RunUntilFlag(&barrier->meta_done);
    if (!barrier->kr.ok()) {
      return barrier->kr.status();
    }
    KP_RETURN_IF_ERROR(barrier->meta_status);
    header->key_blob = WrapKey(*barrier->kr, kd, rng());
    CacheInsert(id, *barrier->kr);
    return kd;
  }

  // IBE mode (§3.4): lock the data key under the pathname identity; both
  // registrations proceed asynchronously; a 1 s grace key keeps the new
  // file usable meanwhile.
  std::string identity = IbeIdentityFor(dir_id, name, id);
  header->ibe_locked = true;
  KP_ASSIGN_OR_RETURN(header->key_blob,
                      IbeLockBlob(identity, Tagged(kTagRawKd, kd)));
  GraceInsert(id, kd);

  PendingCreate pending;
  pending.current_path = path;
  pending.dir_id = dir_id;
  pending.name = name;
  pending.kd = kd;
  pending.key_retries_left = config_.registration_retries;
  pending.meta_retries_left = config_.registration_retries;
  pending_[id] = std::move(pending);
  lock_paths_[id] = path;
  SendPendingKeyCreate(id);
  SendPendingMetaBind(id);
  return kd;
}

Result<Bytes> KeypadFs::UnlockDataKey(const std::string& path,
                                      const DirId& dir_id, FileHeader* header,
                                      bool* header_dirty) {
  if (!header->keypad_protected) {
    ++stats_.uncovered_ops;
    return EncFs::UnlockDataKey(path, dir_id, header, header_dirty);
  }
  const AuditId& id = header->audit_id;

  if (header->ibe_locked) {
    if (auto kd = GraceLookup(id)) {
      Charge(config_.costs.cache_hit);
      ++stats_.grace_hits;
      return *kd;
    }
    return BlockingUnlock(id, dir_id, PathBasename(path), header,
                          header_dirty);
  }

  // Feed the v2 successor table with the true access order — hits
  // included, since a learned transition must predict the *next* open, not
  // the next miss.
  prefetcher_.OnAccess(id);

  if (auto kr = cache_.Lookup(id)) {
    Charge(config_.costs.cache_hit);
    ++stats_.cache_hits;
    return UnwrapKey(*kr, header->key_blob);
  }
  KP_ASSIGN_OR_RETURN(Bytes kr, FetchRemoteKey(id, PathDirname(path)));
  return UnwrapKey(kr, header->key_blob);
}

Status KeypadFs::OnRenameFile(const std::string& from, const std::string& to,
                              const DirId& old_dir_id,
                              const DirId& new_dir_id,
                              const std::string& new_name, FileHeader* header,
                              bool* header_dirty) {
  if (!header->keypad_protected) {
    // Uncovered files have no remote bindings to update. Note: renaming an
    // uncovered file *into* a covered path does not retroactively protect
    // it; coverage is decided at creation (§3.6 discusses this risk).
    return Status::Ok();
  }
  const AuditId& id = header->audit_id;

  if (!config_.ibe_enabled) {
    ++stats_.metadata_blocking;
    auto result = services_.meta->BindFile(id, new_dir_id, new_name,
                                           /*is_rename=*/true);
    return result.status();
  }

  // IBE path (Fig. 3b): lock under the new identity, ship the binding
  // asynchronously, keep a 1 s grace key if the data key is available.
  Bytes tagged;
  auto pending_it = pending_.find(id);
  if (header->ibe_locked) {
    if (pending_it != pending_.end()) {
      tagged = Tagged(kTagRawKd, pending_it->second.kd);
    } else {
      // Locked with no in-memory state (e.g. remount): register the old
      // binding to unlock first, then re-lock below.
      bool dirty = false;
      KP_ASSIGN_OR_RETURN(
          Bytes kd, BlockingUnlock(id, old_dir_id, PathBasename(from), header,
                                   &dirty));
      (void)kd;
      if (header->ibe_locked) {
        // Creation lock whose remote key never materialized: keep K_D form.
        tagged = Tagged(kTagRawKd, kd);
      } else {
        tagged = Tagged(kTagWrapped, header->key_blob);
      }
    }
  } else {
    tagged = Tagged(kTagWrapped, header->key_blob);
    // Grace: the paper keeps reads/writes flowing while the registration is
    // in flight *if* the cleartext data key is cached; we can rebuild K_D
    // when K_R is cached.
    if (auto kr = cache_.Lookup(id)) {
      auto kd = UnwrapKey(*kr, header->key_blob);
      if (kd.ok()) {
        GraceInsert(id, *kd);
      }
    }
  }
  if (pending_it != pending_.end()) {
    GraceInsert(id, pending_it->second.kd);
    pending_it->second.current_path = to;
    pending_it->second.dir_id = new_dir_id;
    pending_it->second.name = new_name;
    pending_it->second.meta_done = false;
    pending_it->second.meta_retries_left = config_.registration_retries;
  }

  std::string identity = IbeIdentityFor(new_dir_id, new_name, id);
  KP_ASSIGN_OR_RETURN(header->key_blob, IbeLockBlob(identity, tagged));
  header->ibe_locked = true;
  *header_dirty = true;
  SecureZero(tagged);
  lock_paths_[id] = to;

  if (pending_it != pending_.end()) {
    // The pending machinery re-binds and completes.
    SendPendingMetaBind(id);
    return Status::Ok();
  }
  ++stats_.metadata_async;
  services_.meta->BindFileAsync(
      id, new_dir_id, new_name, /*is_rename=*/true,
      [this, id, identity](Result<Bytes> result) {
        if (!result.ok()) {
          return;  // The file stays locked; a blocking access recovers.
        }
        BackgroundUnlock(id, identity, *result);
      });
  return Status::Ok();
}

Status KeypadFs::OnMkdir(const std::string& /*path*/, const DirId& dir_id,
                         const DirId& parent_id, const std::string& name) {
  // Directory registrations are always blocking in the prototype (Fig. 6b:
  // mkdir gains nothing from IBE).
  ++stats_.metadata_blocking;
  return services_.meta->Mkdir(dir_id, parent_id, name);
}

Status KeypadFs::OnRenameDir(const DirId& dir_id, const DirId& new_parent_id,
                             const std::string& new_name) {
  ++stats_.metadata_blocking;
  return services_.meta->RenameDir(dir_id, new_parent_id, new_name);
}

Status KeypadFs::OnUnlink(const std::string& /*path*/,
                          const FileHeader& header) {
  if (header.keypad_protected) {
    const AuditId& id = header.audit_id;
    GraceErase(id);
    cache_.Erase(id);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      SecureZero(it->second.kd);
      pending_.erase(it);
    }
    lock_paths_.erase(id);
    if (config_.destroy_keys_on_unlink) {
      // Assured delete (§7's Ephemerizer/Vanish lineage): without the
      // remote key, any surviving copy of the ciphertext is noise.
      services_.key->DestroyKeyAsync(id, [](Status) {
        // Best-effort; the local unlink proceeds regardless.
      });
    }
  }
  return Status::Ok();
}

}  // namespace keypad
