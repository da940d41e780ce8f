#include "src/keypad/paired_device.h"

#include "src/keyservice/auth.h"
#include "src/keyservice/key_service.h"
#include "src/metaservice/metadata_log.h"

namespace keypad {

namespace {
// The phone's CPU per forwarded or hoard-served request.
constexpr SimDuration kPhoneServiceTime = SimDuration::Micros(200);

// Ids off the Bluetooth link are untrusted: a wrong-length id is refused
// with InvalidArgument, never dereferenced.
template <typename Id>
Result<Id> IdArg(const WireValue& value) {
  KP_ASSIGN_OR_RETURN(Bytes bytes, value.AsBytes());
  return Id::FromBytes(bytes);
}
}  // namespace

PhoneProxy::PhoneProxy(EventQueue* queue, NetworkLink* uplink,
                       KeyServiceClient* key_upstream,
                       MetadataServiceClient* meta_upstream,
                       std::string device_id, Bytes key_secret,
                       Bytes meta_secret)
    : queue_(queue),
      uplink_(uplink),
      key_upstream_(key_upstream),
      meta_upstream_(meta_upstream),
      device_id_(std::move(device_id)),
      key_secret_(std::move(key_secret)),
      meta_secret_(std::move(meta_secret)),
      server_(queue, kPhoneServiceTime),
      hoard_(queue, kHoardTtl),
      local_rng_(uint64_t{0x9A13ED0C0FFEEull}) {
  BindHandlers();
}

void PhoneProxy::SetUplinkConnected(bool connected) {
  if (connected && !online_) {
    uplink_->set_disconnected(false);
    online_ = true;
    FlushJournals();
  } else if (!connected) {
    uplink_->set_disconnected(true);
    online_ = false;
  }
}

void PhoneProxy::JournalKeyAccess(const AuditId& id, AccessOp op) {
  KeyServiceClient::JournalEntry entry;
  entry.audit_id = id;
  entry.op = static_cast<int64_t>(op);
  entry.client_time = queue_->Now();
  key_journal_.push_back(std::move(entry));
  if (online_) {
    // Upload promptly so the service log stays current while connected —
    // asynchronously, off everyone's critical path.
    auto batch = std::move(key_journal_);
    key_journal_.clear();
    key_upstream_->UploadJournalAsync(batch, [this, batch](Status status) {
      if (status.ok()) {
        stats_.journal_entries_uploaded += batch.size();
      } else {
        key_journal_.insert(key_journal_.end(), batch.begin(), batch.end());
      }
    });
  }
}

void PhoneProxy::FlushJournals() {
  if (!key_journal_.empty()) {
    if (key_upstream_->UploadJournal(key_journal_).ok()) {
      stats_.journal_entries_uploaded += key_journal_.size();
      key_journal_.clear();
    }
  }
  if (!meta_journal_.empty()) {
    if (meta_upstream_->UploadJournal(meta_journal_).ok()) {
      stats_.journal_entries_uploaded += meta_journal_.size();
      meta_journal_.clear();
    }
  }
}

void PhoneProxy::BindHandlers() {
  using Responder = RpcServer::Responder;

  // Frame checking shared by every handler.
  auto authed = [this](const std::string& method, const Bytes& secret,
                       auto fn) -> RpcServer::AsyncHandler {
    return [this, method, secret, fn](const WireValue::Array& params,
                                      Responder respond) {
      auto call = SplitAuthedCall(params);
      if (!call.ok()) {
        respond(call.status());
        return;
      }
      if (call->device_id != device_id_) {
        respond(PermissionDeniedError("phone: not my paired device"));
        return;
      }
      Status auth = VerifyAuthTag(secret, method, *call);
      if (!auth.ok()) {
        respond(auth);
        return;
      }
      fn(call->payload, std::move(respond));
    };
  };

  server_.RegisterAsyncMethod(
      "key.get",
      authed("key.get", key_secret_,
             [this](const WireValue::Array& payload, Responder respond) {
               if (payload.size() != 2) {
                 respond(InvalidArgumentError("key.get: bad arity"));
                 return;
               }
               auto id = IdArg<AuditId>(payload[0]);
               auto op_int = payload[1].AsInt();
               if (!id.ok() || !op_int.ok()) {
                 respond(InvalidArgumentError("key.get: bad args"));
                 return;
               }
               AccessOp op = static_cast<AccessOp>(*op_int);

               if (auto key = hoard_.Lookup(*id)) {
                 ++stats_.served_from_hoard;
                 JournalKeyAccess(*id, op);
                 respond(WireValue(*key));
                 return;
               }
               if (!online_) {
                 respond(UnavailableError("phone: offline, key not hoarded"));
                 return;
               }
               ++stats_.forwarded_upstream;
               key_upstream_->GetKeyAsync(
                   *id, op,
                   [this, id = *id, respond = std::move(respond)](
                       Result<Bytes> result) {
                     if (!result.ok()) {
                       respond(result.status());
                       return;
                     }
                     hoard_.Insert(id, *result);
                     respond(WireValue(std::move(*result)));
                   });
             }));

  server_.RegisterAsyncMethod(
      "key.create",
      authed("key.create", key_secret_,
             [this](const WireValue::Array& payload, Responder respond) {
               if (payload.size() != 1) {
                 respond(InvalidArgumentError("key.create: bad arity"));
                 return;
               }
               auto id = IdArg<AuditId>(payload[0]);
               if (!id.ok()) {
                 respond(id.status());
                 return;
               }
               if (online_) {
                 ++stats_.forwarded_upstream;
                 key_upstream_->CreateKeyAsync(
                     *id, [this, id = *id, respond = std::move(respond)](
                              Result<Bytes> result) {
                       if (!result.ok()) {
                         respond(result.status());
                         return;
                       }
                       hoard_.Insert(id, *result);
                       respond(WireValue(std::move(*result)));
                     });
                 return;
               }
               // Disconnected create: the phone mints the remote key as a
               // trusted service extension and journals it for upload.
               ++stats_.offline_creates;
               Bytes key = local_rng_.NextBytes(KeyService::kRemoteKeyLen);
               hoard_.Insert(*id, key);
               KeyServiceClient::JournalEntry entry;
               entry.audit_id = *id;
               entry.op = static_cast<int64_t>(AccessOp::kCreate);
               entry.client_time = queue_->Now();
               entry.key = key;
               key_journal_.push_back(std::move(entry));
               respond(WireValue(std::move(key)));
             }));

  // Hoarded items are served from the hoard and journaled, each with its
  // own op; the rest go upstream as one typed call. The reply is the
  // service's own positional frame (DESIGN.md §26).
  server_.RegisterAsyncMethod(
      "key.get_multi",
      authed("key.get_multi", key_secret_,
             [this](const WireValue::Array& payload, Responder respond) {
               auto items = DecodeMultiGetRequest(payload);
               if (!items.ok()) {
                 respond(items.status());
                 return;
               }
               auto released = std::make_shared<std::vector<Result<Bytes>>>();
               std::vector<size_t> slots;  // Forwarded items' positions.
               std::vector<KeyClient::MultiGetItem> upstream;
               for (const auto& item : *items) {
                 if (auto key = hoard_.Lookup(item.audit_id)) {
                   ++stats_.served_from_hoard;
                   JournalKeyAccess(item.audit_id, item.op);
                   released->push_back(*key);
                   continue;
                 }
                 slots.push_back(released->size());
                 upstream.push_back(item);
                 released->push_back(
                     UnavailableError("phone: offline, key not hoarded"));
               }
               if (upstream.empty() || !online_) {
                 respond(EncodeMultiGetReply(std::move(*released)));
                 return;
               }
               ++stats_.forwarded_upstream;
               key_upstream_->GetKeysTypedAsync(
                   upstream,
                   [this, released, slots, upstream, respond = std::move(
                                                          respond)](
                       Result<KeyClient::MultiGetResult> result) {
                     // A failed upstream call fails the whole request
                     // unless the hoard served part of it.
                     if (!result.ok() && slots.size() == released->size()) {
                       respond(result.status());
                       return;
                     }
                     std::vector<Result<Bytes>> fetched =
                         result.ok() ? KeyClient::InRequestOrder(
                                           upstream, std::move(*result))
                                     : std::vector<Result<Bytes>>(
                                           upstream.size(), result.status());
                     for (size_t i = 0; i < upstream.size(); ++i) {
                       if (fetched[i].ok()) {
                         hoard_.Insert(upstream[i].audit_id, *fetched[i]);
                       }
                       (*released)[slots[i]] = std::move(fetched[i]);
                     }
                     respond(EncodeMultiGetReply(std::move(*released)));
                   });
             }));

  server_.RegisterAsyncMethod(
      "key.evict",
      authed("key.evict", key_secret_,
             [this](const WireValue::Array& payload, Responder respond) {
               if (payload.size() != 1) {
                 respond(InvalidArgumentError("key.evict: bad arity"));
                 return;
               }
               auto id = IdArg<AuditId>(payload[0]);
               if (!id.ok()) {
                 respond(id.status());
                 return;
               }
               JournalKeyAccess(*id, AccessOp::kEviction);
               respond(WireValue(true));
             }));

  server_.RegisterAsyncMethod(
      "meta.register_root",
      authed("meta.register_root", meta_secret_,
             [this](const WireValue::Array& payload, Responder respond) {
               if (payload.size() != 1) {
                 respond(
                     InvalidArgumentError("meta.register_root: bad arity"));
                 return;
               }
               auto id = IdArg<DirId>(payload[0]);
               if (!id.ok()) {
                 respond(id.status());
                 return;
               }
               if (!online_) {
                 respond(UnavailableError(
                     "phone: offline (format requires connectivity)"));
                 return;
               }
               // Once-per-volume: the blocking forward is acceptable here.
               Status status = meta_upstream_->RegisterRoot(*id);
               if (!status.ok()) {
                 respond(status);
               } else {
                 respond(WireValue(true));
               }
             }));

  server_.RegisterAsyncMethod(
      "meta.bind_file",
      authed("meta.bind_file", meta_secret_,
             [this](const WireValue::Array& payload, Responder respond) {
               if (payload.size() != 4) {
                 respond(InvalidArgumentError("meta.bind_file: bad arity"));
                 return;
               }
               auto aid = IdArg<AuditId>(payload[0]);
               auto did = IdArg<DirId>(payload[1]);
               auto name = payload[2].AsString();
               auto is_rename = payload[3].AsBool();
               if (!aid.ok() || !did.ok() || !name.ok() || !is_rename.ok()) {
                 respond(InvalidArgumentError("meta.bind_file: bad args"));
                 return;
               }
               if (online_) {
                 ++stats_.forwarded_upstream;
                 meta_upstream_->BindFileAsync(
                     *aid, *did, *name, *is_rename,
                     [respond = std::move(respond)](Result<Bytes> result) {
                       if (!result.ok()) {
                         respond(result.status());
                       } else {
                         respond(WireValue(std::move(*result)));
                       }
                     });
                 return;
               }
               // Offline: journal the binding. No IBE key can be produced
               // (the PKG master secret never leaves the service), so the
               // caller receives an empty key: non-IBE paths proceed,
               // IBE-locked files stay sealed until reconnection.
               MetadataServiceClient::JournalRecord record;
               record.op = static_cast<int64_t>(*is_rename
                                                    ? MetadataOp::kRenameFile
                                                    : MetadataOp::kCreateFile);
               record.audit_id = *aid;
               record.dir_id = *did;
               record.name = *name;
               record.client_time = queue_->Now();
               meta_journal_.push_back(std::move(record));
               respond(WireValue(Bytes{}));
             }));

  auto dir_op = [this](MetadataOp op) {
    return [this, op](const WireValue::Array& payload,
                      Responder respond) {
      if (payload.size() != 3) {
        respond(InvalidArgumentError("meta dir op: bad arity"));
        return;
      }
      auto did = IdArg<DirId>(payload[0]);
      auto pid = IdArg<DirId>(payload[1]);
      auto name = payload[2].AsString();
      if (!did.ok() || !pid.ok() || !name.ok()) {
        respond(InvalidArgumentError("meta dir op: bad args"));
        return;
      }
      if (online_) {
        ++stats_.forwarded_upstream;
        auto done = [respond = std::move(respond)](Status status) {
          if (!status.ok()) {
            respond(status);
          } else {
            respond(WireValue(true));
          }
        };
        if (op == MetadataOp::kMkdir) {
          meta_upstream_->MkdirAsync(*did, *pid, *name, std::move(done));
        } else {
          meta_upstream_->RenameDirAsync(*did, *pid, *name, std::move(done));
        }
        return;
      }
      MetadataServiceClient::JournalRecord record;
      record.op = static_cast<int64_t>(op);
      record.dir_id = *did;
      record.parent_dir_id = *pid;
      record.name = *name;
      record.client_time = queue_->Now();
      meta_journal_.push_back(std::move(record));
      respond(WireValue(true));
    };
  };
  server_.RegisterAsyncMethod(
      "meta.mkdir", authed("meta.mkdir", meta_secret_,
                           dir_op(MetadataOp::kMkdir)));
  server_.RegisterAsyncMethod(
      "meta.rename_dir", authed("meta.rename_dir", meta_secret_,
                                dir_op(MetadataOp::kRenameDir)));
}

}  // namespace keypad
