#include "src/keypad/paired_device.h"

#include <utility>

#include "src/keyservice/auth.h"
#include "src/keyservice/key_service.h"
#include "src/metaservice/metadata_log.h"

namespace keypad {

namespace {
// The phone's CPU per forwarded or hoard-served request.
constexpr SimDuration kPhoneServiceTime = SimDuration::Micros(200);
}  // namespace

PhoneProxy::PhoneProxy(EventQueue* queue, NetworkLink* uplink,
                       KeyClient* key_upstream,
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

void PhoneProxy::JournalKeyAccess(const AuditId& id, AccessOp op, Bytes key) {
  key_journal_.push_back({id, op, queue_->Now(), std::move(key)});
}

void PhoneProxy::UploadKeyJournal() {
  if (!online_ || key_journal_.empty()) {
    return;
  }
  // Upload promptly so the service log stays current while connected —
  // asynchronously, off everyone's critical path.
  auto batch = std::exchange(key_journal_, {});
  key_upstream_->SealJournalAsync(
      batch, [this, sent = batch.size()](KeyClient::JournalOutcome outcome) {
        KeepUnsealed(sent, std::move(outcome));
      });
}

void PhoneProxy::KeepUnsealed(size_t sent, KeyClient::JournalOutcome outcome) {
  stats_.journal_entries_uploaded += sent - outcome.unsealed.size();
  key_journal_.insert(key_journal_.begin(),
                      std::make_move_iterator(outcome.unsealed.begin()),
                      std::make_move_iterator(outcome.unsealed.end()));
}

void PhoneProxy::FlushJournals() {
  // Each journal leaves the phone before the upload is awaited: requests
  // the laptop makes meanwhile journal behind it and are never dropped.
  if (!key_journal_.empty()) {
    auto batch = std::exchange(key_journal_, {});
    KeepUnsealed(batch.size(),
                 queue_->Await<KeyClient::JournalOutcome>([&](auto done) {
                   key_upstream_->SealJournalAsync(batch, std::move(done));
                 }));
  }
  if (!meta_journal_.empty()) {
    auto batch = std::exchange(meta_journal_, {});
    if (meta_upstream_->UploadJournal(batch).ok()) {
      stats_.journal_entries_uploaded += batch.size();
    } else {
      meta_journal_.insert(meta_journal_.begin(), batch.begin(), batch.end());
    }
  }
}

void PhoneProxy::BindHandlers() {
  using Responder = RpcServer::Responder;
  using Payload = WireValue::Array;

  // Frame and arity checking shared by every handler (a negative `arity`
  // leaves the payload's shape to the handler).
  auto bind = [this](const std::string& method, const Bytes& secret,
                     int arity, auto fn) {
    server_.RegisterAsyncMethod(method, [this, method, secret, arity, fn](
                                            const Payload& params,
                                            Responder respond) {
      auto call = SplitAuthedCall(params);
      Status status = call.status();
      if (status.ok() && call->device_id != device_id_) {
        status = PermissionDeniedError("phone: not my paired device");
      } else if (status.ok()) {
        status = VerifyAuthTag(secret, method, *call);
      }
      if (status.ok() && arity >= 0 &&
          call->payload.size() != static_cast<size_t>(arity)) {
        status = InvalidArgumentError(method + ": bad arity");
      }
      if (!status.ok()) {
        respond(status);
        return;
      }
      fn(call->payload, std::move(respond));
    });
  };
  // An upstream key is hoarded on its way to the laptop.
  auto hoard_and_reply = [this](const AuditId& id, Responder respond) {
    return [this, id, respond = std::move(respond)](Result<Bytes> result) {
      if (!result.ok()) {
        respond(result.status());
        return;
      }
      hoard_.Insert(id, *result);
      respond(WireValue(std::move(*result)));
    };
  };
  auto reply_done = [](Responder respond) {
    return [respond = std::move(respond)](Status status) {
      status.ok() ? respond(WireValue(true)) : respond(status);
    };
  };

  bind("key.get", key_secret_, 2,
       [this, hoard_and_reply](const Payload& payload, Responder respond) {
         auto id = IdArg<AuditId>(payload[0]);
         auto op_int = payload[1].AsInt();
         if (!id.ok() || !op_int.ok()) {
           respond(InvalidArgumentError("key.get: bad args"));
           return;
         }
         auto op = DecodeAccessOp(*op_int, OpSource::kFetch);
         if (!op.ok()) {
           respond(op.status());
           return;
         }
         if (auto key = hoard_.Lookup(*id)) {
           ++stats_.served_from_hoard;
           JournalKeyAccess(*id, *op);
           UploadKeyJournal();
           respond(WireValue(*key));
           return;
         }
         if (!online_) {
           respond(UnavailableError("phone: offline, key not hoarded"));
           return;
         }
         ++stats_.forwarded_upstream;
         key_upstream_->GetKeyAsync(*id, *op,
                                    hoard_and_reply(*id, std::move(respond)));
       });

  bind("key.create", key_secret_, 1,
       [this, hoard_and_reply](const Payload& payload, Responder respond) {
         auto id = IdArg<AuditId>(payload[0]);
         if (!id.ok()) {
           respond(id.status());
           return;
         }
         if (online_) {
           ++stats_.forwarded_upstream;
           key_upstream_->CreateKeyAsync(
               *id, hoard_and_reply(*id, std::move(respond)));
           return;
         }
         // Disconnected create: the phone mints the remote key as a
         // trusted service extension and journals it for upload.
         ++stats_.offline_creates;
         Bytes key = local_rng_.NextBytes(KeyService::kRemoteKeyLen);
         hoard_.Insert(*id, key);
         JournalKeyAccess(*id, AccessOp::kCreate, key);
         respond(WireValue(std::move(key)));
       });

  // Hoarded items are served from the hoard and journaled, each with its
  // own op, in one upload; the rest go upstream as one typed call. The
  // reply is the service's own positional frame (DESIGN.md §26).
  bind("key.get_multi", key_secret_, -1,
       [this](const Payload& payload, Responder respond) {
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
         UploadKeyJournal();
         if (upstream.empty() || !online_) {
           respond(EncodeMultiGetReply(std::move(*released)));
           return;
         }
         ++stats_.forwarded_upstream;
         key_upstream_->GetKeysTypedAsync(
             upstream, [this, released, slots, upstream,
                        respond = std::move(respond)](
                           Result<KeyClient::MultiGetResult> result) {
               // A failed upstream call fails the whole request unless the
               // hoard served part of it.
               if (!result.ok() && slots.size() == released->size()) {
                 respond(result.status());
                 return;
               }
               std::vector<Result<Bytes>> fetched =
                   result.ok() ? KeyClient::InRequestOrder(upstream,
                                                           std::move(*result))
                               : std::vector<Result<Bytes>>(upstream.size(),
                                                            result.status());
               for (size_t i = 0; i < upstream.size(); ++i) {
                 if (fetched[i].ok()) {
                   hoard_.Insert(upstream[i].audit_id, *fetched[i]);
                 }
                 (*released)[slots[i]] = std::move(fetched[i]);
               }
               respond(EncodeMultiGetReply(std::move(*released)));
             });
       });

  bind("key.evict", key_secret_, 1,
       [this](const Payload& payload, Responder respond) {
         auto id = IdArg<AuditId>(payload[0]);
         if (!id.ok()) {
           respond(id.status());
           return;
         }
         JournalKeyAccess(*id, AccessOp::kEviction);
         UploadKeyJournal();
         respond(WireValue(true));
       });

  bind("meta.register_root", meta_secret_, 1,
       [this, reply_done](const Payload& payload, Responder respond) {
         auto id = IdArg<DirId>(payload[0]);
         if (!id.ok()) {
           respond(id.status());
           return;
         }
         if (!online_) {
           respond(
               UnavailableError("phone: offline (format requires connectivity)"));
           return;
         }
         // Once-per-volume: the blocking forward is acceptable here.
         reply_done(std::move(respond))(meta_upstream_->RegisterRoot(*id));
       });

  bind("meta.bind_file", meta_secret_, 4,
       [this](const Payload& payload, Responder respond) {
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
                 result.ok() ? respond(WireValue(std::move(*result)))
                             : respond(result.status());
               });
           return;
         }
         // Offline: journal the binding. No IBE key can be produced (the
         // PKG master secret never leaves the service), so the caller
         // receives an empty key: non-IBE paths proceed, IBE-locked files
         // stay sealed until reconnection.
         MetadataServiceClient::JournalRecord record;
         record.op =
             *is_rename ? MetadataOp::kRenameFile : MetadataOp::kCreateFile;
         record.audit_id = *aid;
         record.dir_id = *did;
         record.name = *name;
         record.client_time = queue_->Now();
         meta_journal_.push_back(std::move(record));
         respond(WireValue(Bytes{}));
       });

  for (MetadataOp op : {MetadataOp::kMkdir, MetadataOp::kRenameDir}) {
    const bool mkdir = op == MetadataOp::kMkdir;
    bind(mkdir ? "meta.mkdir" : "meta.rename_dir", meta_secret_, 3,
         [this, op, mkdir, reply_done](const Payload& payload,
                                       Responder respond) {
           auto did = IdArg<DirId>(payload[0]);
           auto pid = IdArg<DirId>(payload[1]);
           auto name = payload[2].AsString();
           if (!did.ok() || !pid.ok() || !name.ok()) {
             respond(InvalidArgumentError("meta dir op: bad args"));
             return;
           }
           if (online_) {
             ++stats_.forwarded_upstream;
             auto done = reply_done(std::move(respond));
             if (mkdir) {
               meta_upstream_->MkdirAsync(*did, *pid, *name, std::move(done));
             } else {
               meta_upstream_->RenameDirAsync(*did, *pid, *name,
                                              std::move(done));
             }
             return;
           }
           MetadataServiceClient::JournalRecord record;
           record.op = op;
           record.dir_id = *did;
           record.parent_dir_id = *pid;
           record.name = *name;
           record.client_time = queue_->Now();
           meta_journal_.push_back(std::move(record));
           respond(WireValue(true));
         });
  }
}

}  // namespace keypad
