#include "src/keypad/paired_device.h"

#include <iterator>
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
    Flush(key_journal_, /*await=*/true);
    Flush(meta_journal_, /*await=*/true);
  } else if (!connected) {
    uplink_->set_disconnected(true);
    online_ = false;
  }
}

void PhoneProxy::JournalMetaOp(MetadataOp op, const AuditId& audit_id,
                               const DirId& dir_id, const DirId& parent_dir_id,
                               const std::string& name) {
  MetadataRecord record;
  record.op = op;
  record.audit_id = audit_id;
  record.dir_id = dir_id;
  record.parent_dir_id = parent_dir_id;
  record.name = name;
  record.client_time = queue_->Now();
  meta_journal_.push_back(std::move(record));
}

template <typename Entry>
void PhoneProxy::Flush(std::vector<Entry>& journal, bool await) {
  if (!online_ || journal.empty()) {
    return;
  }
  auto batch = std::exchange(journal, {});
  auto keep = [this, &journal, sent = batch.size()](
                  std::vector<Entry> unsealed) {
    stats_.journal_entries_uploaded += sent - unsealed.size();
    journal.insert(journal.begin(), std::make_move_iterator(unsealed.begin()),
                   std::make_move_iterator(unsealed.end()));
  };
  if (await) {
    keep(queue_->Await<std::vector<Entry>>(
        [&](auto done) { Upload(batch, std::move(done)); }));
  } else {
    Upload(batch, std::move(keep));
  }
}

void PhoneProxy::Upload(const std::vector<KeyClient::JournalEntry>& batch,
                        Unsealed<KeyClient::JournalEntry> unsealed) {
  key_upstream_->SealJournalAsync(
      batch, [unsealed = std::move(unsealed)](
                 KeyClient::JournalOutcome outcome) {
        unsealed(std::move(outcome.unsealed));
      });
}

void PhoneProxy::Upload(const std::vector<MetadataRecord>& batch,
                        Unsealed<MetadataRecord> unsealed) {
  unsealed(meta_upstream_->UploadJournal(batch).ok()
               ? std::vector<MetadataRecord>()
               : batch);
}

void PhoneProxy::BindHandlers() {
  using Responder = RpcServer::Responder;
  using Payload = WireValue::Array;

  // The services' own frame, tag and arity check; the phone serves its
  // paired device only.
  auto bind = [this](const std::string& method, const Bytes* secret,
                     size_t arity, auto fn) {
    server_.RegisterAsyncMethod(method, [this, method, secret, arity, fn](
                                            const Payload& params,
                                            Responder respond) {
      auto call = CheckAuthedCall(
          params, method, arity,
          [this, secret](const std::string& device_id)
              -> Result<const Bytes*> {
            if (device_id != device_id_) {
              return PermissionDeniedError("phone: not my paired device");
            }
            return secret;
          });
      if (!call.ok()) {
        respond(call.status());
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

  bind("key.get", &key_secret_, 2,
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
           key_journal_.push_back({*id, *op, queue_->Now(), {}});
           Flush(key_journal_, /*await=*/false);
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

  bind("key.create", &key_secret_, 1,
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
         key_journal_.push_back({*id, AccessOp::kCreate, queue_->Now(), key});
         respond(WireValue(std::move(key)));
       });

  // Hoarded items are served from the hoard and journaled, each with its
  // own op, in one upload; the rest go upstream as one typed call. The
  // reply is the service's own positional frame (DESIGN.md §26).
  bind("key.get_multi", &key_secret_, 2,
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
             key_journal_.push_back(
                 {item.audit_id, item.op, queue_->Now(), {}});
             released->push_back(*key);
             continue;
           }
           slots.push_back(released->size());
           upstream.push_back(item);
           released->push_back(
               UnavailableError("phone: offline, key not hoarded"));
         }
         Flush(key_journal_, /*await=*/false);
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

  bind("key.evict", &key_secret_, 1,
       [this](const Payload& payload, Responder respond) {
         auto id = IdArg<AuditId>(payload[0]);
         if (!id.ok()) {
           respond(id.status());
           return;
         }
         key_journal_.push_back({*id, AccessOp::kEviction, queue_->Now(), {}});
         Flush(key_journal_, /*await=*/false);
         respond(WireValue(true));
       });

  bind("meta.register_root", &meta_secret_, 1,
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

  bind("meta.bind_file", &meta_secret_, 4,
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
         JournalMetaOp(
             *is_rename ? MetadataOp::kRenameFile : MetadataOp::kCreateFile,
             *aid, *did, DirId(), *name);
         respond(WireValue(Bytes{}));
       });

  for (MetadataOp op : {MetadataOp::kMkdir, MetadataOp::kRenameDir}) {
    const bool mkdir = op == MetadataOp::kMkdir;
    bind(mkdir ? "meta.mkdir" : "meta.rename_dir", &meta_secret_, 3,
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
           JournalMetaOp(op, AuditId(), *did, *pid, *name);
           respond(WireValue(true));
         });
  }
}

}  // namespace keypad
