#include "src/keyservice/key_service_client.h"

#include <utility>

#include "src/keyservice/auth.h"

namespace keypad {

ReplicaRouter::Framer KeyServiceClient::MakeFramer() const {
  // Captures copies so the framer stays valid however the stub is stored.
  return [device_id = device_id_, device_secret = device_secret_](
             const std::string& method, WireValue::Array payload) {
    return FrameAuthedCall(device_id, device_secret, method,
                           std::move(payload));
  };
}

// Every blocking method below is its async twin awaited (DESIGN.md §22),
// so each call's marshalling and parse exist once.
Result<Bytes> KeyServiceClient::CreateKey(const AuditId& audit_id) {
  return rpc()->queue()->Await<Result<Bytes>>(
      [&](auto done) { CreateKeyAsync(audit_id, std::move(done)); });
}

void KeyServiceClient::CreateKeyAsync(
    const AuditId& audit_id, std::function<void(Result<Bytes>)> done) {
  WireValue::Array payload;
  payload.push_back(WireValue(audit_id.ToBytes()));
  router_.CallAsync("key.create", std::move(payload),
                    ThenParse(std::move(done), &WireValue::AsBytes));
}

namespace {
// Single-key fetches carry their access op's priority class on the wire:
// speculative prefetch is sheddable, everything else blocks a user.
CallContext ContextForOp(AccessOp op) {
  CallContext ctx;
  ctx.priority = op == AccessOp::kPrefetch ? RpcPriority::kPrefetch
                                           : RpcPriority::kDemand;
  return ctx;
}
}  // namespace

Result<Bytes> KeyServiceClient::GetKey(const AuditId& audit_id, AccessOp op) {
  return rpc()->queue()->Await<Result<Bytes>>(
      [&](auto done) { GetKeyAsync(audit_id, op, std::move(done)); });
}

void KeyServiceClient::GetKeyAsync(const AuditId& audit_id, AccessOp op,
                                   std::function<void(Result<Bytes>)> done) {
  WireValue::Array payload;
  payload.push_back(WireValue(audit_id.ToBytes()));
  payload.push_back(WireValue(static_cast<int64_t>(op)));
  router_.CallAsync("key.get", std::move(payload), ContextForOp(op),
                    ThenParse(std::move(done), &WireValue::AsBytes));
}

namespace {
WireValue::Array KeyBatchPayload(const std::vector<AuditId>& audit_ids) {
  WireValue::Array ids;
  for (const auto& id : audit_ids) {
    ids.push_back(WireValue(id.ToBytes()));
  }
  WireValue::Array payload;
  payload.push_back(WireValue(std::move(ids)));
  return payload;
}

Result<std::vector<std::pair<AuditId, Bytes>>> ParseKeyPairs(
    const WireValue& result) {
  KP_ASSIGN_OR_RETURN(WireValue::Array entries, result.AsArray());
  std::vector<std::pair<AuditId, Bytes>> out;
  for (const auto& entry : entries) {
    KP_ASSIGN_OR_RETURN(WireValue id_value, entry.Field("id"));
    KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_value.AsBytes());
    KP_ASSIGN_OR_RETURN(AuditId id, AuditId::FromBytes(id_bytes));
    KP_ASSIGN_OR_RETURN(WireValue key_value, entry.Field("key"));
    KP_ASSIGN_OR_RETURN(Bytes key, key_value.AsBytes());
    out.emplace_back(id, std::move(key));
  }
  return out;
}
}  // namespace

Result<std::vector<std::pair<AuditId, Bytes>>> KeyServiceClient::GetKeys(
    const std::vector<AuditId>& audit_ids) {
  return rpc()->queue()->Await<Result<std::vector<std::pair<AuditId, Bytes>>>>(
      [&](auto done) { GetKeysAsync(audit_ids, std::move(done)); });
}

namespace {
WireValue::Array MultiGetPayload(
    const std::vector<KeyServiceClient::MultiGetItem>& items) {
  WireValue::Array raw;
  for (const auto& item : items) {
    WireValue::Struct e;
    e.emplace("id", WireValue(item.audit_id.ToBytes()));
    e.emplace("op", WireValue(static_cast<int64_t>(item.op)));
    raw.push_back(WireValue(std::move(e)));
  }
  WireValue::Array payload;
  payload.push_back(WireValue(std::move(raw)));
  return payload;
}

Result<KeyServiceClient::MultiGetResult> ParseMultiGet(
    const WireValue& result) {
  KeyServiceClient::MultiGetResult out;
  KP_ASSIGN_OR_RETURN(WireValue keys_v, result.Field("keys"));
  KP_ASSIGN_OR_RETURN(out.keys, ParseKeyPairs(keys_v));
  KP_ASSIGN_OR_RETURN(WireValue misses_v, result.Field("misses"));
  KP_ASSIGN_OR_RETURN(WireValue::Array misses, misses_v.AsArray());
  for (const auto& entry : misses) {
    KeyServiceClient::MultiGetMiss miss;
    KP_ASSIGN_OR_RETURN(WireValue id_value, entry.Field("id"));
    KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_value.AsBytes());
    KP_ASSIGN_OR_RETURN(miss.audit_id, AuditId::FromBytes(id_bytes));
    KP_ASSIGN_OR_RETURN(WireValue code_value, entry.Field("code"));
    KP_ASSIGN_OR_RETURN(int64_t code, code_value.AsInt());
    KP_ASSIGN_OR_RETURN(WireValue msg_value, entry.Field("msg"));
    KP_ASSIGN_OR_RETURN(std::string msg, msg_value.AsString());
    miss.status = Status(static_cast<StatusCode>(code), std::move(msg));
    out.misses.push_back(std::move(miss));
  }
  return out;
}
}  // namespace

Result<KeyServiceClient::MultiGetResult> KeyServiceClient::GetKeysTyped(
    const std::vector<MultiGetItem>& items) {
  return rpc()->queue()->Await<Result<MultiGetResult>>(
      [&](auto done) { GetKeysTypedAsync(items, std::move(done)); });
}

void KeyServiceClient::GetKeysTypedAsync(
    const std::vector<MultiGetItem>& items,
    std::function<void(Result<MultiGetResult>)> done) {
  GetKeysTypedAsync(items, CallContext{}, std::move(done));
}

void KeyServiceClient::GetKeysTypedAsync(
    const std::vector<MultiGetItem>& items, const CallContext& ctx,
    std::function<void(Result<MultiGetResult>)> done) {
  router_.CallAsync("key.get_multi", MultiGetPayload(items), ctx,
                    ThenParse(std::move(done), ParseMultiGet));
}

namespace {
Result<KeyServiceClient::GroupFetch> ParseGroupFetch(
    const WireValue& result) {
  KeyServiceClient::GroupFetch out;
  KP_ASSIGN_OR_RETURN(WireValue demand, result.Field("demand"));
  KP_ASSIGN_OR_RETURN(out.demand_key, demand.AsBytes());
  KP_ASSIGN_OR_RETURN(WireValue prefetched, result.Field("prefetched"));
  KP_ASSIGN_OR_RETURN(WireValue::Array entries, prefetched.AsArray());
  for (const auto& entry : entries) {
    KP_ASSIGN_OR_RETURN(WireValue id_value, entry.Field("id"));
    KP_ASSIGN_OR_RETURN(Bytes id_bytes, id_value.AsBytes());
    KP_ASSIGN_OR_RETURN(AuditId id, AuditId::FromBytes(id_bytes));
    KP_ASSIGN_OR_RETURN(WireValue key_value, entry.Field("key"));
    KP_ASSIGN_OR_RETURN(Bytes key, key_value.AsBytes());
    out.prefetched.emplace_back(id, std::move(key));
  }
  return out;
}

WireValue::Array GroupFetchPayload(const AuditId& demand_id,
                                   const std::vector<AuditId>& prefetch_ids) {
  WireValue::Array ids;
  for (const auto& id : prefetch_ids) {
    ids.push_back(WireValue(id.ToBytes()));
  }
  WireValue::Array payload;
  payload.push_back(WireValue(demand_id.ToBytes()));
  payload.push_back(WireValue(std::move(ids)));
  return payload;
}
}  // namespace

Result<KeyServiceClient::GroupFetch> KeyServiceClient::FetchGroup(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids) {
  return rpc()->queue()->Await<Result<GroupFetch>>([&](auto done) {
    FetchGroupAsync(demand_id, prefetch_ids, std::move(done));
  });
}

void KeyServiceClient::FetchGroupAsync(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids,
    std::function<void(Result<GroupFetch>)> done) {
  router_.CallAsync("key.fetch_group",
                    GroupFetchPayload(demand_id, prefetch_ids),
                    ThenParse(std::move(done), ParseGroupFetch));
}

void KeyServiceClient::GetKeysAsync(
    const std::vector<AuditId>& audit_ids,
    std::function<void(Result<std::vector<std::pair<AuditId, Bytes>>>)>
        done) {
  router_.CallAsync("key.get_batch", KeyBatchPayload(audit_ids),
                    ThenParse(std::move(done), ParseKeyPairs));
}

namespace {
WireValue::Array JournalPayload(
    const std::vector<KeyServiceClient::JournalEntry>& entries) {
  WireValue::Array raw;
  for (const auto& entry : entries) {
    WireValue::Struct e;
    e.emplace("id", WireValue(entry.audit_id.ToBytes()));
    e.emplace("op", WireValue(entry.op));
    e.emplace("ts", WireValue(entry.client_time.nanos()));
    if (!entry.key.empty()) {
      e.emplace("key", WireValue(entry.key));
    }
    raw.push_back(WireValue(std::move(e)));
  }
  WireValue::Array payload;
  payload.push_back(WireValue(std::move(raw)));
  return payload;
}
}  // namespace

Status KeyServiceClient::UploadJournal(
    const std::vector<JournalEntry>& entries) {
  return rpc()->queue()->Await<Status>(
      [&](auto done) { UploadJournalAsync(entries, std::move(done)); });
}

// Journal uploads are deferrable catch-up traffic: under overload the
// service sheds them first and the device simply retries the upload on
// its next reconnect pass — nothing a user is waiting on.
void KeyServiceClient::UploadJournalAsync(
    const std::vector<JournalEntry>& entries,
    std::function<void(Status)> done) {
  CallContext ctx;
  ctx.priority = RpcPriority::kBackground;
  router_.CallAsync("key.upload_journal", JournalPayload(entries), ctx,
                    ThenStatus(std::move(done)));
}

void KeyServiceClient::DestroyKeyAsync(const AuditId& audit_id,
                                       std::function<void(Status)> done) {
  WireValue::Array payload;
  payload.push_back(WireValue(audit_id.ToBytes()));
  router_.CallAsync("key.destroy", std::move(payload),
                    ThenStatus(std::move(done)));
}

void KeyServiceClient::NoteEvictionAsync(const AuditId& audit_id) {
  WireValue::Array payload;
  payload.push_back(WireValue(audit_id.ToBytes()));
  router_.CallAsync("key.evict", std::move(payload), [](Result<WireValue>) {
    // Best-effort: a lost eviction notice only means the
    // auditor over-reports exposure, never under-reports.
  });
}

}  // namespace keypad
