#include "src/keyservice/key_service_client.h"

#include <utility>

#include "src/keyservice/auth.h"

namespace keypad {

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

WireValue::Array EncodeMultiGetRequest(
    const std::vector<KeyClient::MultiGetItem>& items) {
  WireValue::Array ids;
  WireValue::Array ops;
  for (const auto& item : items) {
    ids.push_back(WireValue(item.audit_id.ToBytes()));
    ops.push_back(WireValue(static_cast<int64_t>(item.op)));
  }
  WireValue::Array payload;
  payload.push_back(WireValue(std::move(ids)));
  payload.push_back(WireValue(std::move(ops)));
  return payload;
}

Result<std::vector<KeyClient::MultiGetItem>> DecodeMultiGetRequest(
    const WireValue::Array& payload) {
  if (payload.size() != 2) {
    return InvalidArgumentError("key.get_multi: bad arity");
  }
  KP_ASSIGN_OR_RETURN(WireValue::Array ids, payload[0].AsArray());
  KP_ASSIGN_OR_RETURN(WireValue::Array ops, payload[1].AsArray());
  if (ids.size() != ops.size()) {
    return InvalidArgumentError("key.get_multi: ids and ops differ in length");
  }
  std::vector<KeyClient::MultiGetItem> items(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    KP_ASSIGN_OR_RETURN(items[i].audit_id, IdArg<AuditId>(ids[i]));
    KP_ASSIGN_OR_RETURN(int64_t op, ops[i].AsInt());
    KP_ASSIGN_OR_RETURN(items[i].op, DecodeAccessOp(op, OpSource::kFetch));
  }
  return items;
}

WireValue EncodeMultiGetReply(std::vector<Result<Bytes>> released) {
  WireValue::Array keys;
  WireValue::Array misses;
  for (auto& key : released) {
    if (key.ok()) {
      keys.push_back(WireValue(std::move(*key)));
      continue;
    }
    keys.push_back(WireValue(Bytes()));
    WireValue::Struct miss;
    miss.emplace("code",
                 WireValue(static_cast<int64_t>(key.status().code())));
    miss.emplace("msg", WireValue(key.status().message()));
    misses.push_back(WireValue(std::move(miss)));
  }
  WireValue::Struct out;
  out.emplace("keys", WireValue(std::move(keys)));
  out.emplace("misses", WireValue(std::move(misses)));
  return WireValue(std::move(out));
}

Result<KeyClient::MultiGetResult> DecodeMultiGetReply(
    const std::vector<KeyClient::MultiGetItem>& items, const WireValue& reply) {
  KP_ASSIGN_OR_RETURN(WireValue keys_v, reply.Field("keys"));
  KP_ASSIGN_OR_RETURN(WireValue::Array keys, keys_v.AsArray());
  KP_ASSIGN_OR_RETURN(WireValue misses_v, reply.Field("misses"));
  KP_ASSIGN_OR_RETURN(WireValue::Array misses, misses_v.AsArray());
  if (keys.size() != items.size()) {
    return DataLossError("key.get_multi: reply does not match the request");
  }
  KeyClient::MultiGetResult out;
  size_t next_miss = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    KP_ASSIGN_OR_RETURN(Bytes key, keys[i].AsBytes());
    if (!key.empty()) {
      out.keys.emplace_back(items[i].audit_id, std::move(key));
      continue;
    }
    if (next_miss == misses.size()) {
      return DataLossError("key.get_multi: reply does not match the request");
    }
    const WireValue& miss = misses[next_miss++];
    KP_ASSIGN_OR_RETURN(WireValue code_v, miss.Field("code"));
    KP_ASSIGN_OR_RETURN(int64_t code, code_v.AsInt());
    KP_ASSIGN_OR_RETURN(WireValue msg_v, miss.Field("msg"));
    KP_ASSIGN_OR_RETURN(std::string msg, msg_v.AsString());
    out.misses.push_back(
        {items[i].audit_id, Status(static_cast<StatusCode>(code), msg)});
  }
  if (next_miss != misses.size()) {
    return DataLossError("key.get_multi: reply does not match the request");
  }
  return out;
}

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
  router_.CallAsync("key.get_multi", EncodeMultiGetRequest(items), ctx,
                    ThenParse(std::move(done), [items](const WireValue& reply) {
                      return DecodeMultiGetReply(items, reply);
                    }));
}

Status KeyServiceClient::UploadJournal(
    const std::vector<JournalEntry>& entries) {
  return rpc()->queue()->Await<Status>(
      [&](auto done) { UploadJournalAsync(entries, std::move(done)); });
}

void KeyServiceClient::UploadJournalAsync(
    const std::vector<JournalEntry>& entries,
    std::function<void(Status)> done) {
  router_.UploadJournalAsync("key.upload_journal", entries, std::move(done));
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
