#include "src/keyservice/audit_log.h"

namespace keypad {

namespace {
// Whether `raw` names an AccessOp: both row decoders check before casting.
bool IsAccessOp(int64_t raw) {
  return raw >= 0 && raw <= static_cast<int64_t>(AccessOp::kRestore);
}
}  // namespace

std::string_view AccessOpName(AccessOp op) {
  switch (op) {
    case AccessOp::kCreate:
      return "create";
    case AccessOp::kDemandFetch:
      return "fetch";
    case AccessOp::kPrefetch:
      return "prefetch";
    case AccessOp::kRefresh:
      return "refresh";
    case AccessOp::kEviction:
      return "evict";
    case AccessOp::kRevoke:
      return "revoke";
    case AccessOp::kDestroy:
      return "destroy";
    case AccessOp::kDenied:
      return "denied";
    case AccessOp::kRestore:
      return "restore";
  }
  return "unknown";
}

Result<AccessOp> DecodeAccessOp(int64_t raw, OpSource source) {
  const auto op = static_cast<AccessOp>(raw);
  if (op == AccessOp::kDemandFetch || op == AccessOp::kPrefetch ||
      op == AccessOp::kRefresh ||
      (source == OpSource::kJournal &&
       (op == AccessOp::kCreate || op == AccessOp::kEviction))) {
    return op;
  }
  return InvalidArgumentError("access op " + std::to_string(raw) +
                              " is not a client's to send");
}

WireValue AuditLogEntry::ToWire() const {
  WireValue::Struct s;
  s.emplace("seq", WireValue(static_cast<int64_t>(seq)));
  s.emplace("gstart", WireValue(static_cast<int64_t>(group_start)));
  s.emplace("ts", WireValue(timestamp.nanos()));
  s.emplace("cts", WireValue(client_time.nanos()));
  s.emplace("device", WireValue(device_id));
  s.emplace("audit_id", WireValue(audit_id.ToBytes()));
  s.emplace("op", WireValue(static_cast<int64_t>(op)));
  s.emplace("prev_hash", WireValue(prev_hash.ToBytes()));
  s.emplace("hash", WireValue(entry_hash.ToBytes()));
  return WireValue(std::move(s));
}

Result<AuditLogEntry> AuditLogEntry::FromWire(const WireValue& value) {
  AuditLogEntry entry;
  KP_ASSIGN_OR_RETURN(WireValue seq, value.Field("seq"));
  KP_ASSIGN_OR_RETURN(int64_t seq_int, seq.AsInt());
  entry.seq = static_cast<uint64_t>(seq_int);
  // Every snapshot, delta and cold segment carries the group start; a row
  // without one is refused.
  if (!value.HasField("gstart")) {
    return DataLossError("audit log: row without a group start");
  }
  KP_ASSIGN_OR_RETURN(WireValue gstart, value.Field("gstart"));
  KP_ASSIGN_OR_RETURN(int64_t gstart_int, gstart.AsInt());
  entry.group_start = static_cast<uint64_t>(gstart_int);
  KP_ASSIGN_OR_RETURN(WireValue ts, value.Field("ts"));
  KP_ASSIGN_OR_RETURN(int64_t ts_int, ts.AsInt());
  entry.timestamp = SimTime(ts_int);
  KP_ASSIGN_OR_RETURN(WireValue cts, value.Field("cts"));
  KP_ASSIGN_OR_RETURN(int64_t cts_int, cts.AsInt());
  entry.client_time = SimTime(cts_int);
  KP_ASSIGN_OR_RETURN(WireValue device, value.Field("device"));
  KP_ASSIGN_OR_RETURN(entry.device_id, device.AsString());
  KP_ASSIGN_OR_RETURN(WireValue id, value.Field("audit_id"));
  KP_ASSIGN_OR_RETURN(Bytes id_bytes, id.AsBytes());
  KP_ASSIGN_OR_RETURN(entry.audit_id, AuditId::FromBytes(id_bytes));
  KP_ASSIGN_OR_RETURN(WireValue op, value.Field("op"));
  KP_ASSIGN_OR_RETURN(int64_t op_int, op.AsInt());
  if (!IsAccessOp(op_int)) {
    return DataLossError("audit log: row with unknown op " +
                         std::to_string(op_int));
  }
  entry.op = static_cast<AccessOp>(op_int);
  KP_ASSIGN_OR_RETURN(WireValue prev, value.Field("prev_hash"));
  KP_ASSIGN_OR_RETURN(Bytes prev_bytes, prev.AsBytes());
  KP_ASSIGN_OR_RETURN(entry.prev_hash, Seal::FromBytes(prev_bytes));
  KP_ASSIGN_OR_RETURN(WireValue hash, value.Field("hash"));
  KP_ASSIGN_OR_RETURN(Bytes hash_bytes, hash.AsBytes());
  KP_ASSIGN_OR_RETURN(entry.entry_hash, Seal::FromBytes(hash_bytes));
  return entry;
}

void AuditLogEntry::AppendFlat(Bytes* out) const {
  AppendU64Be(*out, seq);
  AppendU64Be(*out, group_start);
  AppendU64Be(*out, static_cast<uint64_t>(timestamp.nanos()));
  AppendU64Be(*out, static_cast<uint64_t>(client_time.nanos()));
  AppendBlob(*out, device_id);
  out->insert(out->end(), audit_id.v.begin(), audit_id.v.end());
  out->push_back(static_cast<uint8_t>(op));
  prev_hash.AppendBlob(out);
  entry_hash.AppendBlob(out);
}

bool AuditLogEntry::ReadFlat(ByteReader& in, AuditLogEntry* entry) {
  uint64_t ts = 0;
  uint64_t cts = 0;
  uint8_t op = 0;
  if (!in.U64(&entry->seq) || !in.U64(&entry->group_start) || !in.U64(&ts) ||
      !in.U64(&cts) || !in.Str(&entry->device_id) ||
      !in.Copy(entry->audit_id.v.data(), entry->audit_id.v.size()) ||
      !in.U8(&op) || !IsAccessOp(op) ||
      !Seal::ReadBlob(in, &entry->prev_hash) ||
      !Seal::ReadBlob(in, &entry->entry_hash)) {
    return false;
  }
  entry->timestamp = SimTime(static_cast<int64_t>(ts));
  entry->client_time = SimTime(static_cast<int64_t>(cts));
  entry->op = static_cast<AccessOp>(op);
  return true;
}

void AuditLogCodec::SerializeEntry(const AuditLogEntry& entry, Bytes* out) {
  AppendU64Be(*out, entry.seq);
  AppendU64Be(*out, static_cast<uint64_t>(entry.timestamp.nanos()));
  AppendU64Be(*out, static_cast<uint64_t>(entry.client_time.nanos()));
  keypad::Append(*out, entry.device_id);
  keypad::Append(*out, entry.audit_id.ToBytes());
  out->push_back(static_cast<uint8_t>(entry.op));
}

uint64_t AuditLog::Append(SimTime timestamp, const std::string& device_id,
                          const AuditId& audit_id, AccessOp op) {
  return Append(timestamp, timestamp, device_id, audit_id, op);
}

uint64_t AuditLog::Append(SimTime timestamp, SimTime client_time,
                          const std::string& device_id,
                          const AuditId& audit_id, AccessOp op) {
  AuditLogEntry entry;
  entry.timestamp = timestamp;
  entry.client_time = client_time;
  entry.device_id = device_id;
  entry.audit_id = audit_id;
  entry.op = op;
  return AppendEntry(std::move(entry));
}

}  // namespace keypad
