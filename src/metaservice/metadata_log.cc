#include "src/metaservice/metadata_log.h"

#include <algorithm>

namespace keypad {

std::string_view MetadataOpName(MetadataOp op) {
  switch (op) {
    case MetadataOp::kCreateFile:
      return "create";
    case MetadataOp::kRenameFile:
      return "rename";
    case MetadataOp::kMkdir:
      return "mkdir";
    case MetadataOp::kRenameDir:
      return "renamedir";
    case MetadataOp::kSetAttr:
      return "setattr";
  }
  return "unknown";
}

Result<MetadataOp> DecodeJournalMetadataOp(int64_t raw) {
  if (raw < static_cast<int64_t>(MetadataOp::kCreateFile) ||
      raw > static_cast<int64_t>(MetadataOp::kRenameDir)) {
    return InvalidArgumentError("journal op " + std::to_string(raw) +
                                " is not a client's to send");
  }
  return static_cast<MetadataOp>(raw);
}

void MetadataLogCodec::SerializeEntry(const MetadataRecord& record,
                                      Bytes* out) {
  AppendU64Be(*out, record.seq);
  AppendU64Be(*out, static_cast<uint64_t>(record.timestamp.nanos()));
  AppendU64Be(*out, static_cast<uint64_t>(record.client_time.nanos()));
  keypad::Append(*out, record.device_id);
  out->push_back(static_cast<uint8_t>(record.op));
  keypad::Append(*out, record.audit_id.ToBytes());
  keypad::Append(*out, record.dir_id.ToBytes());
  keypad::Append(*out, record.parent_dir_id.ToBytes());
  keypad::Append(*out, record.name);
  keypad::Append(*out, record.attr);
}

WireValue MetadataRecord::ToWire() const {
  WireValue::Struct s;
  s.emplace("seq", WireValue(static_cast<int64_t>(seq)));
  s.emplace("ts", WireValue(timestamp.nanos()));
  s.emplace("cts", WireValue(client_time.nanos()));
  s.emplace("device", WireValue(device_id));
  s.emplace("op", WireValue(static_cast<int64_t>(op)));
  s.emplace("audit_id", WireValue(audit_id.ToBytes()));
  s.emplace("dir_id", WireValue(dir_id.ToBytes()));
  s.emplace("parent_dir_id", WireValue(parent_dir_id.ToBytes()));
  s.emplace("name", WireValue(name));
  s.emplace("attr", WireValue(attr));
  s.emplace("prev_hash", WireValue(prev_hash.ToBytes()));
  s.emplace("hash", WireValue(entry_hash.ToBytes()));
  return WireValue(std::move(s));
}

Result<MetadataRecord> MetadataRecord::FromWire(const WireValue& value) {
  MetadataRecord record;
  KP_ASSIGN_OR_RETURN(WireValue seq, value.Field("seq"));
  KP_ASSIGN_OR_RETURN(int64_t seq_int, seq.AsInt());
  record.seq = static_cast<uint64_t>(seq_int);
  KP_ASSIGN_OR_RETURN(WireValue ts, value.Field("ts"));
  KP_ASSIGN_OR_RETURN(int64_t ts_int, ts.AsInt());
  record.timestamp = SimTime(ts_int);
  KP_ASSIGN_OR_RETURN(WireValue cts, value.Field("cts"));
  KP_ASSIGN_OR_RETURN(int64_t cts_int, cts.AsInt());
  record.client_time = SimTime(cts_int);
  KP_ASSIGN_OR_RETURN(WireValue device, value.Field("device"));
  KP_ASSIGN_OR_RETURN(record.device_id, device.AsString());
  KP_ASSIGN_OR_RETURN(WireValue op, value.Field("op"));
  KP_ASSIGN_OR_RETURN(int64_t op_int, op.AsInt());
  record.op = static_cast<MetadataOp>(op_int);
  KP_ASSIGN_OR_RETURN(WireValue audit, value.Field("audit_id"));
  KP_ASSIGN_OR_RETURN(Bytes audit_bytes, audit.AsBytes());
  KP_ASSIGN_OR_RETURN(record.audit_id, AuditId::FromBytes(audit_bytes));
  KP_ASSIGN_OR_RETURN(WireValue dir, value.Field("dir_id"));
  KP_ASSIGN_OR_RETURN(Bytes dir_bytes, dir.AsBytes());
  KP_ASSIGN_OR_RETURN(record.dir_id, DirId::FromBytes(dir_bytes));
  KP_ASSIGN_OR_RETURN(WireValue parent, value.Field("parent_dir_id"));
  KP_ASSIGN_OR_RETURN(Bytes parent_bytes, parent.AsBytes());
  KP_ASSIGN_OR_RETURN(record.parent_dir_id, DirId::FromBytes(parent_bytes));
  KP_ASSIGN_OR_RETURN(WireValue name, value.Field("name"));
  KP_ASSIGN_OR_RETURN(record.name, name.AsString());
  KP_ASSIGN_OR_RETURN(WireValue attr, value.Field("attr"));
  KP_ASSIGN_OR_RETURN(record.attr, attr.AsString());
  KP_ASSIGN_OR_RETURN(WireValue prev, value.Field("prev_hash"));
  KP_ASSIGN_OR_RETURN(Bytes prev_bytes, prev.AsBytes());
  KP_ASSIGN_OR_RETURN(record.prev_hash, Seal::FromBytes(prev_bytes));
  KP_ASSIGN_OR_RETURN(WireValue hash, value.Field("hash"));
  KP_ASSIGN_OR_RETURN(Bytes hash_bytes, hash.AsBytes());
  KP_ASSIGN_OR_RETURN(record.entry_hash, Seal::FromBytes(hash_bytes));
  return record;
}

void MetadataRecord::AppendFlat(Bytes* out) const {
  AppendU64Be(*out, seq);
  AppendU64Be(*out, static_cast<uint64_t>(timestamp.nanos()));
  AppendU64Be(*out, static_cast<uint64_t>(client_time.nanos()));
  AppendBlob(*out, device_id);
  out->push_back(static_cast<uint8_t>(op));
  out->insert(out->end(), audit_id.v.begin(), audit_id.v.end());
  out->insert(out->end(), dir_id.v.begin(), dir_id.v.end());
  out->insert(out->end(), parent_dir_id.v.begin(), parent_dir_id.v.end());
  AppendBlob(*out, name);
  AppendBlob(*out, attr);
  prev_hash.AppendBlob(out);
  entry_hash.AppendBlob(out);
}

bool MetadataRecord::ReadFlat(ByteReader& in, MetadataRecord* record) {
  uint64_t ts = 0;
  uint64_t cts = 0;
  uint8_t op = 0;
  if (!in.U64(&record->seq) || !in.U64(&ts) || !in.U64(&cts) ||
      !in.Str(&record->device_id) || !in.U8(&op) ||
      op > static_cast<uint8_t>(MetadataOp::kSetAttr) ||
      !in.Copy(record->audit_id.v.data(), record->audit_id.v.size()) ||
      !in.Copy(record->dir_id.v.data(), record->dir_id.v.size()) ||
      !in.Copy(record->parent_dir_id.v.data(),
               record->parent_dir_id.v.size()) ||
      !in.Str(&record->name) || !in.Str(&record->attr) ||
      !Seal::ReadBlob(in, &record->prev_hash) ||
      !Seal::ReadBlob(in, &record->entry_hash)) {
    return false;
  }
  record->timestamp = SimTime(static_cast<int64_t>(ts));
  record->client_time = SimTime(static_cast<int64_t>(cts));
  record->op = static_cast<MetadataOp>(op);
  return true;
}

uint64_t MetadataLog::Append(SimTime timestamp, MetadataRecord record) {
  record.timestamp = timestamp;
  if (record.client_time == SimTime()) {
    record.client_time = timestamp;
  }
  return AppendEntry(std::move(record));
}

void MetadataLog::IndexRecord(const MetadataRecord& record) {
  if (record.op == MetadataOp::kMkdir || record.op == MetadataOp::kRenameDir) {
    dir_index_[{record.device_id, record.dir_id}].push_back(record);
  } else {
    file_index_[{record.device_id, record.audit_id}].push_back(record);
  }
}

void MetadataLog::OnCommitted(const MetadataRecord& record) {
  IndexRecord(record);
}

void MetadataLog::OnReset() {
  file_index_.clear();
  dir_index_.clear();
  for (const MetadataRecord& record : pending_cold_) {
    IndexRecord(record);
  }
}

std::vector<MetadataRecord> MetadataLog::HistoryOf(
    const std::string& device_id, const AuditId& audit_id) const {
  std::vector<MetadataRecord> out;
  auto it = file_index_.find({device_id, audit_id});
  if (it == file_index_.end()) {
    return out;
  }
  for (const MetadataRecord& record : it->second) {
    if (record.op == MetadataOp::kCreateFile ||
        record.op == MetadataOp::kRenameFile ||
        record.op == MetadataOp::kSetAttr) {
      out.push_back(record);
    }
  }
  return out;
}

std::optional<MetadataRecord> MetadataLog::LatestBinding(
    const std::string& device_id, const AuditId& audit_id,
    SimTime as_of) const {
  std::optional<MetadataRecord> latest;
  auto it = file_index_.find({device_id, audit_id});
  if (it == file_index_.end()) {
    return latest;
  }
  for (const MetadataRecord& record : it->second) {
    if (record.client_time > as_of) {
      continue;
    }
    if (record.op == MetadataOp::kCreateFile ||
        record.op == MetadataOp::kRenameFile) {
      latest = record;
    }
  }
  return latest;
}

std::optional<MetadataRecord> MetadataLog::LatestDirBinding(
    const std::string& device_id, const DirId& dir_id, SimTime as_of) const {
  std::optional<MetadataRecord> latest;
  auto it = dir_index_.find({device_id, dir_id});
  if (it == dir_index_.end()) {
    return latest;
  }
  for (const MetadataRecord& record : it->second) {
    if (record.client_time > as_of) {
      continue;
    }
    if (record.op == MetadataOp::kMkdir ||
        record.op == MetadataOp::kRenameDir) {
      latest = record;
    }
  }
  return latest;
}

std::vector<MetadataRecord> MetadataLog::AllKnownRecords() const {
  std::vector<MetadataRecord> out;
  for (const auto& [key, bucket] : file_index_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  for (const auto& [key, bucket] : dir_index_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  std::sort(out.begin(), out.end(),
            [](const MetadataRecord& a, const MetadataRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

Status MetadataLog::RestoreWithColdIndex(
    std::vector<MetadataRecord> cold, uint64_t base_seq, const Seal& base_seal,
    std::vector<LogCheckpoint> checkpoints,
    std::vector<MetadataRecord> suffix) {
  pending_cold_ = std::move(cold);
  Status status = LoadVerifiedWithBase(base_seq, base_seal,
                                       std::move(checkpoints),
                                       std::move(suffix));
  pending_cold_.clear();
  return status;
}

}  // namespace keypad
