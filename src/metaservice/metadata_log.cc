#include "src/metaservice/metadata_log.h"

#include <iterator>

#include "src/keyservice/auth.h"

namespace keypad {

namespace {
// Whether `raw` names a MetadataOp: both row decoders check before casting.
bool IsMetadataOp(int64_t raw) {
  return raw >= 0 && raw <= static_cast<int64_t>(MetadataOp::kSetAttr);
}
}  // namespace

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
  if (!IsMetadataOp(op_int)) {
    return DataLossError("metadata log: row with unknown op " +
                         std::to_string(op_int));
  }
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

WireValue MetadataRecord::ToJournalWire() const {
  WireValue::Struct r;
  r.emplace("op", WireValue(static_cast<int64_t>(op)));
  r.emplace("aid", WireValue(audit_id.ToBytes()));
  r.emplace("did", WireValue(dir_id.ToBytes()));
  r.emplace("pid", WireValue(parent_dir_id.ToBytes()));
  r.emplace("name", WireValue(name));
  r.emplace("ts", WireValue(client_time.nanos()));
  return WireValue(std::move(r));
}

Result<MetadataRecord> MetadataRecord::FromJournalWire(const WireValue& value) {
  MetadataRecord record;
  KP_ASSIGN_OR_RETURN(WireValue op_v, value.Field("op"));
  KP_ASSIGN_OR_RETURN(int64_t op_int, op_v.AsInt());
  KP_ASSIGN_OR_RETURN(record.op, DecodeJournalMetadataOp(op_int));
  KP_ASSIGN_OR_RETURN(WireValue aid_v, value.Field("aid"));
  KP_ASSIGN_OR_RETURN(record.audit_id, IdArg<AuditId>(aid_v));
  KP_ASSIGN_OR_RETURN(WireValue did_v, value.Field("did"));
  KP_ASSIGN_OR_RETURN(record.dir_id, IdArg<DirId>(did_v));
  KP_ASSIGN_OR_RETURN(WireValue pid_v, value.Field("pid"));
  KP_ASSIGN_OR_RETURN(record.parent_dir_id, IdArg<DirId>(pid_v));
  KP_ASSIGN_OR_RETURN(WireValue name_v, value.Field("name"));
  KP_ASSIGN_OR_RETURN(record.name, name_v.AsString());
  KP_ASSIGN_OR_RETURN(WireValue ts_v, value.Field("ts"));
  KP_ASSIGN_OR_RETURN(int64_t ts_int, ts_v.AsInt());
  record.client_time = SimTime(ts_int);
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
      !in.Str(&record->device_id) || !in.U8(&op) || !IsMetadataOp(op) ||
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

namespace {

template <typename Key>
const std::vector<uint64_t>* SeqsOf(
    const std::map<Key, std::vector<uint64_t>>& index, const Key& key) {
  auto it = index.find(key);
  return it == index.end() ? nullptr : &it->second;
}

}  // namespace

void MetadataLog::OnCommitted(const MetadataRecord& record) {
  if (record.op == MetadataOp::kMkdir || record.op == MetadataOp::kRenameDir) {
    dir_index_[{record.device_id, record.dir_id}].push_back(record.seq);
  } else {
    file_index_[{record.device_id, record.audit_id}].push_back(record.seq);
  }
}

void MetadataLog::OnTruncated(RowIt first, RowIt last) {
  truncated_.insert(truncated_.end(), std::make_move_iterator(first),
                    std::make_move_iterator(last));
}

std::vector<MetadataRecord> MetadataLog::HistoryOf(
    const std::string& device_id, const AuditId& audit_id) const {
  std::vector<MetadataRecord> out;
  const std::vector<uint64_t>* seqs =
      SeqsOf(file_index_, {device_id, audit_id});
  if (seqs == nullptr) {
    return out;
  }
  for (uint64_t seq : *seqs) {
    const MetadataRecord& record = At(seq);
    if (record.op == MetadataOp::kCreateFile ||
        record.op == MetadataOp::kRenameFile ||
        record.op == MetadataOp::kSetAttr) {
      out.push_back(record);
    }
  }
  return out;
}

std::optional<MetadataRecord> MetadataLog::LatestOf(
    const std::vector<uint64_t>* seqs, SimTime as_of, MetadataOp a,
    MetadataOp b) const {
  if (seqs != nullptr) {
    for (auto it = seqs->rbegin(); it != seqs->rend(); ++it) {
      const MetadataRecord& record = At(*it);
      if (record.client_time <= as_of && (record.op == a || record.op == b)) {
        return record;
      }
    }
  }
  return std::nullopt;
}

std::optional<MetadataRecord> MetadataLog::LatestBinding(
    const std::string& device_id, const AuditId& audit_id,
    SimTime as_of) const {
  return LatestOf(SeqsOf(file_index_, {device_id, audit_id}), as_of,
                  MetadataOp::kCreateFile, MetadataOp::kRenameFile);
}

std::optional<MetadataRecord> MetadataLog::LatestDirBinding(
    const std::string& device_id, const DirId& dir_id, SimTime as_of) const {
  return LatestOf(SeqsOf(dir_index_, {device_id, dir_id}), as_of,
                  MetadataOp::kMkdir, MetadataOp::kRenameDir);
}

std::vector<MetadataRecord> MetadataLog::AllKnownRecords() const {
  std::vector<MetadataRecord> out;
  out.reserve(size());
  out.insert(out.end(), truncated_.begin(), truncated_.end());
  out.insert(out.end(), entries().begin(), entries().end());
  return out;
}

Status MetadataLog::AdoptTruncated(std::vector<MetadataRecord> rows) {
  Seal prev;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].seq != i || rows[i].prev_hash != prev) {
      return DataLossError("metadata log: truncated row out of place at " +
                           std::to_string(i));
    }
    prev = rows[i].entry_hash;
  }
  if (rows.size() != base_seq() || prev != base_seal()) {
    return DataLossError("metadata log: truncated rows do not reach the base");
  }
  truncated_ = std::move(rows);
  file_index_.clear();
  dir_index_.clear();
  for (const MetadataRecord& record : truncated_) {
    OnCommitted(record);
  }
  for (const MetadataRecord& record : entries()) {
    OnCommitted(record);
  }
  return Status::Ok();
}

}  // namespace keypad
