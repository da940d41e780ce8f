// Append-only, hash-chained metadata log — a thin adapter over the shared
// SegmentedLog substrate (src/auditlog/segmented_log.h).
//
// The metadata service records every namespace event (file create, file
// rename, mkdir, directory rename, attribute change) as an immutable
// record. A rename appends a record — it never rewrites history — so "a
// thief cannot overwrite the user's metadata with bogus information after
// theft" (§3.1): post-theft records accumulate *after* the genuine ones and
// are distinguishable by timestamp.
//
// Every record is its own commit group, so the substrate's group seal
// degenerates to the classic per-record chain
// entry_hash = SHA-256(prev_hash || ser(record)) — bit-identical to the
// hashes this log wrote before the substrate existed.
//
// Namespace queries (HistoryOf/LatestBinding/LatestDirBinding) are served
// from a per-(device, id) binding index maintained on commit instead of
// full-log scans. The index deliberately survives truncation: bindings are
// live namespace state (like the roots map), while the chain suffix in
// memory is bounded by the substrate's checkpoint lifecycle.

#ifndef SRC_METASERVICE_METADATA_LOG_H_
#define SRC_METASERVICE_METADATA_LOG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/auditlog/segmented_log.h"
#include "src/sim/time.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/result.h"
#include "src/wire/value.h"

namespace keypad {

enum class MetadataOp {
  kCreateFile = 0,
  kRenameFile = 1,
  kMkdir = 2,
  kRenameDir = 3,
  kSetAttr = 4,
};

std::string_view MetadataOpName(MetadataOp op);

// A journaled namespace op off the wire: the file bindings, renames and
// directory ops the paired phone records offline. Anything else is refused
// with InvalidArgument before anything is logged.
Result<MetadataOp> DecodeJournalMetadataOp(int64_t raw);

struct MetadataRecord {
  uint64_t seq = 0;
  SimTime timestamp;   // Service-side append time.
  SimTime client_time; // Original client-side time for journal uploads.
  std::string device_id;
  MetadataOp op = MetadataOp::kCreateFile;
  AuditId audit_id;      // File records; zero for directory records.
  DirId dir_id;          // Containing dir (file ops) or the dir itself.
  DirId parent_dir_id;   // Directory records only.
  std::string name;      // New leaf name.
  std::string attr;      // kSetAttr payload ("key=value").
  Seal prev_hash;   // The seal entering this row's commit group.
  Seal entry_hash;  // The group's own seal.

  // Wire form for service snapshots (crash/restart simulation).
  WireValue ToWire() const;
  static Result<MetadataRecord> FromWire(const WireValue& value);

  // Flat row for audit.meta_log_tail (DESIGN.md §19): every field above,
  // chain hashes included, big-endian or length-prefixed. ReadFlat fails on
  // a short input, an unknown op or a seal that is not 32 bytes (as
  // FromWire does).
  void AppendFlat(Bytes* out) const;
  static bool ReadFlat(ByteReader& in, MetadataRecord* record);
};

// The substrate seam for MetadataRecord. Group start is the record's own
// seq (per-record chain); serialization order is load-bearing — together
// with the substrate's prev-seal prefix it reproduces the historical
// SHA-256(prev_hash || seq || ts || cts || device || op || ids || name ||
// attr) record hashes bit-for-bit.
struct MetadataLogCodec {
  using Entry = MetadataRecord;
  static constexpr const char* kName = "metadata log";

  static uint64_t Seq(const Entry& e) { return e.seq; }
  static void SetSeq(Entry& e, uint64_t seq) { e.seq = seq; }
  static uint64_t GroupStart(const Entry& e) { return e.seq; }
  static void SetGroupStart(Entry&, uint64_t) {}
  static const Seal& PrevHash(const Entry& e) { return e.prev_hash; }
  static void SetPrevHash(Entry& e, const Seal& prev) { e.prev_hash = prev; }
  static const Seal& EntryHash(const Entry& e) { return e.entry_hash; }
  static void SetEntryHash(Entry& e, const Seal& hash) { e.entry_hash = hash; }
  static void SerializeEntry(const Entry& record, Bytes* out);
  static WireValue EntryToWire(const Entry& e) { return e.ToWire(); }
  static Result<Entry> EntryFromWire(const WireValue& value) {
    return MetadataRecord::FromWire(value);
  }
  static void CorruptForTesting(Entry& e) { e.name += "-tampered"; }
};

class MetadataLog : public SegmentedLog<MetadataLogCodec> {
 public:
  uint64_t Append(SimTime timestamp, MetadataRecord record);

  const std::vector<MetadataRecord>& records() const { return entries(); }

  // All records for one file's audit ID, oldest first.
  std::vector<MetadataRecord> HistoryOf(const std::string& device_id,
                                        const AuditId& audit_id) const;

  // The latest (dir, name) binding for a file as of `as_of` (inclusive).
  std::optional<MetadataRecord> LatestBinding(const std::string& device_id,
                                              const AuditId& audit_id,
                                              SimTime as_of) const;

  // The latest (parent, name) binding for a directory as of `as_of`.
  std::optional<MetadataRecord> LatestDirBinding(const std::string& device_id,
                                                 const DirId& dir_id,
                                                 SimTime as_of) const;

  // Every record ever committed, oldest first, including prefixes the
  // substrate truncated from the chain — served from the binding index,
  // which retains namespace state for exactly this reason (the forensic
  // auditor's cold-inclusive view).
  std::vector<MetadataRecord> AllKnownRecords() const;

  // Truncation-aware restore: `cold` carries the pre-base records for the
  // binding index (namespace state), the rest restores the chain itself.
  Status RestoreWithColdIndex(std::vector<MetadataRecord> cold,
                              uint64_t base_seq, const Seal& base_seal,
                              std::vector<LogCheckpoint> checkpoints,
                              std::vector<MetadataRecord> suffix);

  void CorruptRecordForTesting(size_t index) { CorruptEntryForTesting(index); }

 protected:
  void OnCommitted(const MetadataRecord& record) override;
  void OnReset() override;

 private:
  void IndexRecord(const MetadataRecord& record);

  // Binding index: file records by (device, audit id), directory records
  // by (device, dir id), each bucket in log order. Together the buckets
  // hold every record (all five ops land in exactly one bucket).
  std::map<std::pair<std::string, AuditId>, std::vector<MetadataRecord>>
      file_index_;
  std::map<std::pair<std::string, DirId>, std::vector<MetadataRecord>>
      dir_index_;
  // Records to seed the index with during the next OnReset (restore path).
  std::vector<MetadataRecord> pending_cold_;
};

}  // namespace keypad

#endif  // SRC_METASERVICE_METADATA_LOG_H_
