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
// Every record is held once (DESIGN.md §31). Bindings are live namespace
// state (like the roots map), so the log keeps the rows truncation drops
// from the chain, in order, in front of the in-memory suffix. Namespace
// queries read records in place through a per-(device, id) index of seqs.

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

  // Snapshot, delta and cold-segment form; an unknown op is DataLoss.
  WireValue ToWire() const;
  static Result<MetadataRecord> FromWire(const WireValue& value);

  // The meta.upload_journal codec of stub and service (DESIGN.md §32): op,
  // ids, name and client time; a bad op (DecodeJournalMetadataOp) or id is
  // refused.
  WireValue ToJournalWire() const;
  static Result<MetadataRecord> FromJournalWire(const WireValue& value);

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

  // The records truncation dropped from the chain: record s < base_seq()
  // is truncated()[s].
  const std::vector<MetadataRecord>& truncated() const { return truncated_; }

  // Every record ever committed, oldest first: truncated() then entries()
  // (the forensic auditor's cold-inclusive view).
  std::vector<MetadataRecord> AllKnownRecords() const;

  // Restore's second half, once LoadVerifiedWithBase adopted the chain:
  // `rows` become truncated() and the index is rebuilt. DataLoss, changing
  // nothing, unless they are the prefix the chain hangs off: one row per
  // seq below base_seq(), each chained to the one before, the last sealed
  // with base_seal().
  Status AdoptTruncated(std::vector<MetadataRecord> rows);

  void CorruptRecordForTesting(size_t index) { CorruptEntryForTesting(index); }

 protected:
  void OnCommitted(const MetadataRecord& record) override;
  void OnTruncated(RowIt first, RowIt last) override;

 private:
  const MetadataRecord& At(uint64_t seq) const {
    return seq < base_seq() ? truncated_[seq] : entries()[seq - base_seq()];
  }
  // The last record in log order among `seqs` (null: none) that is an `a`
  // or `b` op and has client time `as_of` or earlier.
  std::optional<MetadataRecord> LatestOf(const std::vector<uint64_t>* seqs,
                                         SimTime as_of, MetadataOp a,
                                         MetadataOp b) const;

  // Rows the substrate truncated from the chain, seq 0 up to base_seq().
  std::vector<MetadataRecord> truncated_;
  // Position index: the seqs of file records by (device, audit id) and of
  // directory records by (device, dir id), ascending. Every record's seq
  // lands in exactly one bucket.
  std::map<std::pair<std::string, AuditId>, std::vector<uint64_t>> file_index_;
  std::map<std::pair<std::string, DirId>, std::vector<uint64_t>> dir_index_;
};

}  // namespace keypad

#endif  // SRC_METASERVICE_METADATA_LOG_H_
