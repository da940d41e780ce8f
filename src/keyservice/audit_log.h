// The key tier's hash-chained audit log — a thin adapter over the shared
// SegmentedLog substrate (src/auditlog/segmented_log.h).
//
// Every key-service operation (key creation, key fetch, prefetch batch,
// eviction notice, revocation) appends one entry. Entries are chained in
// *commit groups*: all entries sealed together carry the same prev_hash
// (the previous group's seal) and the same entry_hash (the group seal),
//
//   seal = SHA-256(prev_seal || ser(e1) || ser(e2) || ... || ser(eK))
//
// where ser(e) is the canonical serialization of one entry. A group of one
// is byte-identical to the classic per-entry chain, so logs written before
// group commit existed verify unchanged. Grouping turns K chain steps into
// one streaming SHA-256 pass — the amortization the sharded key service's
// commit window exploits (DESIGN.md §8).
//
// The paper requires that "the adversary cannot tamper with the contents of
// the audit log" (§2); the chain plus the service's trusted storage provide
// that, and the auditor re-verifies the chain before trusting a log. The
// substrate adds the lifecycle pieces — Merkle-rooted segments, signed
// checkpoints, anchored truncation, cold shipping (DESIGN.md §15).

#ifndef SRC_KEYSERVICE_AUDIT_LOG_H_
#define SRC_KEYSERVICE_AUDIT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/auditlog/segmented_log.h"
#include "src/sim/time.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/result.h"
#include "src/wire/value.h"

namespace keypad {

// What kind of access produced the entry. Distinguishing kDemandFetch from
// kPrefetch lets the forensic auditor report prefetch-induced false
// positives separately (§5.2) — but both are "the key left the service".
enum class AccessOp {
  kCreate = 0,
  kDemandFetch = 1,
  kPrefetch = 2,
  kRefresh = 3,    // Cache-expiry refresh of an in-use key.
  kEviction = 4,   // Client reported erasing the key (e.g. hibernation).
  kRevoke = 5,
  kDestroy = 6,
  kDenied = 7,  // Fetch attempted after revocation — forensically valuable.
  kRestore = 8, // Key re-bound to a replacement device after theft.
};

std::string_view AccessOpName(AccessOp op);

// The access ops a client may put on the wire. A fetch verb releases a key
// as a demand fetch, a prefetch or a refresh; a journal upload may also
// carry the creates and evictions the paired phone records. Any other
// value — a revocation, destruction, denial or restore, which only the
// service writes, or no op at all — is refused with InvalidArgument before
// anything is logged.
enum class OpSource { kFetch, kJournal };
Result<AccessOp> DecodeAccessOp(int64_t raw, OpSource source);

struct AuditLogEntry {
  uint64_t seq = 0;
  // Sequence number of the first entry in this entry's commit group; the
  // verifier uses it to re-derive group boundaries. Equals seq for a group
  // of one (and for all pre-group-commit logs).
  uint64_t group_start = 0;
  SimTime timestamp;  // Service-side append time (authoritative for order).
  // When the entry was journaled on a paired device and uploaded later,
  // the time the access actually happened on the client; otherwise equals
  // timestamp.
  SimTime client_time;
  std::string device_id;
  AuditId audit_id;
  AccessOp op = AccessOp::kDemandFetch;
  Seal prev_hash;   // The seal entering this row's commit group.
  Seal entry_hash;  // The group's own seal.

  // Snapshot, delta and cold-segment form; an unknown op is DataLoss.
  WireValue ToWire() const;
  static Result<AuditLogEntry> FromWire(const WireValue& value);

  // Flat row for the audit RPC surface (DESIGN.md §19): every field above,
  // chain hashes included, big-endian or length-prefixed. ReadFlat fails on
  // a short input, an unknown op or a seal that is not 32 bytes (as
  // FromWire does).
  void AppendFlat(Bytes* out) const;
  static bool ReadFlat(ByteReader& in, AuditLogEntry* entry);
};

// The substrate seam: canonical hash material and chain-field access for
// AuditLogEntry. Serialization order is load-bearing — it reproduces the
// historical seals bit-for-bit.
struct AuditLogCodec {
  using Entry = AuditLogEntry;
  static constexpr const char* kName = "audit log";

  static uint64_t Seq(const Entry& e) { return e.seq; }
  static void SetSeq(Entry& e, uint64_t seq) { e.seq = seq; }
  static uint64_t GroupStart(const Entry& e) { return e.group_start; }
  static void SetGroupStart(Entry& e, uint64_t start) {
    e.group_start = start;
  }
  static const Seal& PrevHash(const Entry& e) { return e.prev_hash; }
  static void SetPrevHash(Entry& e, const Seal& prev) { e.prev_hash = prev; }
  static const Seal& EntryHash(const Entry& e) { return e.entry_hash; }
  static void SetEntryHash(Entry& e, const Seal& hash) { e.entry_hash = hash; }
  // Canonical per-entry hash material (everything except the chain fields).
  static void SerializeEntry(const Entry& entry, Bytes* out);
  static WireValue EntryToWire(const Entry& e) { return e.ToWire(); }
  static Result<Entry> EntryFromWire(const WireValue& value) {
    return AuditLogEntry::FromWire(value);
  }
  static void CorruptForTesting(Entry& e) { e.device_id += "-tampered"; }
};

// The adapter adds only the key tier's append signature; everything else —
// batching, cursors, Verify/LoadVerifiedWithBase/AppendReplicated, checkpoints,
// truncation, cold fetch — is the substrate, shared with MetadataLog.
class AuditLog : public SegmentedLog<AuditLogCodec> {
 public:
  // Appends an entry, filling seq and the hash chain. Returns the sequence
  // number assigned. `client_time` defaults to `timestamp`; journal uploads
  // pass the original access time. Outside a batch the entry is sealed
  // immediately (group of one — the classic chain step).
  uint64_t Append(SimTime timestamp, const std::string& device_id,
                  const AuditId& audit_id, AccessOp op);
  uint64_t Append(SimTime timestamp, SimTime client_time,
                  const std::string& device_id, const AuditId& audit_id,
                  AccessOp op);
};

}  // namespace keypad

#endif  // SRC_KEYSERVICE_AUDIT_LOG_H_
