// StorageBackend — the durable-medium seam under BlockDevice (DESIGN.md §12).
//
// The paper's whole threat model is an attacker holding the raw medium, so
// what actually survives on it matters: torn writes, power failure between
// the two halves of a rename, silent bit rot. The backend interface makes
// those failure semantics explicit:
//
//  * mutations are submitted as atomic batches (StorageOp lists) — a
//    backend either guarantees batch atomicity across power loss
//    (journaled) or doesn't (memory, the seed's semantics);
//  * Sync() is the only durability barrier: state not synced is assumed
//    lost on power failure;
//  * every durable write is announced to an optional MediumObserver, which
//    may cut the power mid-write (torn write) — the hook the fault
//    injector and the crash-point explorer drive;
//  * each stored object carries an integrity tag (SHA-256 recorded at
//    write time) so a scrubber can tell bit rot from legitimate content.

#ifndef SRC_BLOCKDEV_STORAGE_BACKEND_H_
#define SRC_BLOCKDEV_STORAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cryptocore/sha256.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

// 128-bit object names (shared with BlockDevice).
using ObjectId = FixedId<16>;

enum class StorageBackendKind {
  kMemory,     // The seed's in-memory map: writes are instantly durable,
               // batches are NOT crash-atomic (each op lands separately).
  kJournaled,  // Write-ahead journal with begin/commit records; batches are
               // all-or-nothing across power failure.
};

// One mutation inside an atomic batch.
struct StorageOp {
  enum class Kind : uint8_t {
    kPut = 1,
    kDelete = 2,
    kPutSuperblock = 3,
  };
  Kind kind = Kind::kPut;
  ObjectId id;  // Ignored for kPutSuperblock.
  Bytes data;   // Ignored for kDelete.

  static StorageOp Put(const ObjectId& id, Bytes data) {
    return StorageOp{Kind::kPut, id, std::move(data)};
  }
  static StorageOp Delete(const ObjectId& id) {
    return StorageOp{Kind::kDelete, id, {}};
  }
  static StorageOp PutSuperblock(Bytes data) {
    return StorageOp{Kind::kPutSuperblock, ObjectId{}, std::move(data)};
  }
};

// What journal replay found on the medium.
struct RecoveryReport {
  uint64_t committed_txns_replayed = 0;
  uint64_t torn_txns_discarded = 0;   // BEGIN seen, no valid COMMIT.
  uint64_t corrupt_records = 0;       // Checksum failures / torn tails.
  uint64_t journal_bytes_scanned = 0;
};

// Durable-area scan row for the scrubber.
struct StoredObjectInfo {
  ObjectId id;
  size_t size = 0;
  bool tag_ok = false;  // Recorded tag matches the bytes on the medium.
};

class StorageBackend {
 public:
  // Fault-injection hook: called immediately before each durable medium
  // write. Returns how many bytes of the write actually reach the medium;
  // any value < `size` means the power was cut during (or before) the
  // write — the backend persists that prefix and marks itself powered off.
  class MediumObserver {
   public:
    virtual ~MediumObserver() = default;
    virtual size_t OnMediumWrite(size_t size) = 0;
  };

  virtual ~StorageBackend() = default;
  virtual StorageBackendKind kind() const = 0;

  // --- Read path (serves the current logical view, incl. unsynced). -------
  virtual Result<Bytes> ReadObject(const ObjectId& id) const = 0;
  virtual bool HasObject(const ObjectId& id) const = 0;
  virtual std::vector<ObjectId> ListObjects() const = 0;
  virtual const Bytes& ReadSuperblock() const = 0;
  virtual size_t ObjectCount() const = 0;
  virtual size_t TotalBytes() const = 0;

  // --- Mutation path. ------------------------------------------------------
  // Applies the batch to the logical view; a journaled backend stages it as
  // one transaction. kUnavailable after a power failure.
  virtual Status Apply(std::vector<StorageOp> batch) = 0;
  // Durability barrier: everything Apply()ed before the Sync that returns
  // OK survives power failure (atomically, per batch, on the journaled
  // backend).
  virtual Status Sync() = 0;
  // Folds the journal into the object area and truncates it (no-op on
  // backends without a journal). Implies Sync().
  virtual Status Checkpoint() { return Sync(); }

  // --- Imaging. ------------------------------------------------------------
  // Live image: everything, including unsynced state. (An attacker imaging
  // a running device sees the page cache too; this keeps Snapshot()'s
  // historical semantics.)
  virtual std::unique_ptr<StorageBackend> Clone() const = 0;
  // Power-loss image: durable state only, after recovery (journal replay,
  // torn-tail discard). `report` may be null.
  virtual std::unique_ptr<StorageBackend> RecoverFromCrash(
      RecoveryReport* report) const = 0;

  // --- Durable-area access for the scrubber and the fault injector. --------
  // Scans the durable object area, re-hashing each object against its
  // recorded tag. (Journaled backends also cover synced-but-uncheckpointed
  // objects still living in the journal.)
  virtual std::vector<StoredObjectInfo> ScanStoredObjects() const = 0;
  // The tag recorded for an object at its last durable write.
  virtual Result<Sha256::Digest> StoredObjectTag(const ObjectId& id) const = 0;
  // Flips bits in the stored bytes WITHOUT touching the tag — bit rot.
  virtual Status DamageStoredObject(const ObjectId& id, size_t byte_index,
                                    uint8_t xor_mask) = 0;
  // Rewrites an object in place with a fresh tag, bypassing the journal —
  // the scrubber's (idempotent) repair path.
  virtual Status RepairStoredObject(const ObjectId& id, Bytes data) = 0;

  // --- Fault plumbing. ------------------------------------------------------
  void set_observer(MediumObserver* observer) { observer_ = observer; }
  MediumObserver* observer() const { return observer_; }
  bool powered_off() const { return powered_off_; }

 protected:
  // Reports a durable write of `size` bytes to the observer; returns the
  // number of bytes that land. Sets powered_off_ on a cut.
  size_t ObserveWrite(size_t size) {
    if (powered_off_) {
      return 0;
    }
    if (observer_ == nullptr) {
      return size;
    }
    size_t kept = observer_->OnMediumWrite(size);
    if (kept < size) {
      powered_off_ = true;
      return kept;
    }
    return size;
  }

  MediumObserver* observer_ = nullptr;
  bool powered_off_ = false;
};

// Journal tuning (journaled backend only).
struct JournalOptions {
  // Fold the journal into the object area once it exceeds this many bytes
  // (checked at Sync). Large value = journal grows until an explicit
  // Checkpoint() — what the recovery-time bench sweeps.
  size_t checkpoint_bytes = 1 << 20;
};

std::unique_ptr<StorageBackend> MakeMemoryBackend();
std::unique_ptr<StorageBackend> MakeJournaledBackend(
    JournalOptions options = {});
std::unique_ptr<StorageBackend> MakeStorageBackend(StorageBackendKind kind,
                                                   JournalOptions options = {});

}  // namespace keypad

#endif  // SRC_BLOCKDEV_STORAGE_BACKEND_H_
