// Virtual block device: a named object store standing in for the laptop or
// USB stick's raw storage.
//
// The file systems above it (plain "ext3" mode, EncFS mode, Keypad) store
// directory and file objects here. The device supports Snapshot(), which
// models an attacker imaging the disk (or physically extracting it) —
// security tests run attacks against snapshots to prove that what is *on
// the medium* is protected, independent of any software gate.
//
// Since PR 7 the device is a thin transactional shim over a pluggable
// StorageBackend (DESIGN.md §12): multi-object mutations are grouped with
// Begin()/Commit() (or the RAII Txn helper) into batches the journaled
// backend makes crash-atomic, Sync() is the durability barrier, and the
// device tracks dirty objects for the write-back cloud uploader.

#ifndef SRC_BLOCKDEV_BLOCK_DEVICE_H_
#define SRC_BLOCKDEV_BLOCK_DEVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/blockdev/storage_backend.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

class BlockDevice {
 public:
  BlockDevice() : BlockDevice(MakeMemoryBackend()) {}
  explicit BlockDevice(std::unique_ptr<StorageBackend> backend)
      : backend_(std::move(backend)) {}

  // Move-only: the backend owns simulated medium state.
  BlockDevice(BlockDevice&&) = default;
  BlockDevice& operator=(BlockDevice&&) = default;

  // Superblock: a single well-known slot holding volume parameters.
  const Bytes& ReadSuperblock() const;
  void WriteSuperblock(Bytes data);

  Result<Bytes> ReadObject(const ObjectId& id) const;
  void WriteObject(const ObjectId& id, Bytes data);
  Status DeleteObject(const ObjectId& id);
  bool HasObject(const ObjectId& id) const;
  std::vector<ObjectId> ListObjects() const;

  // --- Transactions. -------------------------------------------------------
  // Between Begin() and Commit(), writes/deletes are staged (still visible
  // to this device's reads) and land on the backend as ONE atomic batch at
  // Commit(). Without an open transaction, each mutation is its own batch.
  void Begin();
  Status Commit();
  void Abort();
  bool in_txn() const { return in_txn_; }

  // RAII transaction scope: aborts on destruction unless committed.
  class Txn {
   public:
    explicit Txn(BlockDevice& dev) : dev_(&dev) { dev_->Begin(); }
    ~Txn() {
      if (!done_) {
        dev_->Abort();
      }
    }
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;
    Status Commit() {
      done_ = true;
      return dev_->Commit();
    }

   private:
    BlockDevice* dev_;
    bool done_ = false;
  };

  // Durability barrier. With auto_sync (the default) every commit syncs, so
  // the device behaves like the seed's always-durable map; turning it off
  // models a volatile write cache that only Sync() flushes.
  Status Sync();
  void set_auto_sync(bool on) { auto_sync_ = on; }
  bool auto_sync() const { return auto_sync_; }

  // True once a simulated power failure hit the medium; mutations fail from
  // then on and the latched error explains the first failure.
  bool powered_off() const { return backend_->powered_off(); }
  const Status& last_error() const { return last_error_; }

  // Deep copy — the attacker's disk image. Copies medium content only:
  // I/O counters are simulator telemetry, not on-medium state, so the
  // image starts with fresh counters.
  BlockDevice Snapshot() const;

  // The device as found after a power failure: durable state only, with
  // the journal replayed and torn tails discarded.
  BlockDevice RecoverCrashImage(RecoveryReport* report = nullptr) const;

  StorageBackend& backend() { return *backend_; }
  const StorageBackend& backend() const { return *backend_; }

  // --- Dirty tracking for the write-back uploader. -------------------------
  struct DirtySet {
    std::vector<ObjectId> modified;
    std::vector<ObjectId> deleted;
    bool superblock = false;
    bool empty() const {
      return modified.empty() && deleted.empty() && !superblock;
    }
  };
  // Returns (and clears) the set of objects changed since the last call.
  // Only committed changes are reported.
  DirtySet TakeDirty();
  // Non-destructive peek: has this object changed since the last TakeDirty?
  bool IsDirty(const ObjectId& id) const {
    return dirty_modified_.count(id) > 0 || dirty_deleted_.count(id) > 0;
  }

  // Total bytes stored across objects and superblock.
  size_t TotalBytes() const { return backend_->TotalBytes(); }
  size_t ObjectCount() const { return backend_->ObjectCount(); }

  // I/O statistics (object-granularity; writes count puts, deletes, and
  // superblock updates).
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  void StageOp(StorageOp op);
  void MarkDirty(const StorageOp& op);

  std::unique_ptr<StorageBackend> backend_;

  bool in_txn_ = false;
  std::vector<StorageOp> staged_;
  // Read overlay for the open transaction.
  std::map<ObjectId, Bytes> staged_objects_;
  std::set<ObjectId> staged_deleted_;
  std::optional<Bytes> staged_superblock_;

  bool auto_sync_ = true;
  Status last_error_;

  std::set<ObjectId> dirty_modified_;
  std::set<ObjectId> dirty_deleted_;
  bool dirty_superblock_ = false;

  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace keypad

#endif  // SRC_BLOCKDEV_BLOCK_DEVICE_H_
