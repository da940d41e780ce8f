#include "src/blockdev/storage_backend.h"

#include <map>
#include <utility>

namespace keypad {
namespace {

// The seed's semantics, behind the seam: a plain map where every op lands
// on the medium the moment it is applied. Sync() is a no-op and batches
// are NOT atomic — a power cut between the two ops of a rename loses the
// file. The crash-point explorer uses this as its negative control.
class MemoryBackend final : public StorageBackend {
 public:
  MemoryBackend() = default;

  StorageBackendKind kind() const override {
    return StorageBackendKind::kMemory;
  }

  Result<Bytes> ReadObject(const ObjectId& id) const override {
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return NotFoundError("storage: no object " + id.ToHex());
    }
    return it->second.data;
  }

  bool HasObject(const ObjectId& id) const override {
    return objects_.find(id) != objects_.end();
  }

  std::vector<ObjectId> ListObjects() const override {
    std::vector<ObjectId> out;
    out.reserve(objects_.size());
    for (const auto& [id, stored] : objects_) {
      out.push_back(id);
    }
    return out;
  }

  const Bytes& ReadSuperblock() const override { return superblock_; }
  size_t ObjectCount() const override { return objects_.size(); }

  size_t TotalBytes() const override {
    size_t total = superblock_.size();
    for (const auto& [id, stored] : objects_) {
      total += stored.data.size();
    }
    return total;
  }

  Status Apply(std::vector<StorageOp> batch) override {
    if (powered_off_) {
      return UnavailableError("storage: device powered off");
    }
    for (StorageOp& op : batch) {
      // Each op is its own medium write; the tag always describes the
      // *intended* content, so a torn write leaves tag_ok == false.
      switch (op.kind) {
        case StorageOp::Kind::kPut: {
          size_t kept = ObserveWrite(op.data.size());
          if (kept == 0 && !op.data.empty()) {
            // Cut before the first byte hit the medium: old content intact.
            return UnavailableError("storage: power failed before write");
          }
          Stored& slot = objects_[op.id];
          slot.tag = Sha256::Hash(op.data);
          slot.data = std::move(op.data);
          if (kept < slot.data.size()) {
            slot.data.resize(kept);
            return UnavailableError("storage: power failed mid-write");
          }
          break;
        }
        case StorageOp::Kind::kDelete: {
          size_t kept = ObserveWrite(1);
          if (kept < 1) {
            return UnavailableError("storage: power failed mid-delete");
          }
          objects_.erase(op.id);
          break;
        }
        case StorageOp::Kind::kPutSuperblock: {
          size_t kept = ObserveWrite(op.data.size());
          if (kept == 0 && !op.data.empty()) {
            return UnavailableError("storage: power failed before write");
          }
          superblock_ = std::move(op.data);
          if (kept < superblock_.size()) {
            superblock_.resize(kept);
            return UnavailableError("storage: power failed mid-write");
          }
          break;
        }
      }
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (powered_off_) {
      return UnavailableError("storage: device powered off");
    }
    return Status::Ok();  // Already durable.
  }

  std::unique_ptr<StorageBackend> Clone() const override {
    auto copy = std::make_unique<MemoryBackend>();
    copy->superblock_ = superblock_;
    copy->objects_ = objects_;
    return copy;
  }

  std::unique_ptr<StorageBackend> RecoverFromCrash(
      RecoveryReport* report) const override {
    if (report != nullptr) {
      *report = RecoveryReport{};  // Nothing to replay.
    }
    return Clone();
  }

  std::vector<StoredObjectInfo> ScanStoredObjects() const override {
    std::vector<StoredObjectInfo> out;
    out.reserve(objects_.size());
    for (const auto& [id, stored] : objects_) {
      StoredObjectInfo info;
      info.id = id;
      info.size = stored.data.size();
      info.tag_ok = Sha256::Hash(stored.data) == stored.tag;
      out.push_back(info);
    }
    return out;
  }

  Result<Sha256::Digest> StoredObjectTag(const ObjectId& id) const override {
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return NotFoundError("storage: no object " + id.ToHex());
    }
    return it->second.tag;
  }

  Status DamageStoredObject(const ObjectId& id, size_t byte_index,
                            uint8_t xor_mask) override {
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return NotFoundError("storage: no object " + id.ToHex());
    }
    if (it->second.data.empty()) {
      return FailedPreconditionError("storage: empty object " + id.ToHex());
    }
    it->second.data[byte_index % it->second.data.size()] ^= xor_mask;
    return Status::Ok();
  }

  Status RepairStoredObject(const ObjectId& id, Bytes data) override {
    Stored& slot = objects_[id];
    slot.tag = Sha256::Hash(data);
    slot.data = std::move(data);
    return Status::Ok();
  }

 private:
  struct Stored {
    Bytes data;
    Sha256::Digest tag{};
  };

  Bytes superblock_;
  std::map<ObjectId, Stored> objects_;
};

}  // namespace

std::unique_ptr<StorageBackend> MakeMemoryBackend() {
  return std::make_unique<MemoryBackend>();
}

std::unique_ptr<StorageBackend> MakeStorageBackend(StorageBackendKind kind,
                                                   JournalOptions options) {
  switch (kind) {
    case StorageBackendKind::kMemory:
      return MakeMemoryBackend();
    case StorageBackendKind::kJournaled:
      return MakeJournaledBackend(options);
  }
  return MakeMemoryBackend();
}

}  // namespace keypad
