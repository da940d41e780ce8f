// Observation-only tracing for the benchmark: an in-memory span recorder
// plus decorators for the three public seams the benchmark measures at —
// the Vfs interface (around a KeypadFs), the KeyClient interface (what
// KeypadFs::Services::key points at) and the StorageBackend interface
// (under a BlockDevice). The decorators forward every call unchanged; they
// only read clocks and results. Nothing here reaches inside src/.
//
// A span carries its name, its parent (the span open when it began) and
// host and virtual start/end times. Host time is the process CPU clock: the
// simulator is single-threaded, so process CPU is the work the call did.
// For asynchronous KeyClient calls the host interval covers only the
// issuing call, while the virtual interval runs to the completion callback.

#ifndef BENCHMARK_TRACING_H_
#define BENCHMARK_TRACING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/blockdev/storage_backend.h"
#include "src/encfs/vfs.h"
#include "src/keyservice/key_client.h"
#include "src/sim/event_queue.h"

namespace keypad::bench {

// Process CPU time in nanoseconds (CLOCK_PROCESS_CPUTIME_ID).
int64_t CpuNanos();

enum class Layer : uint8_t { kVfs = 0, kKeyClient = 1, kStorage = 2 };
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kVfs;
  int32_t parent = -1;  // Index into the span vector; -1 for a root.
  int64_t host_start = 0;
  int64_t host_end = 0;
  int64_t virt_start = 0;
  int64_t virt_end = 0;
  uint64_t events = 0;  // Queue events executed inside the host interval.
};

// A key the KeyClient decorator saw leave the key tier, with the access op
// its audit row must carry.
struct Grant {
  std::string device;
  AuditId id;
  AccessOp op;
};

class Tracer {
 public:
  explicit Tracer(EventQueue* queue) : queue_(queue) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Spans are recorded only while enabled (the measured phase); grants are
  // recorded always, because the audit gate covers set-up too.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Returns the span index, or -1 when disabled.
  int Begin(const char* name, Layer layer);
  void End(int index);
  // Completion of an asynchronous call (virtual end only).
  void Complete(int index);

  void NoteGrant(const std::string& device, const AuditId& id, AccessOp op) {
    grants_.push_back({device, id, op});
  }
  void NoteWireCall(const char* method, size_t items);
  void NoteApplyBytes(uint64_t bytes) { applied_bytes_ += bytes; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Grant>& grants() const { return grants_; }
  // Key-tier wire method -> (calls, ids carried) issued through the
  // KeyClient seam while enabled.
  const std::map<std::string, std::pair<uint64_t, uint64_t>>& wire_calls()
      const {
    return wire_calls_;
  }
  uint64_t applied_bytes() const { return applied_bytes_; }

  // One span per line: name, layer, parent, host start/end (ns of process
  // CPU), virtual start/end (ns), events.
  bool WriteTsv(const std::string& path) const;

 private:
  EventQueue* queue_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Grant> grants_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> wire_calls_;
  uint64_t applied_bytes_ = 0;
};

// RAII span for synchronous calls.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, Layer layer)
      : tracer_(tracer), index_(tracer->Begin(name, layer)) {}
  ~SpanScope() { tracer_->End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

class TracingVfs : public Vfs {
 public:
  TracingVfs(Vfs* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  Status Create(const std::string& path) override;
  Result<Bytes> Read(const std::string& path, uint64_t offset,
                     size_t len) override;
  Status Write(const std::string& path, uint64_t offset,
               const Bytes& data) override;
  Status Mkdir(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Unlink(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Result<std::vector<DirEntry>> Readdir(const std::string& path) override;
  Result<StatInfo> Stat(const std::string& path) override;

 private:
  Vfs* inner_;
  Tracer* tracer_;
};

class TracingKeyClient : public KeyClient {
 public:
  TracingKeyClient(KeyClient* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  Result<Bytes> CreateKey(const AuditId& audit_id) override;
  void CreateKeyAsync(const AuditId& audit_id,
                      std::function<void(Result<Bytes>)> done) override;
  Result<Bytes> GetKey(const AuditId& audit_id, AccessOp op) override;
  void GetKeyAsync(const AuditId& audit_id, AccessOp op,
                   std::function<void(Result<Bytes>)> done) override;
  Result<std::vector<std::pair<AuditId, Bytes>>> GetKeys(
      const std::vector<AuditId>& audit_ids) override;
  void GetKeysAsync(
      const std::vector<AuditId>& audit_ids,
      std::function<void(Result<std::vector<std::pair<AuditId, Bytes>>>)>
          done) override;
  Result<MultiGetResult> GetKeysTyped(
      const std::vector<MultiGetItem>& items) override;
  void GetKeysTypedAsync(
      const std::vector<MultiGetItem>& items,
      std::function<void(Result<MultiGetResult>)> done) override;
  Result<GroupFetch> FetchGroup(
      const AuditId& demand_id,
      const std::vector<AuditId>& prefetch_ids) override;
  void FetchGroupAsync(const AuditId& demand_id,
                       const std::vector<AuditId>& prefetch_ids,
                       std::function<void(Result<GroupFetch>)> done) override;
  Status UploadJournal(const std::vector<JournalEntry>& entries) override;
  void UploadJournalAsync(const std::vector<JournalEntry>& entries,
                          std::function<void(Status)> done) override;
  void NoteEvictionAsync(const AuditId& audit_id) override;
  void DestroyKeyAsync(const AuditId& audit_id,
                       std::function<void(Status)> done) override;
  const std::string& device_id() const override { return inner_->device_id(); }

 private:
  KeyClient* inner_;
  Tracer* tracer_;
};

class TracingBackend : public StorageBackend {
 public:
  TracingBackend(std::unique_ptr<StorageBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  StorageBackendKind kind() const override { return inner_->kind(); }
  Result<Bytes> ReadObject(const ObjectId& id) const override;
  bool HasObject(const ObjectId& id) const override {
    return inner_->HasObject(id);
  }
  std::vector<ObjectId> ListObjects() const override {
    return inner_->ListObjects();
  }
  const Bytes& ReadSuperblock() const override {
    return inner_->ReadSuperblock();
  }
  size_t ObjectCount() const override { return inner_->ObjectCount(); }
  size_t TotalBytes() const override { return inner_->TotalBytes(); }
  Status Apply(std::vector<StorageOp> batch) override;
  Status Sync() override;
  Status Checkpoint() override { return inner_->Checkpoint(); }
  // Images carry medium content only, so they come back undecorated.
  std::unique_ptr<StorageBackend> Clone() const override {
    return inner_->Clone();
  }
  std::unique_ptr<StorageBackend> RecoverFromCrash(
      RecoveryReport* report) const override {
    return inner_->RecoverFromCrash(report);
  }
  std::vector<StoredObjectInfo> ScanStoredObjects() const override {
    return inner_->ScanStoredObjects();
  }
  Result<Sha256::Digest> StoredObjectTag(const ObjectId& id) const override {
    return inner_->StoredObjectTag(id);
  }
  Status DamageStoredObject(const ObjectId& id, size_t byte_index,
                            uint8_t xor_mask) override {
    return inner_->DamageStoredObject(id, byte_index, xor_mask);
  }
  Status RepairStoredObject(const ObjectId& id, Bytes data) override {
    return inner_->RepairStoredObject(id, std::move(data));
  }

 private:
  std::unique_ptr<StorageBackend> inner_;
  Tracer* tracer_;
};

}  // namespace keypad::bench

#endif  // BENCHMARK_TRACING_H_
