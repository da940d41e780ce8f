#include "benchmark/tracing.h"

#include <cstdio>
#include <ctime>

namespace keypad::bench {

int64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kVfs:
      return "vfs";
    case Layer::kKeyClient:
      return "keyclient";
    case Layer::kStorage:
      return "storage";
  }
  return "?";
}

int Tracer::Begin(const char* name, Layer layer) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.virt_start = queue_->Now().nanos();
  span.events = queue_->executed_count();
  span.host_start = CpuNanos();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.host_end = CpuNanos();
  span.virt_end = queue_->Now().nanos();
  span.events = queue_->executed_count() - span.events;
  // Synchronous spans nest strictly (one thread), so the span closing is
  // always the innermost open one.
  open_.pop_back();
}

void Tracer::Complete(int index) {
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].virt_end = queue_->Now().nanos();
  }
}

void Tracer::NoteWireCall(const char* method, size_t items) {
  if (!enabled_) {
    return;
  }
  auto& entry = wire_calls_[method];
  ++entry.first;
  entry.second += items;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "name\tlayer\tparent\thost_start_ns\thost_end_ns\t"
               "virt_start_ns\tvirt_end_ns\tevents\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%s\t%d\t%lld\t%lld\t%lld\t%lld\t%llu\n", s.name,
                 LayerName(s.layer), s.parent,
                 static_cast<long long>(s.host_start),
                 static_cast<long long>(s.host_end),
                 static_cast<long long>(s.virt_start),
                 static_cast<long long>(s.virt_end),
                 static_cast<unsigned long long>(s.events));
  }
  return std::fclose(f) == 0;
}

// --- Vfs. --------------------------------------------------------------------

Status TracingVfs::Create(const std::string& path) {
  SpanScope span(tracer_, "vfs.create", Layer::kVfs);
  return inner_->Create(path);
}

Result<Bytes> TracingVfs::Read(const std::string& path, uint64_t offset,
                               size_t len) {
  SpanScope span(tracer_, "vfs.read", Layer::kVfs);
  return inner_->Read(path, offset, len);
}

Status TracingVfs::Write(const std::string& path, uint64_t offset,
                         const Bytes& data) {
  SpanScope span(tracer_, "vfs.write", Layer::kVfs);
  return inner_->Write(path, offset, data);
}

Status TracingVfs::Mkdir(const std::string& path) {
  SpanScope span(tracer_, "vfs.mkdir", Layer::kVfs);
  return inner_->Mkdir(path);
}

Status TracingVfs::Rename(const std::string& from, const std::string& to) {
  SpanScope span(tracer_, "vfs.rename", Layer::kVfs);
  return inner_->Rename(from, to);
}

Status TracingVfs::Unlink(const std::string& path) {
  SpanScope span(tracer_, "vfs.unlink", Layer::kVfs);
  return inner_->Unlink(path);
}

Status TracingVfs::Rmdir(const std::string& path) {
  SpanScope span(tracer_, "vfs.rmdir", Layer::kVfs);
  return inner_->Rmdir(path);
}

Result<std::vector<DirEntry>> TracingVfs::Readdir(const std::string& path) {
  SpanScope span(tracer_, "vfs.readdir", Layer::kVfs);
  return inner_->Readdir(path);
}

Result<StatInfo> TracingVfs::Stat(const std::string& path) {
  SpanScope span(tracer_, "vfs.stat", Layer::kVfs);
  return inner_->Stat(path);
}

// --- KeyClient. -------------------------------------------------------------

namespace {

using KeyPairs = std::vector<std::pair<AuditId, Bytes>>;

void NotePairs(Tracer* tracer, const std::string& device, const KeyPairs& pairs,
               AccessOp op) {
  for (const auto& [id, key] : pairs) {
    tracer->NoteGrant(device, id, op);
  }
}

void NoteMulti(Tracer* tracer, const std::string& device,
               const std::vector<KeyClient::MultiGetItem>& items,
               const KeyClient::MultiGetResult& result) {
  // Granted keys come back in request order, each item contributing its own
  // pair; match them to the items to recover each one's access op.
  size_t next = 0;
  for (const auto& [id, key] : result.keys) {
    while (next < items.size() && items[next].audit_id != id) {
      ++next;
    }
    tracer->NoteGrant(device, id,
                      next < items.size() ? items[next++].op
                                          : AccessOp::kDemandFetch);
  }
}

void NoteGroup(Tracer* tracer, const std::string& device,
               const AuditId& demand_id, const KeyClient::GroupFetch& group) {
  tracer->NoteGrant(device, demand_id, AccessOp::kDemandFetch);
  NotePairs(tracer, device, group.prefetched, AccessOp::kPrefetch);
}

// Completion wrapper for an asynchronous call: stamps the span's virtual
// end and lets `note` see the result before the caller's callback does.
template <typename R, typename Note>
std::function<void(R)> Completion(Tracer* tracer, int index, Note note,
                                  std::function<void(R)> done) {
  return [tracer, index, note = std::move(note),
          done = std::move(done)](R result) {
    tracer->Complete(index);
    note(result);
    done(std::move(result));
  };
}

}  // namespace

Result<Bytes> TracingKeyClient::CreateKey(const AuditId& audit_id) {
  SpanScope span(tracer_, "key.create", Layer::kKeyClient);
  tracer_->NoteWireCall("key.create", 1);
  Result<Bytes> key = inner_->CreateKey(audit_id);
  if (key.ok()) {
    tracer_->NoteGrant(device_id(), audit_id, AccessOp::kCreate);
  }
  return key;
}

void TracingKeyClient::CreateKeyAsync(const AuditId& audit_id,
                                      std::function<void(Result<Bytes>)> done) {
  SpanScope span(tracer_, "key.create", Layer::kKeyClient);
  tracer_->NoteWireCall("key.create", 1);
  auto note = [tracer = tracer_, device = device_id(),
               audit_id](const Result<Bytes>& key) {
    if (key.ok()) {
      tracer->NoteGrant(device, audit_id, AccessOp::kCreate);
    }
  };
  inner_->CreateKeyAsync(
      audit_id, Completion(tracer_, span.index(), note, std::move(done)));
}

Result<Bytes> TracingKeyClient::GetKey(const AuditId& audit_id, AccessOp op) {
  SpanScope span(tracer_, "key.get", Layer::kKeyClient);
  tracer_->NoteWireCall("key.get", 1);
  Result<Bytes> key = inner_->GetKey(audit_id, op);
  if (key.ok()) {
    tracer_->NoteGrant(device_id(), audit_id, op);
  }
  return key;
}

void TracingKeyClient::GetKeyAsync(const AuditId& audit_id, AccessOp op,
                                   std::function<void(Result<Bytes>)> done) {
  SpanScope span(tracer_, "key.get", Layer::kKeyClient);
  tracer_->NoteWireCall("key.get", 1);
  auto note = [tracer = tracer_, device = device_id(), audit_id,
               op](const Result<Bytes>& key) {
    if (key.ok()) {
      tracer->NoteGrant(device, audit_id, op);
    }
  };
  inner_->GetKeyAsync(audit_id, op,
                      Completion(tracer_, span.index(), note, std::move(done)));
}

Result<KeyPairs> TracingKeyClient::GetKeys(
    const std::vector<AuditId>& audit_ids) {
  SpanScope span(tracer_, "key.get_batch", Layer::kKeyClient);
  tracer_->NoteWireCall("key.get_batch", audit_ids.size());
  auto pairs = inner_->GetKeys(audit_ids);
  if (pairs.ok()) {
    NotePairs(tracer_, device_id(), *pairs, AccessOp::kPrefetch);
  }
  return pairs;
}

void TracingKeyClient::GetKeysAsync(
    const std::vector<AuditId>& audit_ids,
    std::function<void(Result<KeyPairs>)> done) {
  SpanScope span(tracer_, "key.get_batch", Layer::kKeyClient);
  tracer_->NoteWireCall("key.get_batch", audit_ids.size());
  auto note = [tracer = tracer_,
               device = device_id()](const Result<KeyPairs>& pairs) {
    if (pairs.ok()) {
      NotePairs(tracer, device, *pairs, AccessOp::kPrefetch);
    }
  };
  inner_->GetKeysAsync(
      audit_ids, Completion(tracer_, span.index(), note, std::move(done)));
}

Result<KeyClient::MultiGetResult> TracingKeyClient::GetKeysTyped(
    const std::vector<MultiGetItem>& items) {
  SpanScope span(tracer_, "key.get_multi", Layer::kKeyClient);
  tracer_->NoteWireCall("key.get_multi", items.size());
  auto result = inner_->GetKeysTyped(items);
  if (result.ok()) {
    NoteMulti(tracer_, device_id(), items, *result);
  }
  return result;
}

void TracingKeyClient::GetKeysTypedAsync(
    const std::vector<MultiGetItem>& items,
    std::function<void(Result<MultiGetResult>)> done) {
  SpanScope span(tracer_, "key.get_multi", Layer::kKeyClient);
  tracer_->NoteWireCall("key.get_multi", items.size());
  auto note = [tracer = tracer_, device = device_id(),
               items](const Result<MultiGetResult>& result) {
    if (result.ok()) {
      NoteMulti(tracer, device, items, *result);
    }
  };
  inner_->GetKeysTypedAsync(
      items, Completion(tracer_, span.index(), note, std::move(done)));
}

Result<KeyClient::GroupFetch> TracingKeyClient::FetchGroup(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids) {
  SpanScope span(tracer_, "key.fetch_group", Layer::kKeyClient);
  tracer_->NoteWireCall("key.fetch_group", 1 + prefetch_ids.size());
  auto group = inner_->FetchGroup(demand_id, prefetch_ids);
  if (group.ok()) {
    NoteGroup(tracer_, device_id(), demand_id, *group);
  }
  return group;
}

void TracingKeyClient::FetchGroupAsync(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids,
    std::function<void(Result<GroupFetch>)> done) {
  SpanScope span(tracer_, "key.fetch_group", Layer::kKeyClient);
  tracer_->NoteWireCall("key.fetch_group", 1 + prefetch_ids.size());
  auto note = [tracer = tracer_, device = device_id(),
               demand_id](const Result<GroupFetch>& group) {
    if (group.ok()) {
      NoteGroup(tracer, device, demand_id, *group);
    }
  };
  inner_->FetchGroupAsync(
      demand_id, prefetch_ids,
      Completion(tracer_, span.index(), note, std::move(done)));
}

Status TracingKeyClient::UploadJournal(
    const std::vector<JournalEntry>& entries) {
  SpanScope span(tracer_, "key.upload_journal", Layer::kKeyClient);
  tracer_->NoteWireCall("key.upload_journal", entries.size());
  return inner_->UploadJournal(entries);
}

void TracingKeyClient::UploadJournalAsync(
    const std::vector<JournalEntry>& entries,
    std::function<void(Status)> done) {
  SpanScope span(tracer_, "key.upload_journal", Layer::kKeyClient);
  tracer_->NoteWireCall("key.upload_journal", entries.size());
  inner_->UploadJournalAsync(
      entries, Completion(tracer_, span.index(), [](const Status&) {},
                          std::move(done)));
}

void TracingKeyClient::NoteEvictionAsync(const AuditId& audit_id) {
  SpanScope span(tracer_, "key.evict", Layer::kKeyClient);
  tracer_->NoteWireCall("key.evict", 1);
  inner_->NoteEvictionAsync(audit_id);
}

void TracingKeyClient::DestroyKeyAsync(const AuditId& audit_id,
                                       std::function<void(Status)> done) {
  SpanScope span(tracer_, "key.destroy", Layer::kKeyClient);
  tracer_->NoteWireCall("key.destroy", 1);
  inner_->DestroyKeyAsync(
      audit_id, Completion(tracer_, span.index(), [](const Status&) {},
                           std::move(done)));
}

// --- StorageBackend. ---------------------------------------------------------

Result<Bytes> TracingBackend::ReadObject(const ObjectId& id) const {
  SpanScope span(tracer_, "storage.read", Layer::kStorage);
  return inner_->ReadObject(id);
}

Status TracingBackend::Apply(std::vector<StorageOp> batch) {
  SpanScope span(tracer_, "storage.apply", Layer::kStorage);
  if (tracer_->enabled()) {
    uint64_t bytes = 0;
    for (const StorageOp& op : batch) {
      bytes += op.data.size();
    }
    tracer_->NoteApplyBytes(bytes);
  }
  return inner_->Apply(std::move(batch));
}

Status TracingBackend::Sync() {
  SpanScope span(tracer_, "storage.sync", Layer::kStorage);
  return inner_->Sync();
}

}  // namespace keypad::bench
