#include "src/metaservice/metadata_service_client.h"

#include <utility>

#include "src/keyservice/auth.h"

namespace keypad {

ReplicaRouter::Framer MetadataServiceClient::MakeFramer() const {
  // Captures copies so the framer stays valid however the stub is stored.
  return [device_id = device_id_, device_secret = device_secret_](
             const std::string& method, WireValue::Array payload) {
    return FrameAuthedCall(device_id, device_secret, method,
                           std::move(payload));
  };
}

Status MetadataServiceClient::RegisterRoot(const DirId& root_id) {
  return router_.Call("meta.register_root", {WireValue(root_id.ToBytes())})
      .status();
}

// A blocking method with an async twin is that twin awaited (DESIGN.md
// §22), so its marshalling and parse exist once.
Result<Bytes> MetadataServiceClient::BindFile(const AuditId& audit_id,
                                              const DirId& dir_id,
                                              const std::string& name,
                                              bool is_rename) {
  return rpc()->queue()->Await<Result<Bytes>>([&](auto done) {
    BindFileAsync(audit_id, dir_id, name, is_rename, std::move(done));
  });
}

void MetadataServiceClient::BindFileAsync(
    const AuditId& audit_id, const DirId& dir_id, const std::string& name,
    bool is_rename, std::function<void(Result<Bytes>)> done) {
  router_.CallAsync("meta.bind_file",
                    {WireValue(audit_id.ToBytes()), WireValue(dir_id.ToBytes()),
                     WireValue(name), WireValue(is_rename)},
                    ThenParse(std::move(done), &WireValue::AsBytes));
}

Status MetadataServiceClient::Mkdir(const DirId& dir_id,
                                    const DirId& parent_id,
                                    const std::string& name) {
  return rpc()->queue()->Await<Status>([&](auto done) {
    MkdirAsync(dir_id, parent_id, name, std::move(done));
  });
}

Status MetadataServiceClient::RenameDir(const DirId& dir_id,
                                        const DirId& new_parent_id,
                                        const std::string& new_name) {
  return rpc()->queue()->Await<Status>([&](auto done) {
    RenameDirAsync(dir_id, new_parent_id, new_name, std::move(done));
  });
}

void MetadataServiceClient::MkdirAsync(const DirId& dir_id,
                                       const DirId& parent_id,
                                       const std::string& name,
                                       std::function<void(Status)> done) {
  router_.CallAsync("meta.mkdir",
                    {WireValue(dir_id.ToBytes()),
                     WireValue(parent_id.ToBytes()), WireValue(name)},
                    ThenStatus(std::move(done)));
}

void MetadataServiceClient::RenameDirAsync(const DirId& dir_id,
                                           const DirId& new_parent_id,
                                           const std::string& new_name,
                                           std::function<void(Status)> done) {
  router_.CallAsync("meta.rename_dir",
                    {WireValue(dir_id.ToBytes()),
                     WireValue(new_parent_id.ToBytes()), WireValue(new_name)},
                    ThenStatus(std::move(done)));
}

Status MetadataServiceClient::UploadJournal(
    const std::vector<JournalRecord>& records) {
  WireValue::Array raw;
  for (const auto& record : records) {
    WireValue::Struct r;
    r.emplace("op", WireValue(static_cast<int64_t>(record.op)));
    r.emplace("aid", WireValue(record.audit_id.ToBytes()));
    r.emplace("did", WireValue(record.dir_id.ToBytes()));
    r.emplace("pid", WireValue(record.parent_dir_id.ToBytes()));
    r.emplace("name", WireValue(record.name));
    r.emplace("ts", WireValue(record.client_time.nanos()));
    raw.push_back(WireValue(std::move(r)));
  }
  WireValue::Array payload;
  payload.push_back(WireValue(std::move(raw)));
  // Journal catch-up is deferrable: under overload the metadata tier
  // sheds it first and the device re-uploads on its next pass.
  CallContext ctx;
  ctx.priority = RpcPriority::kBackground;
  auto result = router_.Call("meta.upload_journal", std::move(payload), ctx);
  return result.status();
}

}  // namespace keypad
