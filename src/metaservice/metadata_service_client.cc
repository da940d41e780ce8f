#include "src/metaservice/metadata_service_client.h"

#include <utility>

namespace keypad {

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
  return rpc()->queue()->Await<Status>([&](auto done) {
    router_.UploadJournalAsync("meta.upload_journal", records, std::move(done));
  });
}

}  // namespace keypad
