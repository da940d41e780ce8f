#include "src/metaservice/metadata_service.h"

#include "src/util/strings.h"

namespace keypad {

std::string IbeIdentityFor(const DirId& dir_id, const std::string& name,
                           const AuditId& audit_id) {
  return dir_id.ToHex() + "/" + name + "|" + audit_id.ToHex();
}

WireValue RootChange::ToWire() const {
  WireValue::Struct r;
  r.emplace("device", WireValue(device_id));
  r.emplace("root", WireValue(root_id.ToBytes()));
  return WireValue(std::move(r));
}

Result<RootChange> RootChange::FromWire(const WireValue& value) {
  RootChange change;
  KP_ASSIGN_OR_RETURN(WireValue device_v, value.Field("device"));
  KP_ASSIGN_OR_RETURN(change.device_id, device_v.AsString());
  KP_ASSIGN_OR_RETURN(WireValue root_v, value.Field("root"));
  KP_ASSIGN_OR_RETURN(Bytes root_bytes, root_v.AsBytes());
  KP_ASSIGN_OR_RETURN(change.root_id, DirId::FromBytes(root_bytes));
  return change;
}

MetadataService::MetadataService(EventQueue* queue, uint64_t rng_seed,
                                 const PairingParams& group,
                                 SegmentedLogOptions log)
    : ServiceShell(queue, rng_seed, std::move(log), SimDuration()),
      pkg_(group, rng_) {}

Status MetadataService::UploadJournal(
    const std::string& device_id, const std::vector<JournalRecord>& records) {
  KP_RETURN_IF_ERROR(RequireEnabledDevice(device_id));
  for (const auto& journal : records) {
    MetadataRecord record;
    record.device_id = device_id;
    record.op = journal.op;
    record.audit_id = journal.audit_id;
    record.dir_id = journal.dir_id;
    record.parent_dir_id = journal.parent_dir_id;
    record.name = journal.name;
    record.client_time = journal.client_time;
    log_.Append(queue_->Now(), std::move(record));
  }
  return Status::Ok();
}

Status MetadataService::RegisterRoot(const std::string& device_id,
                                     const DirId& root_id) {
  KP_RETURN_IF_ERROR(RequireEnabledDevice(device_id));
  roots_[device_id] = root_id;
  NoteChange(device_id, root_id);
  return RegisterMkdir(device_id, root_id, root_id, "");  // Its own parent.
}

Result<Bytes> MetadataService::RegisterFileBinding(
    const std::string& device_id, const AuditId& audit_id,
    const DirId& dir_id, const std::string& name, bool is_rename) {
  KP_RETURN_IF_ERROR(RequireEnabledDevice(device_id));
  MetadataOp op = is_rename ? MetadataOp::kRenameFile : MetadataOp::kCreateFile;
  // At-most-once across failover: the RPC layer's reply cache dedups
  // retries hitting the *same* server, but a retry that lands on a freshly
  // promoted leader arrives with no cache entry. The binding content makes
  // the duplicate detectable — if the latest binding for this file is
  // already exactly (op, dir, name), the first attempt's record reached the
  // log before the old leader died, so re-extract the (deterministic) IBE
  // key without appending a second record.
  auto latest = log_.LatestBinding(device_id, audit_id, queue_->Now());
  if (!latest.has_value() || latest->op != op || latest->dir_id != dir_id ||
      latest->name != name) {
    // Durably log *before* releasing the IBE unlock key: the key is the
    // proof-of-registration the client (or a thief) needs.
    MetadataRecord record;
    record.device_id = device_id;
    record.op = op;
    record.audit_id = audit_id;
    record.dir_id = dir_id;
    record.name = name;
    log_.Append(queue_->Now(), std::move(record));
  }

  IbePrivateKey key = pkg_.Extract(IbeIdentityFor(dir_id, name, audit_id));
  return key.Serialize(*ibe_params().group);
}

Status MetadataService::RegisterMkdir(const std::string& device_id,
                                      const DirId& dir_id,
                                      const DirId& parent_id,
                                      const std::string& name) {
  KP_RETURN_IF_ERROR(RequireEnabledDevice(device_id));
  MetadataRecord record;
  record.device_id = device_id;
  record.op = MetadataOp::kMkdir;
  record.dir_id = dir_id;
  record.parent_dir_id = parent_id;
  record.name = name;
  log_.Append(queue_->Now(), std::move(record));
  return Status::Ok();
}

Status MetadataService::RegisterDirRename(const std::string& device_id,
                                          const DirId& dir_id,
                                          const DirId& new_parent_id,
                                          const std::string& new_name) {
  KP_RETURN_IF_ERROR(RequireEnabledDevice(device_id));
  MetadataRecord record;
  record.device_id = device_id;
  record.op = MetadataOp::kRenameDir;
  record.dir_id = dir_id;
  record.parent_dir_id = new_parent_id;
  record.name = new_name;
  log_.Append(queue_->Now(), std::move(record));
  return Status::Ok();
}

Status MetadataService::RegisterAttr(const std::string& device_id,
                                     const AuditId& audit_id,
                                     const std::string& attr) {
  KP_RETURN_IF_ERROR(RequireEnabledDevice(device_id));
  MetadataRecord record;
  record.device_id = device_id;
  record.op = MetadataOp::kSetAttr;
  record.audit_id = audit_id;
  record.attr = attr;
  log_.Append(queue_->Now(), std::move(record));
  return Status::Ok();
}

Result<std::string> MetadataService::ResolvePath(const std::string& device_id,
                                                 const AuditId& audit_id,
                                                 SimTime as_of) const {
  auto binding = log_.LatestBinding(device_id, audit_id, as_of);
  if (!binding.has_value()) {
    return NotFoundError("metadata service: no binding for audit id");
  }
  auto root_it = roots_.find(device_id);
  if (root_it == roots_.end()) {
    return FailedPreconditionError("metadata service: no root registered");
  }

  std::vector<std::string> components;
  components.push_back(binding->name);
  DirId dir = binding->dir_id;
  // Walk up the directory records; bail out defensively on cycles.
  for (int depth = 0; depth < 256; ++depth) {
    if (dir == root_it->second) {
      std::string path = "/";
      for (size_t i = components.size(); i > 0; --i) {
        path += components[i - 1];
        if (i > 1) {
          path += "/";
        }
      }
      return path;
    }
    auto dir_binding = log_.LatestDirBinding(device_id, dir, as_of);
    if (!dir_binding.has_value()) {
      return DataLossError("metadata service: dangling directory id");
    }
    components.push_back(dir_binding->name);
    dir = dir_binding->parent_dir_id;
  }
  return DataLossError("metadata service: directory cycle");
}

void FileAnnotation::AppendFlat(Bytes* out) const {
  AppendBlob(*out, path_at_loss);
  AppendU32Be(*out, static_cast<uint32_t>(post_loss_paths.size()));
  for (const std::string& path : post_loss_paths) {
    AppendBlob(*out, path);
  }
}

bool FileAnnotation::ReadFlat(ByteReader& in, FileAnnotation* file) {
  uint32_t count = 0;
  if (!in.Str(&file->path_at_loss) || !in.U32(&count)) {
    return false;
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (!in.Str(&file->post_loss_paths.emplace_back())) {
      return false;
    }
  }
  return true;
}

std::vector<FileAnnotation> MetadataService::Annotate(
    const std::string& device_id, const std::vector<AuditId>& ids,
    SimTime t_loss) const {
  std::vector<FileAnnotation> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    FileAnnotation& file = out[i];
    // Trusted path: metadata as the user last registered it, at Tloss.
    auto path = ResolvePath(device_id, ids[i], t_loss);
    if (path.ok()) {
      file.path_at_loss = std::move(*path);
    }
    // Post-loss registrations (thief unlock registrations / bogus binds).
    for (const auto& record : log_.HistoryOf(device_id, ids[i])) {
      if (record.client_time < t_loss || record.op == MetadataOp::kSetAttr) {
        continue;
      }
      auto post_path = ResolvePath(device_id, ids[i], record.client_time);
      // A bogus binding may name a directory that never existed; surface
      // the raw leaf name rather than dropping the evidence.
      std::string shown = post_path.ok()
                              ? std::move(*post_path)
                              : "<unresolvable dir " +
                                    record.dir_id.ToHex().substr(0, 8) +
                                    ">/" + record.name;
      if (file.post_loss_paths.empty() ||
          file.post_loss_paths.back() != shown) {
        file.post_loss_paths.push_back(std::move(shown));
      }
    }
  }
  return out;
}

void MetadataService::ApplyChanges(const std::vector<RootChange>& changes) {
  for (const auto& change : changes) {
    roots_[change.device_id] = change.root_id;
  }
}

void MetadataService::SnapshotState(WireValue::Struct& snapshot) const {
  std::vector<RootChange> roots;
  for (const auto& [device, root_id] : roots_) {
    roots.push_back({device, root_id});
  }
  snapshot.emplace("roots", ToWireList(roots));
  // Lifecycle state (DESIGN.md §15, §31): the records truncation dropped
  // from the chain, still namespace state.
  snapshot.emplace("cold_bindings", ToWireList(log_.truncated()));
}

Result<std::function<void()>> MetadataService::ParseState(
    const WireValue& snapshot, MetadataLog& log) {
  KP_ASSIGN_OR_RETURN(std::vector<RootChange> raw_roots,
                      FromWireList<RootChange>(snapshot, "roots"));
  std::map<std::string, DirId> roots;
  for (auto& root : raw_roots) {
    roots.emplace(std::move(root.device_id), root.root_id);
  }
  // The truncated rows complete the restored log; rows it does not hang
  // off are a broken chain.
  auto truncated = FromWireList<MetadataRecord>(snapshot, "cold_bindings");
  if (!truncated.ok() || !log.AdoptTruncated(std::move(*truncated)).ok()) {
    return DataLossError(Error("snapshot log chain mismatch"));
  }
  // pkg_ is untouched: the IBE master secret lives in the HSM, not in the
  // crashed process image.
  return std::function<void()>([this, roots = std::move(roots)]() mutable {
    roots_ = std::move(roots);
  });
}

void MetadataService::BindRpc(RpcServer* server) {
  Install(server, "meta.register_root", true, 1,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(DirId id, IdArg<DirId>(payload[0]));
            KP_RETURN_IF_ERROR(RegisterRoot(device, id));
            return WireValue(true);
          });

  Install(server, "meta.bind_file", true, 4,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(AuditId aid, IdArg<AuditId>(payload[0]));
            KP_ASSIGN_OR_RETURN(DirId did, IdArg<DirId>(payload[1]));
            KP_ASSIGN_OR_RETURN(std::string name, payload[2].AsString());
            KP_ASSIGN_OR_RETURN(bool is_rename, payload[3].AsBool());
            KP_ASSIGN_OR_RETURN(
                Bytes ibe_key,
                RegisterFileBinding(device, aid, did, name, is_rename));
            return WireValue(std::move(ibe_key));
          });

  for (const bool mkdir : {true, false}) {
    Install(server, mkdir ? "meta.mkdir" : "meta.rename_dir", true, 3,
            [this, mkdir](const std::string& device,
                          const WireValue::Array& payload)
                -> Result<WireValue> {
              KP_ASSIGN_OR_RETURN(DirId did, IdArg<DirId>(payload[0]));
              KP_ASSIGN_OR_RETURN(DirId pid, IdArg<DirId>(payload[1]));
              KP_ASSIGN_OR_RETURN(std::string name, payload[2].AsString());
              KP_RETURN_IF_ERROR(
                  mkdir ? RegisterMkdir(device, did, pid, name)
                        : RegisterDirRename(device, did, pid, name));
              return WireValue(true);
            });
  }

  // The report's path annotations in one request (DESIGN.md §19): the
  // audit ids the console found in the key-tier window plus Tloss in, one
  // flat FileAnnotation row per id out. The whole chain is verified first,
  // once per request — no result is cached across requests.
  Install(
      server, "audit.annotate", false, 2,
      [this](const std::string& device,
             const WireValue::Array& payload) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(Bytes raw_ids, payload[0].AsBytes());
        KP_ASSIGN_OR_RETURN(int64_t t_loss_ns, payload[1].AsInt());
        std::vector<AuditId> ids;
        ByteReader in(raw_ids);
        while (!in.at_end()) {
          AuditId& id = ids.emplace_back();
          if (!in.Copy(id.v.data(), id.v.size())) {
            return InvalidArgumentError("audit.annotate: ragged id list");
          }
        }
        KP_RETURN_IF_ERROR(log_.Verify());
        return WireValue(
            EncodeFlatRows(Annotate(device, ids, SimTime(t_loss_ns))));
      });

  InstallSharedRpc(server);
}

}  // namespace keypad
