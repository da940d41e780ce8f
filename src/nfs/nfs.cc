#include "src/nfs/nfs.h"

namespace keypad {

namespace {
// Client attribute-cache TTL (Linux nfs default ac range is 3..60 s; this
// is the floor, which is also the most favourable to NFS's consistency).
constexpr SimDuration kAttrTtl = SimDuration::Seconds(3);
// Client write-behind buffer per file; flushed when full or on rename/stat.
constexpr size_t kWriteBufferLimit = 64 * 1024;
// Client CPU cost per operation (VFS + RPC client path).
constexpr SimDuration kClientOpCost = SimDuration::Micros(120);
}  // namespace

// --- Server. -------------------------------------------------------------------

NfsServer::NfsServer(EventQueue* queue, uint64_t rng_seed) {
  EncFs::Options options;
  options.encrypt = false;
  options.costs = FsCostModel::Ext3();
  auto fs = EncFs::Format(&device_, queue, rng_seed, "", options);
  fs_ = std::move(*fs);
}

void NfsServer::BindRpc(RpcServer* server) {
  // Change counters give the client's caches something to validate against.
  auto changes = std::make_shared<std::map<std::string, int64_t>>();
  auto bump = [changes](const std::string& path) { ++(*changes)[path]; };
  auto change_of = [changes](const std::string& path) {
    auto it = changes->find(path);
    return it == changes->end() ? int64_t{0} : it->second;
  };

  server->RegisterMethod(
      "nfs.getattr",
      [this, change_of](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_ASSIGN_OR_RETURN(StatInfo info, fs_->Stat(path));
        WireValue::Struct out;
        out.emplace("dir", WireValue(info.is_dir));
        out.emplace("size", WireValue(static_cast<int64_t>(info.size)));
        out.emplace("change", WireValue(change_of(path)));
        return WireValue(std::move(out));
      });

  server->RegisterMethod(
      "nfs.read_all",
      [this, change_of](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_ASSIGN_OR_RETURN(Bytes content, fs_->ReadAll(path));
        WireValue::Struct out;
        out.emplace("data", WireValue(std::move(content)));
        out.emplace("change", WireValue(change_of(path)));
        return WireValue(std::move(out));
      });

  server->RegisterMethod(
      "nfs.write_batch",
      [this, bump](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_ASSIGN_OR_RETURN(WireValue::Array chunks, params.at(1).AsArray());
        for (const auto& chunk : chunks) {
          KP_ASSIGN_OR_RETURN(WireValue off_v, chunk.Field("off"));
          KP_ASSIGN_OR_RETURN(int64_t off, off_v.AsInt());
          KP_ASSIGN_OR_RETURN(WireValue data_v, chunk.Field("data"));
          KP_ASSIGN_OR_RETURN(Bytes data, data_v.AsBytes());
          KP_RETURN_IF_ERROR(
              fs_->Write(path, static_cast<uint64_t>(off), data));
        }
        bump(path);
        return WireValue(true);
      });

  server->RegisterMethod(
      "nfs.create",
      [this, bump](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_RETURN_IF_ERROR(fs_->Create(path));
        bump(path);
        return WireValue(true);
      });

  server->RegisterMethod(
      "nfs.mkdir",
      [this](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_RETURN_IF_ERROR(fs_->Mkdir(path));
        return WireValue(true);
      });

  server->RegisterMethod(
      "nfs.rename",
      [this, bump](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string from, params.at(0).AsString());
        KP_ASSIGN_OR_RETURN(std::string to, params.at(1).AsString());
        KP_RETURN_IF_ERROR(fs_->Rename(from, to));
        bump(from);
        bump(to);
        return WireValue(true);
      });

  server->RegisterMethod(
      "nfs.unlink",
      [this, bump](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_RETURN_IF_ERROR(fs_->Unlink(path));
        bump(path);
        return WireValue(true);
      });

  server->RegisterMethod(
      "nfs.rmdir",
      [this](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_RETURN_IF_ERROR(fs_->Rmdir(path));
        return WireValue(true);
      });

  server->RegisterMethod(
      "nfs.readdir",
      [this](const WireValue::Array& params) -> Result<WireValue> {
        KP_ASSIGN_OR_RETURN(std::string path, params.at(0).AsString());
        KP_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                            fs_->Readdir(path));
        WireValue::Array out;
        for (const auto& entry : entries) {
          WireValue::Struct e;
          e.emplace("name", WireValue(entry.name));
          e.emplace("dir", WireValue(entry.is_dir));
          out.push_back(WireValue(std::move(e)));
        }
        return WireValue(std::move(out));
      });
}

// --- Client. -------------------------------------------------------------------

Result<WireValue> NfsClient::Call(const std::string& method,
                                  WireValue::Array params) {
  ++rpcs_sent_;
  return rpc_->Call(method, std::move(params));
}

void NfsClient::Invalidate(const std::string& path) {
  attr_cache_.erase(path);
  data_cache_.erase(path);
}

Result<NfsClient::CachedAttrs> NfsClient::GetAttrs(const std::string& path) {
  auto it = attr_cache_.find(path);
  if (it != attr_cache_.end() &&
      queue_->Now() - it->second.fetched_at < kAttrTtl) {
    return it->second;
  }
  KP_ASSIGN_OR_RETURN(WireValue result, Call("nfs.getattr", {WireValue(path)}));
  CachedAttrs attrs;
  KP_ASSIGN_OR_RETURN(WireValue dir_v, result.Field("dir"));
  KP_ASSIGN_OR_RETURN(attrs.info.is_dir, dir_v.AsBool());
  KP_ASSIGN_OR_RETURN(WireValue size_v, result.Field("size"));
  KP_ASSIGN_OR_RETURN(int64_t size, size_v.AsInt());
  attrs.info.size = static_cast<uint64_t>(size);
  KP_ASSIGN_OR_RETURN(WireValue change_v, result.Field("change"));
  KP_ASSIGN_OR_RETURN(int64_t change, change_v.AsInt());
  attrs.change_counter = static_cast<uint64_t>(change);
  attrs.fetched_at = queue_->Now();
  attr_cache_[path] = attrs;
  return attrs;
}

Status NfsClient::FlushPath(const std::string& path) {
  auto it = write_buffers_.find(path);
  if (it == write_buffers_.end() || it->second.chunks.empty()) {
    return Status::Ok();
  }
  WireValue::Array chunks;
  for (auto& [offset, data] : it->second.chunks) {
    WireValue::Struct chunk;
    chunk.emplace("off", WireValue(static_cast<int64_t>(offset)));
    chunk.emplace("data", WireValue(std::move(data)));
    chunks.push_back(WireValue(std::move(chunk)));
  }
  write_buffers_.erase(it);
  Invalidate(path);
  auto result =
      Call("nfs.write_batch", {WireValue(path), WireValue(std::move(chunks))});
  return result.status();
}

Status NfsClient::FlushAll() {
  std::vector<std::string> paths;
  for (const auto& [path, buffer] : write_buffers_) {
    paths.push_back(path);
  }
  for (const auto& path : paths) {
    KP_RETURN_IF_ERROR(FlushPath(path));
  }
  return Status::Ok();
}

Status NfsClient::Create(const std::string& path) {
  queue_->AdvanceBy(kClientOpCost);
  Invalidate(path);
  return Call("nfs.create", {WireValue(path)}).status();
}

Result<Bytes> NfsClient::Read(const std::string& path, uint64_t offset,
                              size_t len) {
  queue_->AdvanceBy(kClientOpCost);
  KP_RETURN_IF_ERROR(FlushPath(path));  // Read-your-writes.
  KP_ASSIGN_OR_RETURN(CachedAttrs attrs, GetAttrs(path));

  auto cached = data_cache_.find(path);
  if (cached == data_cache_.end() ||
      cached->second.change_counter != attrs.change_counter) {
    KP_ASSIGN_OR_RETURN(WireValue result,
                        Call("nfs.read_all", {WireValue(path)}));
    CachedData data;
    KP_ASSIGN_OR_RETURN(WireValue data_v, result.Field("data"));
    KP_ASSIGN_OR_RETURN(data.content, data_v.AsBytes());
    KP_ASSIGN_OR_RETURN(WireValue change_v, result.Field("change"));
    KP_ASSIGN_OR_RETURN(int64_t change, change_v.AsInt());
    data.change_counter = static_cast<uint64_t>(change);
    cached = data_cache_.insert_or_assign(path, std::move(data)).first;
  }
  const Bytes& content = cached->second.content;
  if (offset >= content.size()) {
    return Bytes{};
  }
  size_t end = std::min(content.size(), static_cast<size_t>(offset) + len);
  return Bytes(content.begin() + static_cast<long>(offset),
               content.begin() + static_cast<long>(end));
}

Status NfsClient::Write(const std::string& path, uint64_t offset,
                        const Bytes& data) {
  queue_->AdvanceBy(kClientOpCost);
  WriteBuffer& buffer = write_buffers_[path];
  buffer.bytes += data.size();
  buffer.chunks.emplace_back(offset, data);
  if (buffer.bytes >= kWriteBufferLimit) {
    return FlushPath(path);
  }
  return Status::Ok();
}

Status NfsClient::Mkdir(const std::string& path) {
  queue_->AdvanceBy(kClientOpCost);
  return Call("nfs.mkdir", {WireValue(path)}).status();
}

Status NfsClient::Rename(const std::string& from, const std::string& to) {
  queue_->AdvanceBy(kClientOpCost);
  KP_RETURN_IF_ERROR(FlushPath(from));
  Invalidate(from);
  Invalidate(to);
  return Call("nfs.rename", {WireValue(from), WireValue(to)}).status();
}

Status NfsClient::Unlink(const std::string& path) {
  queue_->AdvanceBy(kClientOpCost);
  write_buffers_.erase(path);
  Invalidate(path);
  return Call("nfs.unlink", {WireValue(path)}).status();
}

Status NfsClient::Rmdir(const std::string& path) {
  queue_->AdvanceBy(kClientOpCost);
  return Call("nfs.rmdir", {WireValue(path)}).status();
}

Result<std::vector<DirEntry>> NfsClient::Readdir(const std::string& path) {
  queue_->AdvanceBy(kClientOpCost);
  KP_ASSIGN_OR_RETURN(WireValue result, Call("nfs.readdir", {WireValue(path)}));
  KP_ASSIGN_OR_RETURN(WireValue::Array entries, result.AsArray());
  std::vector<DirEntry> out;
  for (const auto& entry : entries) {
    DirEntry e;
    KP_ASSIGN_OR_RETURN(WireValue name_v, entry.Field("name"));
    KP_ASSIGN_OR_RETURN(e.name, name_v.AsString());
    KP_ASSIGN_OR_RETURN(WireValue dir_v, entry.Field("dir"));
    KP_ASSIGN_OR_RETURN(e.is_dir, dir_v.AsBool());
    out.push_back(std::move(e));
  }
  return out;
}

Result<StatInfo> NfsClient::Stat(const std::string& path) {
  queue_->AdvanceBy(kClientOpCost);
  KP_RETURN_IF_ERROR(FlushPath(path));
  KP_ASSIGN_OR_RETURN(CachedAttrs attrs, GetAttrs(path));
  return attrs.info;
}

}  // namespace keypad
