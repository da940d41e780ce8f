// NFSv3-like networked file system baseline for the Fig. 10 comparison.
//
// The paper argues a networked FS is the natural alternative to Keypad —
// instead of only the keys, all the content lives remotely, which gives
// comparable (short-horizon) audit properties. It then shows NFS collapsing
// as RTT grows while Keypad stays flat. This implementation mirrors the
// configuration the paper used: asynchronous batched writes and the default
// client caching policy (attribute cache with a short TTL validating a
// data cache — close-to-open-style consistency), with no bandwidth
// constraint ("our results are upper bounds of NFS performance").

#ifndef SRC_NFS_NFS_H_
#define SRC_NFS_NFS_H_

#include <map>
#include <memory>
#include <string>

#include "src/encfs/encfs.h"
#include "src/rpc/rpc.h"

namespace keypad {

// Server: owns a plain FS on its own device; exposes nfs.* RPC methods.
class NfsServer {
 public:
  NfsServer(EventQueue* queue, uint64_t rng_seed);

  void BindRpc(RpcServer* server);
  Vfs& fs() { return *fs_; }

 private:
  BlockDevice device_;
  std::unique_ptr<EncFs> fs_;  // Plain mode (the server stores cleartext).
};

// Client: a Vfs whose operations are RPCs, with caching.
class NfsClient : public Vfs {
 public:
  NfsClient(EventQueue* queue, RpcClient* rpc) : queue_(queue), rpc_(rpc) {}

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

  // Flushes all buffered writes (fsync/close semantics).
  Status FlushAll();

  uint64_t rpcs_sent() const { return rpcs_sent_; }

 private:
  struct CachedAttrs {
    StatInfo info;
    SimTime fetched_at;
    uint64_t change_counter = 0;  // Server-side version for validation.
  };
  struct CachedData {
    Bytes content;
    uint64_t change_counter = 0;
  };
  struct WriteBuffer {
    // Pending byte ranges, coalesced as (offset, data) in order.
    std::vector<std::pair<uint64_t, Bytes>> chunks;
    size_t bytes = 0;
  };

  Result<WireValue> Call(const std::string& method, WireValue::Array params);
  Result<CachedAttrs> GetAttrs(const std::string& path);
  Status FlushPath(const std::string& path);
  void Invalidate(const std::string& path);

  EventQueue* queue_;
  RpcClient* rpc_;
  std::map<std::string, CachedAttrs> attr_cache_;
  std::map<std::string, CachedData> data_cache_;
  std::map<std::string, WriteBuffer> write_buffers_;
  uint64_t rpcs_sent_ = 0;
};

}  // namespace keypad

#endif  // SRC_NFS_NFS_H_
