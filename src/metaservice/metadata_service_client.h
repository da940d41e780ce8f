// Client stub for the metadata service RPC protocol.
//
// Replica-aware mode (DESIGN.md §10): routing is delegated to the generic
// ReplicaRouter — leader hint, NOT_LEADER:<i> redirects from the serve
// gate, probe-backoff failover cycles under a budget. This stub only
// contributes the metadata-tier auth framing and typed (de)marshalling,
// exactly mirroring KeyServiceClient over the key tier. A blocking method
// with an async twin is that twin awaited (DESIGN.md §22).

#ifndef SRC_METASERVICE_METADATA_SERVICE_CLIENT_H_
#define SRC_METASERVICE_METADATA_SERVICE_CLIENT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/replication/failover_client.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

class MetadataServiceClient {
 public:
  // Single-endpoint stub (unreplicated service) — the historical layout.
  MetadataServiceClient(RpcClient* rpc, std::string device_id,
                        Bytes device_secret)
      : device_id_(std::move(device_id)),
        device_secret_(std::move(device_secret)),
        router_(rpc, MakeFramer()) {}

  // Replica-set stub: one RpcClient per metadata replica, in replica-index
  // order (NOT_LEADER redirects are indices into this list).
  MetadataServiceClient(EventQueue* queue, std::vector<RpcClient*> replicas,
                        std::string device_id, Bytes device_secret,
                        FailoverOptions failover)
      : device_id_(std::move(device_id)),
        device_secret_(std::move(device_secret)),
        router_(queue, std::move(replicas), MakeFramer(), failover) {}

  Status RegisterRoot(const DirId& root_id);

  // Registers a file binding; returns the serialized IBE private key for
  // the new identity.
  Result<Bytes> BindFile(const AuditId& audit_id, const DirId& dir_id,
                         const std::string& name, bool is_rename);
  // Async variant — the IBE path: ship the binding, keep working, unlock
  // the file when the key arrives.
  void BindFileAsync(const AuditId& audit_id, const DirId& dir_id,
                     const std::string& name, bool is_rename,
                     std::function<void(Result<Bytes>)> done);

  Status Mkdir(const DirId& dir_id, const DirId& parent_id,
               const std::string& name);
  Status RenameDir(const DirId& dir_id, const DirId& new_parent_id,
                   const std::string& new_name);
  // Async variants for proxies that must not block their RPC handlers.
  void MkdirAsync(const DirId& dir_id, const DirId& parent_id,
                  const std::string& name, std::function<void(Status)> done);
  void RenameDirAsync(const DirId& dir_id, const DirId& new_parent_id,
                      const std::string& new_name,
                      std::function<void(Status)> done);
  Status SetAttr(const AuditId& audit_id, const std::string& attr);

  // Paired-device journal upload.
  struct JournalRecord {
    int64_t op = 0;  // MetadataOp value.
    AuditId audit_id;
    DirId dir_id;
    DirId parent_dir_id;
    std::string name;
    SimTime client_time;
  };
  Status UploadJournal(const std::vector<JournalRecord>& records);

  const std::string& device_id() const { return device_id_; }
  RpcClient* rpc() const { return router_.rpc(); }

  size_t replica_count() const { return router_.replica_count(); }
  size_t leader_hint() const { return router_.leader_hint(); }
  // How often a call moved to another replica after a failure, and how
  // often a NOT_LEADER redirect was followed.
  uint64_t failovers() const { return router_.failovers(); }
  uint64_t redirects() const { return router_.redirects(); }

 private:
  ReplicaRouter::Framer MakeFramer() const;

  std::string device_id_;
  Bytes device_secret_;
  ReplicaRouter router_;
};

}  // namespace keypad

#endif  // SRC_METASERVICE_METADATA_SERVICE_CLIENT_H_
