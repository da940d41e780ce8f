// Replica set for one key-service shard: a thin typed adapter over the
// generic replication substrate (DESIGN.md §9–§10).
//
// All lease/promotion/ClaimWins/reconciliation logic lives in
// src/replication/replica_set.h; this file only plugs KeyService into the
// ReplicatedStateMachine seam (KeyReplDelta <-> wire, AuditLogEntry
// export) and converts the engine's wire-form orphans back into typed
// audit entries for the ForensicAuditor.

#ifndef SRC_KEYSERVICE_REPLICA_SET_H_
#define SRC_KEYSERVICE_REPLICA_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/keyservice/key_service.h"
#include "src/replication/replica_set.h"
#include "src/replication/state_machine.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"

namespace keypad {

// A replica's sealed-but-divergent audit entry surfaced by reconciliation.
struct OrphanedEntry {
  size_t replica = 0;
  AuditLogEntry entry;
};

class ReplicaSet {
 public:
  // Out of line: Machine is incomplete here.
  ReplicaSet(EventQueue* queue, ReplicaSetOptions options = {});
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  // Adds one replica (index = call order; index 0 starts as leader).
  // Installs the service's replicator and serve gate, so call before
  // KeyService::BindRpc — the replicator forces the async RPC path.
  void AddReplica(KeyService* service, RpcServer* server);

  void Start() { engine_.Start(); }

  size_t size() const { return engine_.size(); }
  KeyService* service(size_t i) const { return services_[i]; }
  RpcServer* rpc_server(size_t i) const { return engine_.rpc_server(i); }

  size_t current_leader() const { return engine_.current_leader(); }
  size_t leader_view(size_t i) const { return engine_.leader_view(i); }
  uint64_t epoch(size_t i) const { return engine_.epoch(i); }
  bool is_leader(size_t i) const { return engine_.is_leader(i); }
  SimTime lease_expiry(size_t i) const { return engine_.lease_expiry(i); }

  // --- Fault injection (Deployment drives these). -------------------------

  void NoteCrashed(size_t i) { engine_.NoteCrashed(i); }
  void NoteRestarted(size_t i) { engine_.NoteRestarted(i); }
  void SetPartitioned(size_t i, bool partitioned) {
    engine_.SetPartitioned(i, partitioned);
  }
  void SchedulePartition(size_t i, SimTime at, SimDuration duration) {
    engine_.SchedulePartition(i, at, duration);
  }

  // --- Admin path (Deployment::ReportDeviceLost). -------------------------

  // Applies on the current leader and ships the resulting audit suffix to
  // the backups immediately (no client response is waiting on it).
  Status DisableDevice(const std::string& device_id);
  Status EnableDevice(const std::string& device_id);
  // Restore-after-theft re-binding (see KeyService::TransferDeviceKeys).
  Status TransferDeviceKeys(const std::string& from_id,
                            const std::string& to_id);

  // --- Audit / introspection. ---------------------------------------------

  const std::vector<FailoverEvent>& timeline() const {
    return engine_.timeline();
  }
  // Engine orphans converted back to typed audit entries (cached).
  const std::vector<OrphanedEntry>& orphaned() const;

  using Stats = ReplicaSetEngine::Stats;
  const Stats& stats() const { return engine_.stats(); }

 private:
  class Machine;  // KeyService -> ReplicatedStateMachine.

  ReplicaSetEngine engine_;
  std::vector<KeyService*> services_;
  std::vector<std::unique_ptr<Machine>> machines_;
  mutable std::vector<OrphanedEntry> typed_orphans_;
};

}  // namespace keypad

#endif  // SRC_KEYSERVICE_REPLICA_SET_H_
