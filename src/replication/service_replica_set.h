// Replica set for one service (a key shard or the metadata tier): the one
// typed adapter between a ServiceShell tier and the generic replication
// engine (DESIGN.md §9–§10, §21).
//
// All lease/promotion/ClaimWins/reconciliation logic lives in
// src/replication/replica_set.h; this file only plugs a service into the
// ReplicatedStateMachine seam (its delta <-> wire, log-row export) and
// converts the engine's wire-form orphans back into typed log rows for the
// ForensicAuditor.

#ifndef SRC_REPLICATION_SERVICE_REPLICA_SET_H_
#define SRC_REPLICATION_SERVICE_REPLICA_SET_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/replication/replica_set.h"
#include "src/replication/state_machine.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"

namespace keypad {

// A replica's sealed-but-divergent log row surfaced by reconciliation — an
// entry some replica logged that the merged history does not carry
// (duplicated in the worst case, never lost).
template <typename Row>
struct OrphanedRow {
  size_t replica = 0;
  Row entry;
};

template <typename Service>
class ServiceReplicaSet {
 public:
  using Row = typename Service::Row;

  explicit ServiceReplicaSet(EventQueue* queue, ReplicaSetOptions options = {})
      : engine_(queue, options) {}

  ServiceReplicaSet(const ServiceReplicaSet&) = delete;
  ServiceReplicaSet& operator=(const ServiceReplicaSet&) = delete;

  // Adds one replica (index = call order; index 0 starts as leader).
  // Installs the service's replicator and serve gate, so call before the
  // service's BindRpc — the replicator forces the held-response path.
  void AddReplica(Service* service, RpcServer* server) {
    services_.push_back(service);
    machines_.push_back(std::make_unique<Machine>(service));
    engine_.AddReplica(machines_.back().get(), server);
  }

  void Start() { engine_.Start(); }

  size_t size() const { return engine_.size(); }
  Service* service(size_t i) const { return services_[i]; }
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

  // --- Admin path (device disable, restore-after-theft re-binding). -------

  // Runs `mutate` on the current leader and ships the resulting log suffix
  // to the backups immediately (no client response is waiting on it).
  Status MutateLeader(const std::function<Status(Service&)>& mutate) {
    Service& leader = *services_[current_leader()];
    return engine_.MutateOnLeader(
        [&](ReplicatedStateMachine*) { return mutate(leader); });
  }

  // --- Audit / introspection. ---------------------------------------------

  const std::vector<FailoverEvent>& timeline() const {
    return engine_.timeline();
  }
  // Engine orphans converted back to typed log rows (cached).
  const std::vector<OrphanedRow<Row>>& orphaned() const {
    const auto& wire = engine_.orphaned();
    while (typed_orphans_.size() < wire.size()) {
      const OrphanedWireEntry& orphan = wire[typed_orphans_.size()];
      auto row = Row::FromWire(orphan.entry);
      typed_orphans_.push_back({orphan.replica, row.ok() ? *row : Row{}});
    }
    return typed_orphans_;
  }

  using Stats = ReplicaSetEngine::Stats;
  const Stats& stats() const { return engine_.stats(); }

 private:
  // Plugs one service into the engine: deltas cross the seam in their wire
  // form, log rows in theirs (which carries exactly the fields
  // reconciliation compares — seq, grouping, timestamps, device, ids, op,
  // and both chain hashes).
  class Machine : public ReplicatedStateMachine {
   public:
    explicit Machine(Service* service) : service_(service) {}

    uint64_t LogSize() const override { return service_->log().size(); }
    uint64_t ShippedSeq() const override { return service_->shipped_seq(); }
    Bytes Snapshot() const override { return service_->Snapshot(); }
    Status Restore(const Bytes& snapshot) override {
      return service_->Restore(snapshot);
    }
    Status ApplyDelta(const WireValue& delta) override {
      KP_ASSIGN_OR_RETURN(typename Service::Delta parsed,
                          Service::Delta::FromWire(delta));
      return service_->ApplyReplicated(parsed);
    }
    void ReplicateNow() override { service_->ReplicateNow(); }
    void InstallReplicator(ShipFn ship) override {
      service_->set_replicator(
          [ship = std::move(ship)](typename Service::Delta delta,
                                   std::function<void()> done) {
            size_t row_count = delta.rows.size();
            ship(delta.ToWire(), row_count, std::move(done));
          });
    }
    void InstallServeGate(std::function<Status()> gate) override {
      service_->set_serve_gate(std::move(gate));
    }
    std::vector<WireValue> ExportEntries() const override {
      const auto& rows = service_->log().entries();
      std::vector<WireValue> out;
      out.reserve(rows.size());
      for (const auto& row : rows) {
        out.push_back(row.ToWire());
      }
      return out;
    }
    uint64_t ExportBaseSeq() const override {
      return service_->log().base_seq();
    }
    std::vector<ExportedCheckpoint> ExportCheckpoints() const override {
      const auto& ckpts = service_->log().checkpoints();
      std::vector<ExportedCheckpoint> out;
      out.reserve(ckpts.size());
      for (const auto& ckpt : ckpts) {
        out.push_back({ckpt.end_seq, ckpt.hash});
      }
      return out;
    }
    void InstallDurableWatermark(
        std::function<uint64_t()> watermark) override {
      service_->set_durable_watermark(std::move(watermark));
    }

   private:
    Service* service_;
  };

  ReplicaSetEngine engine_;
  std::vector<Service*> services_;
  std::vector<std::unique_ptr<Machine>> machines_;
  mutable std::vector<OrphanedRow<Row>> typed_orphans_;
};

}  // namespace keypad

#endif  // SRC_REPLICATION_SERVICE_REPLICA_SET_H_
