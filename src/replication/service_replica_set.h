// Replica set for one service (a key shard or the metadata tier): the one
// typed adapter between a ServiceShell tier and the generic replication
// engine (DESIGN.md §9–§10, §21).
//
// All lease/promotion/ClaimWins logic lives in src/replication/
// replica_set.h; this file only plugs a service into the
// ReplicatedStateMachine seam (its delta <-> wire, and reconciliation on
// its typed log rows) and keeps the orphaned rows for the ForensicAuditor.

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

  ServiceReplicaSet(EventQueue* queue, uint64_t seed) : engine_(queue, seed) {}

  ServiceReplicaSet(const ServiceReplicaSet&) = delete;
  ServiceReplicaSet& operator=(const ServiceReplicaSet&) = delete;

  // Adds one replica (index = call order; index 0 starts as leader).
  // Installs the service's replicator and serve gate, so call before the
  // service's BindRpc — the replicator forces the held-response path.
  void AddReplica(Service* service, RpcServer* server) {
    machines_.push_back(
        std::make_unique<Machine>(service, services_.size(), &orphaned_));
    services_.push_back(service);
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
  // Every replica's orphaned rows, in reconciliation order.
  const std::vector<OrphanedRow<Row>>& orphaned() const { return orphaned_; }

  using Stats = ReplicaSetEngine::Stats;
  const Stats& stats() const { return engine_.stats(); }

 private:
  // Plugs one service into the engine: deltas cross the seam in their wire
  // form; reconciliation keeps the log's typed rows, proves the common
  // prefix next to the chain code and appends the orphans to the set's.
  class Machine : public ReplicatedStateMachine {
   public:
    Machine(Service* service, size_t index,
            std::vector<OrphanedRow<Row>>* orphaned)
        : service_(service), index_(index), orphaned_(orphaned) {}

    uint64_t LogSize() const override { return service_->log().size(); }
    uint64_t ShippedSeq() const override { return service_->shipped_seq(); }
    Bytes Snapshot() const override { return service_->Snapshot(); }
    Result<size_t> Reconcile(const Bytes& snapshot) override {
      auto before = service_->log().Retain();
      KP_RETURN_IF_ERROR(service_->Restore(snapshot));
      std::vector<Row> rows = service_->log().DivergedRows(std::move(before));
      for (Row& row : rows) {
        orphaned_->push_back({index_, std::move(row)});
      }
      return rows.size();
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
    void InstallDurableWatermark(
        std::function<uint64_t()> watermark) override {
      service_->set_durable_watermark(std::move(watermark));
    }

   private:
    Service* service_;
    size_t index_;
    std::vector<OrphanedRow<Row>>* orphaned_;
  };

  ReplicaSetEngine engine_;
  std::vector<Service*> services_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<OrphanedRow<Row>> orphaned_;
};

}  // namespace keypad

#endif  // SRC_REPLICATION_SERVICE_REPLICA_SET_H_
