// Generic replica-set engine: lease-based primary/backup failover with
// hash-chain reconciliation (DESIGN.md §9–§10).
//
// One ReplicaSetEngine coordinates R colocated replicas of the same
// service tier (primary + backups) over per-pair LAN links that are
// independent of the laptop's client link. The tier plugs in through the
// ReplicatedStateMachine seam; the engine itself never sees concrete log
// or delta types. The protocol, in one paragraph:
//
//  * The leader streams every sealed commit group (plus the state
//    mutations it describes) to all in-sync backups via repl.append and
//    releases the held client responses only after every in-sync backup
//    acknowledged — so a client-acknowledged log record exists on every
//    in-sync replica and can never be lost to a single-replica failure.
//  * Leadership rests on time-bounded leases. The leader renews at fixed
//    phase — its start or promotion instant + k * kRenewInterval — with a
//    typed control-plane message over the pair link (its claim; no codec,
//    no RPC); each backup that hears one extends its local grant by
//    kLeaseDuration. A backup whose grant lapses promotes at expiry +
//    kPromoteStagger * replica_index (deterministic seniority: the
//    lowest-index live backup wins), bumps the epoch, and announces
//    itself — its first renewal IS the NEW_LEADER announcement.
//  * Renewals nobody could observe are not simulated (DESIGN.md §17):
//    while a leader↔backup pair is healthy (both up, no partition, the
//    backup following this leader at its epoch) the backup's grant is
//    computed from the tick schedule, with no message, renewal timer or
//    promotion timer. Every fault and leadership change first folds the
//    computed renewals into the stored lease (one still on the wire lands
//    as a real event) and re-arms the timers, so a failover unfolds
//    exactly as if every renewal had been sent.
//  * Competing leaders (a healed partition) resolve pairwise by ClaimWins:
//    longer log chain first (preserves the most records), then higher
//    epoch, then lower replica index. The loser steps down and reconciles.
//  * Reconciliation (rejoin after crash/step-down): fetch the winner's
//    snapshot, find the longest common chain prefix, surface every local
//    sealed entry past the divergence point as *orphaned* (handed to the
//    ForensicAuditor — duplicated in the worst case, never lost), adopt
//    the winner's state, and re-enter the set as an in-sync backup.
//
// The repl.* RPC surface (append, status, snapshot, rejoin) rides the
// ordinary RpcServer of each replica, so a crashed replica (server down)
// naturally swallows replication traffic; renewals reaching a crashed
// replica are dropped the same way, and partitions are injected on the
// pair links.
//
// Everything here is async (CallAsync only): engine code runs inside
// scheduled events, where a virtually-blocking Call() would re-enter the
// event queue.

#ifndef SRC_REPLICATION_REPLICA_SET_H_
#define SRC_REPLICATION_REPLICA_SET_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/profile.h"
#include "src/replication/lease.h"
#include "src/replication/state_machine.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"

namespace keypad {

// How long the leader waits for one backup's append acknowledgement
// before marking it out-of-sync (availability over redundancy: the
// response still releases, carried by the surviving in-sync set).
inline constexpr SimDuration kAckTimeout = SimDuration::Seconds(1);

// One entry of the deterministic failover timeline (bench_availability
// compares two same-seed runs of this record for bit-equality).
struct FailoverEvent {
  SimTime at;
  std::string what;  // start|promote|step_down|rejoin|out_of_sync|candidate
  size_t replica = 0;
  uint64_t epoch = 0;
};

class ReplicaSetEngine {
 public:
  // `seed` seeds the per-pair link fault streams. Replication links are
  // datacenter-internal (LanProfile).
  ReplicaSetEngine(EventQueue* queue, uint64_t seed);
  ~ReplicaSetEngine();

  ReplicaSetEngine(const ReplicaSetEngine&) = delete;
  ReplicaSetEngine& operator=(const ReplicaSetEngine&) = delete;

  // Adds one replica (index = call order; index 0 starts as leader).
  // Installs the machine's replicator and serve gate, so call before the
  // service binds its RPC surface — the replicator forces the async path.
  void AddReplica(ReplicatedStateMachine* machine, RpcServer* server);

  // Builds the pair links/clients, registers repl.* on every replica's
  // server, and grants the initial leases (quiescent: no renewal is
  // scheduled while every pair stays healthy).
  void Start();

  size_t size() const { return replicas_.size(); }
  ReplicatedStateMachine* machine(size_t i) const {
    return replicas_[i]->machine;
  }
  RpcServer* rpc_server(size_t i) const { return replicas_[i]->server; }

  // The authoritative replica right now: the best self-claimed live leader
  // (ClaimWins), else the live replica with the longest chain, one still
  // rejoining only if every live replica is, else 0.
  size_t current_leader() const;
  // Who replica i currently believes leads (its serve gate redirects here).
  size_t leader_view(size_t i) const { return replicas_[i]->view_leader; }
  uint64_t epoch(size_t i) const { return replicas_[i]->epoch; }
  // A restarted replica claims nothing until it has rejoined or promoted:
  // its stale view may name itself over a chain it is about to reconcile.
  bool is_leader(size_t i) const {
    const Replica& replica = *replicas_[i];
    return !replica.crashed && !replica.rejoining && replica.view_leader == i;
  }
  // When replica i's grant to its leader lapses, as of now (computed
  // renewals of a quiescent pair included).
  SimTime lease_expiry(size_t i) const;

  // --- Fault injection (Deployment drives these). -------------------------

  // The replica's process died: stop its timers and drop its in-flight
  // replication work. The caller handles Snapshot/set_down.
  void NoteCrashed(size_t i);
  // The replica's process is back (state restored by the caller): rejoin
  // the set — probe for a leader, reconcile chains, re-enter as backup, or
  // stand as a promotion candidate if no leader answers.
  void NoteRestarted(size_t i);
  // Silently blackholes all replication traffic to and from replica i
  // (both directions of every incident pair link). The client link is not
  // touched — a partitioned primary still serves, which is exactly the
  // split-brain scenario reconciliation exists for.
  void SetPartitioned(size_t i, bool partitioned);

  // --- Admin path. --------------------------------------------------------

  // Runs a state mutation on the current leader's machine and ships the
  // resulting log suffix to the backups immediately (no client response
  // waits on an admin mutation, but the backups must still learn it before
  // they can take over enforcing it).
  Status MutateOnLeader(
      const std::function<Status(ReplicatedStateMachine*)>& mutate);

  // --- Audit / introspection. ---------------------------------------------

  const std::vector<FailoverEvent>& timeline() const { return timeline_; }

  struct Stats {
    uint64_t deltas_shipped = 0;
    uint64_t delta_entries_shipped = 0;
    uint64_t append_acks = 0;
    uint64_t append_failures = 0;
    uint64_t promotions = 0;
    uint64_t step_downs = 0;
    uint64_t rejoins = 0;
    uint64_t reconcile_rounds = 0;
    uint64_t orphaned_entries = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PendingShip {
    WireValue delta;
    size_t entry_count = 0;
    std::function<void()> done;
  };

  struct Replica {
    ReplicatedStateMachine* machine = nullptr;
    RpcServer* server = nullptr;
    size_t index = 0;
    size_t view_leader = 0;
    uint64_t epoch = 1;
    LeaseState lease;
    EventQueue::EventId promote_event = EventQueue::kInvalidEvent;
    EventQueue::EventId renew_event = EventQueue::kInvalidEvent;
    // Leader side: the first point of the renewal schedule (start or
    // promotion instant + k * kRenewInterval) not yet sent.
    SimTime next_tick;
    // Backup side: while the pair with its leader is healthy, its renewals
    // from the tick `quiescent_from` on are computed, not delivered.
    bool quiescent = false;
    SimTime quiescent_from;
    bool crashed = false;
    // Restarted, and not yet rejoined or promoted.
    bool rejoining = false;
    // Leader-side view of which peers are in the synchronous-ack set.
    std::vector<bool> in_sync;
    // Leader-side: the chain length each peer is known to have durably
    // applied (updated on append acks and rejoins). The minimum over the
    // peers is this replica's durable watermark — the truncation anchor
    // handed to the tier (DESIGN.md §15): a segmented log never drops an
    // entry some replica has not yet acknowledged.
    std::vector<uint64_t> acked;
    // Bumped on crash/step-down so stale async callbacks self-cancel.
    uint64_t generation = 0;
    // Leader-side ship pipeline: one round in flight, rest queued (keeps
    // deltas applying in order on the backups).
    std::deque<PendingShip> ship_queue;
    bool ship_in_flight = false;
  };

  // Claim comparison: (chain length desc, epoch desc, index asc). The
  // longest chain wins so reconciliation orphans as little as possible.
  struct Claim {
    uint64_t log_size = 0;
    uint64_t epoch = 0;
    size_t index = 0;
  };
  static bool ClaimWins(const Claim& a, const Claim& b);
  Claim ClaimOf(size_t i) const;
  // "NOT_LEADER:<j>", replica i's refusal of a leader-only call, naming
  // the leader it follows, or, while it rejoins, current_leader() (no <j>
  // when that is i itself).
  Status NotLeader(size_t i) const;

  // Truncation anchor for replica i: min chain length acknowledged across
  // every peer (own LogSize when sole replica; 0 until Start()).
  uint64_t DurableWatermarkFor(size_t i) const;

  RpcClient* ClientTo(size_t from, size_t to) const {
    return clients_[from * replicas_.size() + to].get();
  }
  NetworkLink* LinkTo(size_t from, size_t to) const {
    return links_[from * replicas_.size() + to].get();
  }

  void RegisterHandlers(size_t i);
  void Record(const std::string& what, size_t replica, uint64_t epoch);

  // Lease machinery.
  void ArmPromote(size_t i);
  void OnPromoteTimer(size_t i);
  void Promote(size_t i);
  SimTime FirstUnsentTick(size_t i) const;
  // Whether replica j must hear leader i's renewals as messages (it is not
  // quiescent under i), and whether any replica must.
  bool HearsMessages(size_t i, size_t j) const;
  bool NeedsRenewals(size_t i) const;
  void EnsureRenewals(size_t i);
  void RenewTick(size_t i, SimTime tick);
  void DeliverRenewal(size_t i, const Claim& theirs,
                      uint64_t sender_generation);

  // Quiescent leases (DESIGN.md §17).
  bool PairHealthy(size_t leader, size_t i) const;
  // When quiescent backup i heard its newest renewal; the ticks sent to it
  // but still on the wire go to `in_flight` when given.
  std::optional<SimTime> LastRenewalHeard(
      size_t i, std::vector<SimTime>* in_flight) const;
  void Quiesce(size_t i);
  // Folds quiescent backup i's computed renewals into its stored lease and
  // turns its renewals back into messages.
  void Fold(size_t i);
  // Folds every quiescent pair replica i belongs to, as leader or backup.
  void FoldPairsOf(size_t i);
  void StepDown(size_t i);
  void AdoptLeader(size_t i, size_t leader, uint64_t epoch);

  // Replication (leader side).
  void Ship(size_t i, WireValue delta, size_t entry_count,
            std::function<void()> done);
  void StartShipRound(size_t i);

  // Reconciliation (rejoin / post-step-down).
  void Rejoin(size_t i);
  void FetchAndReconcile(size_t i, size_t leader, uint64_t epoch,
                         int attempts_left);
  void StandAsCandidate(size_t i);

  EventQueue* queue_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  // links_[from * R + to] / clients_[from * R + to]: from's private path to
  // to's server (diagonal unused).
  std::vector<std::unique_ptr<NetworkLink>> links_;
  std::vector<std::unique_ptr<RpcClient>> clients_;
  std::vector<FailoverEvent> timeline_;
  Stats stats_;
};

}  // namespace keypad

#endif  // SRC_REPLICATION_REPLICA_SET_H_
