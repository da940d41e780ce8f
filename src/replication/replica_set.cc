#include "src/replication/replica_set.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace keypad {

namespace {

RpcOptions ReplRpcOptions(SimDuration ack_timeout) {
  RpcOptions options;
  // One attempt, no breaker: the replica set has its own failure handling
  // (out-of-sync marking, promotion timers) and must see failures promptly
  // rather than have the transport paper over them.
  options.timeout = ack_timeout;
  options.total_deadline = ack_timeout;
  options.retry.max_attempts = 1;
  options.breaker.enabled = false;
  return options;
}

}  // namespace

ReplicaSetEngine::ReplicaSetEngine(EventQueue* queue,
                                   ReplicaSetOptions options)
    : queue_(queue), options_(options) {}

ReplicaSetEngine::~ReplicaSetEngine() {
  for (auto& replica : replicas_) {
    if (replica->promote_event != EventQueue::kInvalidEvent) {
      queue_->Cancel(replica->promote_event);
    }
    if (replica->renew_event != EventQueue::kInvalidEvent) {
      queue_->Cancel(replica->renew_event);
    }
    ++replica->generation;  // Invalidate any still-scheduled callbacks.
  }
}

void ReplicaSetEngine::AddReplica(ReplicatedStateMachine* machine,
                                  RpcServer* server) {
  auto replica = std::make_unique<Replica>();
  replica->machine = machine;
  replica->server = server;
  replica->index = replicas_.size();
  size_t i = replica->index;
  replicas_.push_back(std::move(replica));

  machine->InstallServeGate([this, i]() -> Status {
    if (is_leader(i)) {
      return Status::Ok();
    }
    return FailedPreconditionError(
        "NOT_LEADER:" + std::to_string(replicas_[i]->view_leader));
  });
  machine->InstallReplicator(
      [this, i](WireValue delta, size_t entry_count,
                std::function<void()> done) {
        Ship(i, std::move(delta), entry_count, std::move(done));
      });
  machine->InstallDurableWatermark(
      [this, i]() -> uint64_t { return DurableWatermarkFor(i); });
}

uint64_t ReplicaSetEngine::DurableWatermarkFor(size_t i) const {
  const Replica& replica = *replicas_[i];
  if (replica.acked.size() != replicas_.size()) {
    return 0;  // Pre-Start(): nothing is known durable anywhere.
  }
  uint64_t watermark = replica.machine->LogSize();
  for (size_t j = 0; j < replicas_.size(); ++j) {
    if (j != i) {
      watermark = std::min(watermark, replica.acked[j]);
    }
  }
  return watermark;
}

void ReplicaSetEngine::Start() {
  const size_t n = replicas_.size();
  links_.resize(n * n);
  clients_.resize(n * n);
  for (size_t from = 0; from < n; ++from) {
    for (size_t to = 0; to < n; ++to) {
      if (from == to) {
        continue;
      }
      uint64_t seed =
          options_.seed ^ (static_cast<uint64_t>(from) << 40) ^
          (static_cast<uint64_t>(to) << 24) ^ 0x5e71;
      links_[from * n + to] = std::make_unique<NetworkLink>(
          queue_, options_.repl_profile, seed);
      clients_[from * n + to] = std::make_unique<RpcClient>(
          queue_, links_[from * n + to].get(), replicas_[to]->server,
          ReplRpcOptions(options_.ack_timeout));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    RegisterHandlers(i);
    Replica& replica = *replicas_[i];
    replica.view_leader = 0;
    replica.epoch = 1;
    replica.in_sync.assign(n, true);
    replica.acked.assign(n, 0);
  }
  // Every backup starts with a fresh grant from replica 0, whose first
  // renewal is due one renew_interval from now.
  replicas_[0]->next_tick = queue_->Now() + options_.lease.renew_interval;
  for (size_t i = 1; i < n; ++i) {
    AdoptLeader(i, 0, 1);
  }
  EnsureRenewals(0);
  Record("start", 0, 1);
}

bool ReplicaSetEngine::ClaimWins(const Claim& a, const Claim& b) {
  if (a.log_size != b.log_size) {
    return a.log_size > b.log_size;
  }
  if (a.epoch != b.epoch) {
    return a.epoch > b.epoch;
  }
  return a.index < b.index;
}

ReplicaSetEngine::Claim ReplicaSetEngine::ClaimOf(size_t i) const {
  return Claim{replicas_[i]->machine->LogSize(), replicas_[i]->epoch, i};
}

size_t ReplicaSetEngine::current_leader() const {
  std::optional<Claim> best;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (is_leader(i)) {
      Claim claim = ClaimOf(i);
      if (!best || ClaimWins(claim, *best)) {
        best = claim;
      }
    }
  }
  if (best) {
    return best->index;
  }
  // Mid-failover (or everything dead): the longest live chain, else 0.
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i]->crashed) {
      continue;
    }
    Claim claim = ClaimOf(i);
    if (!best || ClaimWins(claim, *best)) {
      best = claim;
    }
  }
  return best ? best->index : 0;
}

SimTime ReplicaSetEngine::lease_expiry(size_t i) const {
  const Replica& replica = *replicas_[i];
  SimTime expiry = replica.lease.expiry();
  if (std::optional<SimTime> heard = LastRenewalHeard(i, nullptr)) {
    expiry = std::max(expiry, *heard + options_.lease.lease_duration);
  }
  return expiry;
}

void ReplicaSetEngine::Record(const std::string& what, size_t replica,
                              uint64_t epoch) {
  timeline_.push_back({queue_->Now(), what, replica, epoch});
}

void ReplicaSetEngine::RegisterHandlers(size_t i) {
  RpcServer* server = replicas_[i]->server;

  // repl.append [from, epoch, log_size, delta] — a sealed commit-group
  // stream from the leader. Chain continuity is the real guard: a stale or
  // forked leader's delta fails verification and mutates nothing.
  server->RegisterMethod(
      "repl.append",
      [this, i](const WireValue::Array& params) -> Result<WireValue> {
        if (params.size() != 4) {
          return InvalidArgumentError("repl.append: bad arity");
        }
        KP_ASSIGN_OR_RETURN(int64_t from_int, params[0].AsInt());
        KP_ASSIGN_OR_RETURN(int64_t epoch_int, params[1].AsInt());
        KP_ASSIGN_OR_RETURN(int64_t size_int, params[2].AsInt());
        size_t from = static_cast<size_t>(from_int);
        Claim theirs{static_cast<uint64_t>(size_int),
                     static_cast<uint64_t>(epoch_int), from};
        Replica& replica = *replicas_[i];
        if (is_leader(i)) {
          if (!ClaimWins(theirs, ClaimOf(i))) {
            // Tell the sender it lost the leadership contest.
            return FailedPreconditionError("DEMOTED:" + std::to_string(i));
          }
          StepDown(i);
        }
        AdoptLeader(i, from, theirs.epoch);
        Status applied = replica.machine->ApplyDelta(params[3]);
        if (!applied.ok()) {
          // Our chain diverged from the leader's (we are an un-reconciled
          // fork). Self-heal: fetch the leader's state and rejoin.
          uint64_t generation = replica.generation;
          uint64_t epoch = theirs.epoch;
          queue_->ScheduleAfter(SimDuration(), [this, i, from, epoch,
                                                generation] {
            if (replicas_[i]->generation == generation) {
              FetchAndReconcile(i, from, epoch, 8);
            }
          });
          return applied;
        }
        return WireValue(true);
      });

  // repl.status — what this replica believes; rejoiners trust only rows
  // where the peer claims leadership itself.
  server->RegisterMethod(
      "repl.status",
      [this, i](const WireValue::Array& params) -> Result<WireValue> {
        (void)params;
        Replica& replica = *replicas_[i];
        WireValue::Struct out;
        out.emplace("leader",
                    WireValue(static_cast<int64_t>(replica.view_leader)));
        out.emplace("is_leader", WireValue(is_leader(i)));
        out.emplace("epoch", WireValue(static_cast<int64_t>(replica.epoch)));
        out.emplace("log_size", WireValue(static_cast<int64_t>(
                                    replica.machine->LogSize())));
        return WireValue(std::move(out));
      });

  // repl.snapshot — full state transfer for reconciliation.
  server->RegisterMethod(
      "repl.snapshot",
      [this, i](const WireValue::Array& params) -> Result<WireValue> {
        (void)params;
        WireValue::Struct out;
        out.emplace("snap", WireValue(replicas_[i]->machine->Snapshot()));
        return WireValue(std::move(out));
      });

  // repl.rejoin [from, log_size] — a reconciled backup asks back into the
  // synchronous-ack set. Only accepted when its tail is close enough that
  // the next delta will be contiguous (>= our shipped watermark); a stale
  // tail gets BEHIND and the rejoiner re-fetches the snapshot.
  server->RegisterMethod(
      "repl.rejoin",
      [this, i](const WireValue::Array& params) -> Result<WireValue> {
        if (params.size() != 2) {
          return InvalidArgumentError("repl.rejoin: bad arity");
        }
        KP_ASSIGN_OR_RETURN(int64_t from_int, params[0].AsInt());
        KP_ASSIGN_OR_RETURN(int64_t size_int, params[1].AsInt());
        size_t from = static_cast<size_t>(from_int);
        Replica& replica = *replicas_[i];
        if (!is_leader(i)) {
          return FailedPreconditionError(
              "NOT_LEADER:" + std::to_string(replica.view_leader));
        }
        uint64_t tail = static_cast<uint64_t>(size_int);
        if (tail < replica.machine->ShippedSeq() ||
            tail > replica.machine->LogSize()) {
          return FailedPreconditionError("BEHIND");
        }
        if (from < replica.in_sync.size()) {
          replica.in_sync[from] = true;
        }
        if (from < replica.acked.size()) {
          // The rejoiner just told us exactly how much chain it holds.
          replica.acked[from] = tail;
        }
        return WireValue(true);
      });
}

// --- Lease machinery. -------------------------------------------------------

void ReplicaSetEngine::ArmPromote(size_t i) {
  Replica& replica = *replicas_[i];
  if (replica.promote_event != EventQueue::kInvalidEvent) {
    queue_->Cancel(replica.promote_event);
  }
  uint64_t generation = replica.generation;
  SimTime at = replica.lease.PromoteAt(i, options_.lease);
  replica.promote_event = queue_->Schedule(at, [this, i, generation] {
    if (replicas_[i]->generation == generation) {
      replicas_[i]->promote_event = EventQueue::kInvalidEvent;
      OnPromoteTimer(i);
    }
  });
}

void ReplicaSetEngine::OnPromoteTimer(size_t i) {
  Replica& replica = *replicas_[i];
  if (replica.crashed || is_leader(i)) {
    return;
  }
  if (queue_->Now() < replica.lease.PromoteAt(i, options_.lease)) {
    // Renewed since this timer was armed; wait out the new slot.
    ArmPromote(i);
    return;
  }
  Promote(i);
}

void ReplicaSetEngine::Promote(size_t i) {
  Replica& replica = *replicas_[i];
  replica.epoch += 1;
  replica.view_leader = i;
  replica.in_sync.assign(replicas_.size(), true);
  // A fresh leader has acknowledged nothing to anyone yet; its first
  // successful ship round re-establishes the durable watermark.
  replica.acked.assign(replicas_.size(), 0);
  if (replica.promote_event != EventQueue::kInvalidEvent) {
    queue_->Cancel(replica.promote_event);
    replica.promote_event = EventQueue::kInvalidEvent;
  }
  ++stats_.promotions;
  Record("promote", i, replica.epoch);
  // The renewal schedule starts at the promotion instant, and its first
  // tick is the NEW_LEADER announcement.
  replica.next_tick = queue_->Now();
  EnsureRenewals(i);
  // Anything sealed locally but never shipped (shouldn't exist on a clean
  // backup, but a reconciled ex-leader may hold admin-path entries).
  replica.machine->ReplicateNow();
}

SimTime ReplicaSetEngine::FirstUnsentTick(size_t i) const {
  const SimTime next = replicas_[i]->next_tick;
  const SimTime now = queue_->Now();
  if (next >= now) {
    return next;
  }
  const int64_t interval = options_.lease.renew_interval.nanos();
  return next + SimDuration(((now - next).nanos() + interval - 1) / interval *
                            interval);
}

bool ReplicaSetEngine::HearsMessages(size_t i, size_t j) const {
  return j != i && !(replicas_[j]->quiescent && replicas_[j]->view_leader == i);
}

bool ReplicaSetEngine::NeedsRenewals(size_t i) const {
  for (size_t j = 0; j < replicas_.size(); ++j) {
    if (HearsMessages(i, j)) {
      return true;
    }
  }
  return false;
}

void ReplicaSetEngine::EnsureRenewals(size_t i) {
  Replica& replica = *replicas_[i];
  if (!is_leader(i) || replica.renew_event != EventQueue::kInvalidEvent ||
      !NeedsRenewals(i)) {
    return;
  }
  const SimTime tick = FirstUnsentTick(i);
  uint64_t generation = replica.generation;
  replica.renew_event = queue_->Schedule(tick, [this, i, tick, generation] {
    if (replicas_[i]->generation == generation) {
      replicas_[i]->renew_event = EventQueue::kInvalidEvent;
      RenewTick(i, tick);
    }
  });
}

void ReplicaSetEngine::RenewTick(size_t i, SimTime tick) {
  Replica& replica = *replicas_[i];
  replica.next_tick = tick + options_.lease.renew_interval;
  if (!is_leader(i)) {
    return;
  }
  // A renewal is the sender's claim, delivered over the pair link as a
  // typed control-plane message: no codec, no RPC, no marshalling charge.
  // Quiescent backups hear theirs by computation instead.
  const Claim mine = ClaimOf(i);
  const uint64_t generation = replica.generation;
  for (size_t j = 0; j < replicas_.size(); ++j) {
    if (HearsMessages(i, j)) {
      LinkTo(i, j)->Send(sizeof(Claim), NetworkLink::Direction::kForward,
                         [this, j, mine, generation] {
                           DeliverRenewal(j, mine, generation);
                         });
    }
  }
  EnsureRenewals(i);
}

void ReplicaSetEngine::DeliverRenewal(size_t i, const Claim& theirs,
                                      uint64_t sender_generation) {
  Replica& replica = *replicas_[i];
  if (replica.crashed) {
    return;  // A dead process hears nothing.
  }
  const size_t from = theirs.index;
  if (!is_leader(i)) {
    AdoptLeader(i, from, theirs.epoch);
    return;
  }
  // Competing leaders: resolve pairwise, loser steps down.
  if (ClaimWins(theirs, ClaimOf(i))) {
    StepDown(i);
    AdoptLeader(i, from, theirs.epoch);
    uint64_t generation = replica.generation;
    queue_->ScheduleAfter(SimDuration(), [this, i, from, theirs, generation] {
      if (replicas_[i]->generation == generation) {
        FetchAndReconcile(i, from, theirs.epoch, 8);
      }
    });
    return;
  }
  // The only renewal that is answered: a refusal carrying our stronger
  // claim, which makes the sender concede.
  const Claim mine = ClaimOf(i);
  LinkTo(from, i)->Send(
      sizeof(Claim), NetworkLink::Direction::kReverse,
      [this, from, mine, sender_generation] {
        if (replicas_[from]->generation != sender_generation ||
            !ClaimWins(mine, ClaimOf(from))) {
          return;  // Stale refusal; our next renewal settles it.
        }
        StepDown(from);
        AdoptLeader(from, mine.index, mine.epoch);
        FetchAndReconcile(from, mine.index, mine.epoch, 8);
      });
}

bool ReplicaSetEngine::PairHealthy(size_t leader, size_t i) const {
  const Replica& backup = *replicas_[i];
  if (i == leader || !is_leader(leader) || backup.crashed ||
      backup.view_leader != leader ||
      backup.epoch != replicas_[leader]->epoch) {
    return false;
  }
  // Pair links lose nothing and add no jitter, so every renewal lands one
  // way after its tick — in time to extend the grant before it lapses.
  const LeaseOptions& lease = options_.lease;
  if (lease.renew_interval + LinkTo(leader, i)->profile().OneWay() >=
      lease.lease_duration) {
    return false;
  }
  for (const NetworkLink* link : {LinkTo(leader, i), LinkTo(i, leader)}) {
    if (link->partitioned(NetworkLink::Direction::kForward) ||
        link->partitioned(NetworkLink::Direction::kReverse)) {
      return false;
    }
  }
  return true;
}

std::optional<SimTime> ReplicaSetEngine::LastRenewalHeard(
    size_t i, std::vector<SimTime>* in_flight) const {
  const Replica& replica = *replicas_[i];
  if (!replica.quiescent) {
    return std::nullopt;
  }
  // Sent so far: the leader's ticks in [quiescent_from, max(now, next
  // unsent tick)) — a tick at exactly now counts once its timer sent it.
  const size_t leader = replica.view_leader;
  const SimTime now = queue_->Now();
  const SimTime sent_end = std::max(now, replicas_[leader]->next_tick);
  const SimDuration interval = options_.lease.renew_interval;
  const SimDuration one_way = LinkTo(leader, i)->profile().OneWay();
  if (replica.quiescent_from >= sent_end) {
    return std::nullopt;
  }
  SimTime tick =
      replica.quiescent_from +
      interval * (((sent_end - replica.quiescent_from).nanos() - 1) /
                  interval.nanos());
  for (; tick >= replica.quiescent_from; tick = tick - interval) {
    if (tick + one_way <= now) {
      return tick + one_way;
    }
    if (in_flight != nullptr) {
      in_flight->push_back(tick);
    }
  }
  return std::nullopt;
}

void ReplicaSetEngine::Quiesce(size_t i) {
  Replica& replica = *replicas_[i];
  const size_t leader = replica.view_leader;
  replica.quiescent = true;
  replica.quiescent_from = FirstUnsentTick(leader);
  if (replica.promote_event != EventQueue::kInvalidEvent) {
    queue_->Cancel(replica.promote_event);
    replica.promote_event = EventQueue::kInvalidEvent;
  }
  Replica& lead = *replicas_[leader];
  if (lead.renew_event != EventQueue::kInvalidEvent &&
      !NeedsRenewals(leader)) {
    queue_->Cancel(lead.renew_event);
    lead.renew_event = EventQueue::kInvalidEvent;
  }
}

void ReplicaSetEngine::Fold(size_t i) {
  Replica& replica = *replicas_[i];
  if (!replica.quiescent) {
    return;
  }
  std::vector<SimTime> in_flight;
  if (std::optional<SimTime> heard = LastRenewalHeard(i, &in_flight)) {
    replica.lease.Grant(*heard, options_.lease.lease_duration);
  }
  replica.quiescent = false;
  // A renewal already on the wire still lands, as a real event.
  const size_t leader = replica.view_leader;
  const Claim claim = ClaimOf(leader);
  const uint64_t generation = replicas_[leader]->generation;
  const SimDuration one_way = LinkTo(leader, i)->profile().OneWay();
  for (SimTime tick : in_flight) {
    queue_->Schedule(tick + one_way, [this, i, claim, generation] {
      DeliverRenewal(i, claim, generation);
    });
  }
  ArmPromote(i);
  EnsureRenewals(leader);
}

void ReplicaSetEngine::FoldPairsOf(size_t i) {
  for (size_t j = 0; j < replicas_.size(); ++j) {
    if (j == i || replicas_[j]->view_leader == i) {
      Fold(j);
    }
  }
}

void ReplicaSetEngine::StepDown(size_t i) {
  FoldPairsOf(i);
  Replica& replica = *replicas_[i];
  if (replica.renew_event != EventQueue::kInvalidEvent) {
    queue_->Cancel(replica.renew_event);
    replica.renew_event = EventQueue::kInvalidEvent;
  }
  // Dropping the ship pipeline drops the `done` callbacks with it: held
  // client responses are never released un-replicated — the clients time
  // out and retry against the winner.
  replica.ship_queue.clear();
  replica.ship_in_flight = false;
  ++replica.generation;
  ++stats_.step_downs;
  Record("step_down", i, replica.epoch);
}

void ReplicaSetEngine::AdoptLeader(size_t i, size_t leader, uint64_t epoch) {
  Replica& replica = *replicas_[i];
  if (replica.quiescent &&
      (leader != replica.view_leader || epoch != replica.epoch)) {
    Fold(i);
  }
  replica.view_leader = leader;
  replica.epoch = epoch;
  replica.lease.Grant(queue_->Now(), options_.lease.lease_duration);
  if (replica.quiescent) {
    return;  // E.g. a repl.append from the leader it already follows.
  }
  if (PairHealthy(leader, i)) {
    Quiesce(i);
  } else if (!queue_->IsPending(replica.promote_event)) {
    ArmPromote(i);
  }
}

// --- Replication (leader side). ---------------------------------------------

void ReplicaSetEngine::Ship(size_t i, WireValue delta, size_t entry_count,
                            std::function<void()> done) {
  Replica& replica = *replicas_[i];
  if (replica.crashed) {
    return;  // Responses already aborted with the crash.
  }
  replica.ship_queue.push_back(
      {std::move(delta), entry_count, std::move(done)});
  if (!replica.ship_in_flight) {
    StartShipRound(i);
  }
}

void ReplicaSetEngine::StartShipRound(size_t i) {
  Replica& replica = *replicas_[i];
  while (!replica.ship_queue.empty()) {
    PendingShip ship = std::move(replica.ship_queue.front());
    replica.ship_queue.pop_front();

    std::vector<size_t> targets;
    for (size_t j = 0; j < replicas_.size(); ++j) {
      if (j != i && replica.in_sync[j]) {
        targets.push_back(j);
      }
    }
    if (targets.empty()) {
      // Sole survivor (every backup out-of-sync or none configured):
      // availability over redundancy — release on the local seal alone.
      ship.done();
      continue;
    }

    replica.ship_in_flight = true;
    ++stats_.deltas_shipped;
    stats_.delta_entries_shipped += ship.entry_count;

    struct Round {
      size_t outstanding;
      std::function<void()> done;
    };
    auto round = std::make_shared<Round>();
    round->outstanding = targets.size();
    round->done = std::move(ship.done);
    uint64_t generation = replica.generation;
    Claim mine = ClaimOf(i);
    // An acked delta leaves the target holding our full chain as of now.
    const uint64_t shipped_size = mine.log_size;
    for (size_t j : targets) {
      WireValue::Array params;
      params.push_back(WireValue(static_cast<int64_t>(i)));
      params.push_back(WireValue(static_cast<int64_t>(mine.epoch)));
      params.push_back(WireValue(static_cast<int64_t>(mine.log_size)));
      params.push_back(ship.delta);
      ClientTo(i, j)->CallAsync(
          "repl.append", std::move(params),
          [this, i, j, generation, round,
           shipped_size](Result<WireValue> result) {
            Replica& replica = *replicas_[i];
            bool live = replica.generation == generation;
            if (live) {
              if (result.ok()) {
                ++stats_.append_acks;
                if (j < replica.acked.size() &&
                    replica.acked[j] < shipped_size) {
                  replica.acked[j] = shipped_size;
                }
              } else {
                ++stats_.append_failures;
                if (result.status().code() ==
                        StatusCode::kFailedPrecondition &&
                    result.status().message().rfind("DEMOTED", 0) == 0) {
                  // The backup outranks us: concede and reconcile.
                  StepDown(i);
                  AdoptLeader(i, j, replicas_[i]->epoch);
                  Rejoin(i);
                } else if (replica.in_sync[j]) {
                  // Unreachable or diverged: drop from the synchronous-ack
                  // set so one sick backup can't stall the shard.
                  replica.in_sync[j] = false;
                  Record("out_of_sync", j, replica.epoch);
                }
              }
            }
            if (--round->outstanding == 0) {
              if (replicas_[i]->generation == generation) {
                round->done();
                replicas_[i]->ship_in_flight = false;
                StartShipRound(i);
              }
            }
          });
    }
    return;  // One round in flight; the rest waits in the queue.
  }
  replica.ship_in_flight = false;
}

// --- Reconciliation. --------------------------------------------------------

void ReplicaSetEngine::Rejoin(size_t i) {
  Replica& replica = *replicas_[i];
  if (replica.crashed) {
    return;
  }
  uint64_t generation = replica.generation;

  struct Probe {
    size_t outstanding;
    std::vector<Claim> leaders;
  };
  auto probe = std::make_shared<Probe>();
  probe->outstanding = replicas_.size() - 1;
  if (probe->outstanding == 0) {
    StandAsCandidate(i);
    return;
  }
  for (size_t j = 0; j < replicas_.size(); ++j) {
    if (j == i) {
      continue;
    }
    ClientTo(i, j)->CallAsync(
        "repl.status", {},
        [this, i, j, generation, probe](Result<WireValue> result) {
          if (result.ok()) {
            auto is_leader_v = result->Field("is_leader");
            if (is_leader_v.ok() && is_leader_v->AsBool().value_or(false)) {
              auto epoch_v = result->Field("epoch");
              auto size_v = result->Field("log_size");
              probe->leaders.push_back(Claim{
                  static_cast<uint64_t>(
                      size_v.ok() ? size_v->AsInt().value_or(0) : 0),
                  static_cast<uint64_t>(
                      epoch_v.ok() ? epoch_v->AsInt().value_or(0) : 0),
                  j});
            }
          }
          if (--probe->outstanding > 0 ||
              replicas_[i]->generation != generation) {
            return;
          }
          if (probe->leaders.empty()) {
            // Nobody in sight claims leadership: stand for election.
            StandAsCandidate(i);
            return;
          }
          Claim best = probe->leaders[0];
          for (const Claim& claim : probe->leaders) {
            if (ClaimWins(claim, best)) {
              best = claim;
            }
          }
          FetchAndReconcile(i, best.index, best.epoch, 8);
        });
  }
}

void ReplicaSetEngine::StandAsCandidate(size_t i) {
  Fold(i);
  Replica& replica = *replicas_[i];
  replica.lease.Expire(queue_->Now());
  Record("candidate", i, replica.epoch);
  ArmPromote(i);  // Fires at now + promote_stagger * i (seniority slot).
}

void ReplicaSetEngine::FetchAndReconcile(size_t i, size_t leader,
                                         uint64_t epoch, int attempts_left) {
  Replica& replica = *replicas_[i];
  if (replica.crashed) {
    return;
  }
  if (attempts_left <= 0) {
    StandAsCandidate(i);
    return;
  }
  uint64_t generation = replica.generation;
  ++stats_.reconcile_rounds;
  ClientTo(i, leader)->CallAsync(
      "repl.snapshot", {},
      [this, i, leader, epoch, attempts_left,
       generation](Result<WireValue> result) {
        if (replicas_[i]->generation != generation) {
          return;
        }
        Replica& replica = *replicas_[i];
        if (!result.ok()) {
          // The leader vanished mid-transfer; probe afresh after a beat.
          queue_->ScheduleAfter(options_.lease.renew_interval,
                                [this, i, generation] {
                                  if (replicas_[i]->generation == generation) {
                                    Rejoin(i);
                                  }
                                });
          return;
        }
        auto snap_v = result->Field("snap");
        if (!snap_v.ok()) {
          StandAsCandidate(i);
          return;
        }
        auto snap = snap_v->AsBytes();
        if (!snap.ok()) {
          StandAsCandidate(i);
          return;
        }
        // Divergence detection: everything past the longest *proven*
        // common prefix of the two chains is sealed-but-orphaned —
        // surfaced to the forensic auditor, never silently dropped (it
        // may duplicate rows the surviving chain also carries;
        // duplicated, not lost). Two proofs compose, by absolute chain
        // sequence (either side may have truncated a checkpointed
        // prefix out of memory, DESIGN.md §15):
        //  (a) equal checkpoint records pin the whole segment prefix
        //      they cover, even when one side no longer holds those
        //      entries in memory;
        //  (b) an entry-aligned scan over the overlap both sides still
        //      hold extends the proof — equal wire entries at the same
        //      chain position imply an identical prefix below them,
        //      because every entry seals over its predecessor.
        std::vector<WireValue> local = replica.machine->ExportEntries();
        const uint64_t local_base = replica.machine->ExportBaseSeq();
        const std::vector<ReplicatedStateMachine::ExportedCheckpoint>
            local_ckpts = replica.machine->ExportCheckpoints();
        Status restored = replica.machine->Restore(*snap);
        if (!restored.ok()) {
          StandAsCandidate(i);
          return;
        }
        std::vector<WireValue> adopted = replica.machine->ExportEntries();
        const uint64_t adopted_base = replica.machine->ExportBaseSeq();
        const std::vector<ReplicatedStateMachine::ExportedCheckpoint>
            adopted_ckpts = replica.machine->ExportCheckpoints();
        uint64_t common = 0;
        size_t c = 0;
        while (c < local_ckpts.size() && c < adopted_ckpts.size() &&
               local_ckpts[c].end_seq == adopted_ckpts[c].end_seq &&
               local_ckpts[c].hash == adopted_ckpts[c].hash) {
          ++c;
        }
        if (c > 0) {
          common = local_ckpts[c - 1].end_seq;
        }
        const uint64_t local_end = local_base + local.size();
        const uint64_t overlap_lo = std::max(local_base, adopted_base);
        const uint64_t overlap_hi =
            std::min(local_end, adopted_base + adopted.size());
        uint64_t scan = overlap_lo;
        while (scan < overlap_hi &&
               local[scan - local_base] == adopted[scan - adopted_base]) {
          ++scan;
        }
        if (scan > overlap_lo) {
          common = std::max(common, scan);
        }
        for (uint64_t s = std::max(common, local_base); s < local_end;
             ++s) {
          orphaned_.push_back({i, std::move(local[s - local_base])});
          ++stats_.orphaned_entries;
        }
        AdoptLeader(i, leader, epoch);

        WireValue::Array params;
        params.push_back(WireValue(static_cast<int64_t>(i)));
        params.push_back(WireValue(
            static_cast<int64_t>(replica.machine->LogSize())));
        ClientTo(i, leader)->CallAsync(
            "repl.rejoin", std::move(params),
            [this, i, leader, epoch, attempts_left,
             generation](Result<WireValue> result) {
              if (replicas_[i]->generation != generation) {
                return;
              }
              if (result.ok()) {
                ++stats_.rejoins;
                Record("rejoin", i, replicas_[i]->epoch);
                return;
              }
              const std::string& message = result.status().message();
              if (message.rfind("BEHIND", 0) == 0) {
                // The leader sealed more while we transferred; refetch.
                FetchAndReconcile(i, leader, epoch, attempts_left - 1);
              } else if (message.rfind("NOT_LEADER", 0) == 0) {
                Rejoin(i);  // Leadership moved again; probe afresh.
              } else {
                queue_->ScheduleAfter(
                    options_.lease.renew_interval, [this, i, generation] {
                      if (replicas_[i]->generation == generation) {
                        Rejoin(i);
                      }
                    });
              }
            });
      });
}

// --- Fault injection. -------------------------------------------------------

void ReplicaSetEngine::NoteCrashed(size_t i) {
  FoldPairsOf(i);
  Replica& replica = *replicas_[i];
  replica.crashed = true;
  ++replica.generation;
  if (replica.promote_event != EventQueue::kInvalidEvent) {
    queue_->Cancel(replica.promote_event);
    replica.promote_event = EventQueue::kInvalidEvent;
  }
  if (replica.renew_event != EventQueue::kInvalidEvent) {
    queue_->Cancel(replica.renew_event);
    replica.renew_event = EventQueue::kInvalidEvent;
  }
  replica.ship_queue.clear();
  replica.ship_in_flight = false;
  Record("crash", i, replica.epoch);
}

void ReplicaSetEngine::NoteRestarted(size_t i) {
  Replica& replica = *replicas_[i];
  replica.crashed = false;
  ++replica.generation;
  Record("restart", i, replica.epoch);
  Rejoin(i);
}

void ReplicaSetEngine::SetPartitioned(size_t i, bool partitioned) {
  FoldPairsOf(i);
  const size_t n = replicas_.size();
  for (size_t j = 0; j < n; ++j) {
    if (j == i) {
      continue;
    }
    for (NetworkLink* link :
         {links_[i * n + j].get(), links_[j * n + i].get()}) {
      link->set_partitioned(NetworkLink::Direction::kForward, partitioned);
      link->set_partitioned(NetworkLink::Direction::kReverse, partitioned);
    }
  }
}

// --- Admin path. ------------------------------------------------------------

Status ReplicaSetEngine::MutateOnLeader(
    const std::function<Status(ReplicatedStateMachine*)>& mutate) {
  size_t leader = current_leader();
  KP_RETURN_IF_ERROR(mutate(replicas_[leader]->machine));
  replicas_[leader]->machine->ReplicateNow();
  return Status::Ok();
}

}  // namespace keypad
