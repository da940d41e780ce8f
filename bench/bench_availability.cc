// Availability bench (DESIGN.md §9–§10): goodput timeline of both service
// tiers across a scheduled primary kill, unreplicated vs replicated.
//
// Four scenario groups:
//  * kill sweep — file creates paced across a schedule that crashes the
//    shard's current leader mid-run. With key_replicas = 1 goodput drops
//    to zero for the whole outage (plus the breaker tail); with R > 1 a
//    backup promotes after lease expiry and goodput recovers within the
//    promotion window. The per-second goodput timeline goes to the JSON.
//  * metadata kill sweep — the same schedule against the metadata tier
//    (creates block on the binding registration, so a dead metadata leader
//    zeroes goodput exactly like a dead key primary). Replicated runs must
//    recover within the promotion window, every metadata replica chain
//    must verify, and every acked create's binding must survive in the
//    authoritative namespace log or the orphan list.
//  * partition/heal — the split-brain cycle: primary partitioned off the
//    mesh (still serving clients), backup promotes, primary dies, client
//    fails over, partition heals, ex-primary rejoins and reconciles. At
//    the end every replica chain must verify and every client-acked create
//    must survive in the authoritative chain or the orphan list
//    (duplicated-but-never-lost).
//  * determinism — the replicated kill cells (both tiers) twice with one
//    seed; goodput buckets, failover timeline, and chain tip must match
//    bit-for-bit.
//
// Emits BENCH_availability.json (path = argv[1], default ./). Exits
// non-zero when an acceptance check fails, so CI can gate on it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace keypad {
namespace {

using bench::Llu;

// Injects a fault the scenario is built around; a refusal is a harness bug.
void MustInject(Deployment& dep, const Fault& fault) {
  Status status = dep.Inject(fault);
  if (!status.ok()) {
    std::fprintf(stderr, "fault refused: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

struct Bucket {
  int ok = 0;
  int fail = 0;
};

struct AvailCell {
  std::string scenario;
  int replicas = 1;
  int ops = 0;
  int succeeded = 0;
  double kill_s = 0;
  double outage_s = 0;
  // First successful op completion after the kill, relative to it.
  double recovery_s = -1;
  double threshold_s = 0;  // Acceptance bound for recovery (replicated).
  uint64_t promotions = 0;
  uint64_t rejoins = 0;
  uint64_t orphaned = 0;
  uint64_t duplicates = 0;
  size_t acked_records = 0;
  bool acked_preserved = true;
  bool chains_verified = true;
  bool recovery_ok = true;
  std::vector<Bucket> buckets;  // One per second of the schedule.
  std::string timeline;         // Serialized ReplicaSet failover events.
  std::string chain_tip_hex;
};

DeploymentOptions MakeOptions(int replicas, uint64_t seed) {
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  options.seed = seed;
  options.key_replicas = replicas;
  // Short attempt ladders: a call into the dead primary should fail over
  // well inside the promotion window.
  options.rpc.timeout = SimDuration::Seconds(1);
  options.rpc.retry.max_attempts = 2;
  return options;
}

std::string SerializeTimeline(const std::vector<FailoverEvent>& timeline) {
  std::string out;
  for (const auto& event : timeline) {
    out += std::to_string(event.at.nanos()) + "|" + event.what + "|" +
           std::to_string(event.replica) + "|" + std::to_string(event.epoch) +
           ";";
  }
  return out;
}

// Checks the duplicated-but-never-lost invariant over one tier's replica
// group — every acked create's row (`create`: the key tier's kCreate, the
// metadata tier's kCreateFile binding) survives in the leader's log or the
// orphan list — and every replica's chain health, filling the cell's
// verification fields. `set` is null when `solo` is the whole group.
template <typename Service, typename Op>
void VerifyGroup(const ServiceReplicaSet<Service>* set, Service& solo,
                 Op create, const std::vector<AuditId>& acked,
                 AvailCell* cell) {
  auto replica = [&](size_t r) -> Service& {
    return set != nullptr ? *set->service(r) : solo;
  };
  const auto& authority =
      replica(set != nullptr ? set->current_leader() : 0).log();
  cell->acked_records = acked.size();
  for (const auto& id : acked) {
    auto is_create = [&](const auto& row) {
      return row.op == create && row.audit_id == id;
    };
    bool preserved =
        std::any_of(authority.entries().begin(), authority.entries().end(),
                    is_create);
    if (!preserved && set != nullptr) {
      for (const auto& orphan : set->orphaned()) {
        preserved = preserved || is_create(orphan.entry);
      }
    }
    if (!preserved) {
      cell->acked_preserved = false;
    }
  }
  for (size_t r = 0; r < (set != nullptr ? set->size() : 1); ++r) {
    if (!replica(r).log().Verify().ok()) {
      cell->chains_verified = false;
    }
  }
  if (set != nullptr) {
    cell->promotions = set->stats().promotions;
    cell->rejoins = set->stats().rejoins;
    cell->orphaned = set->stats().orphaned_entries;
    cell->timeline = SerializeTimeline(set->timeline());
  }
  if (!authority.entries().empty()) {
    cell->chain_tip_hex = ToHex(authority.entries().back().entry_hash);
  }
}

void VerifyCell(Deployment& dep, Fault::Tier tier,
                const std::vector<AuditId>& acked, AvailCell* cell) {
  if (tier == Fault::kKey) {
    VerifyGroup(dep.replica_set(0), dep.key_replica(0, 0), AccessOp::kCreate,
                acked, cell);
  } else {
    VerifyGroup(dep.meta_replica_set(), dep.meta_replica(0),
                MetadataOp::kCreateFile, acked, cell);
  }
}

// Kill sweep: creates paced `pace` apart across `duration`; the tier's
// leader (shard 0's, for the key tier) dies at kill_s and restarts after
// outage_s. Successes are bucketed per second of *completion* time.
// Creates block on both tiers — the key create and the binding
// registration (the IBE unlock key releases only after the binding is
// durably logged) — so either tier's availability gates goodput.
AvailCell RunKillCell(Fault::Tier tier, int replicas, double duration_s,
                      uint64_t seed) {
  ResetRpcClientIdsForTesting();
  DeploymentOptions options =
      MakeOptions(tier == Fault::kKey ? replicas : 1, seed);
  if (tier == Fault::kMeta) {
    options.meta_replicas = replicas;
  }
  Deployment dep(options);
  auto& fs = dep.fs();

  AvailCell cell;
  cell.scenario = tier == Fault::kKey ? "leader_kill" : "meta_leader_kill";
  cell.replicas = replicas;
  cell.kill_s = duration_s / 3;
  cell.outage_s = 20;
  // Acceptance: a replicated tier recovers within the promotion window —
  // lease expiry + the seniority stagger — plus one RPC timeout of client
  // slack. The stub's dead-leader retry ladder runs concurrently with the
  // lease clock (probe backoff keeps it from re-laddering the corpse), so
  // it does not add to the bound. Both tiers run the same replication
  // substrate with the same lease schedule.
  cell.threshold_s = kLeaseDuration.seconds_f() +
                     kPromoteStagger.seconds_f() * replicas +
                     options.rpc.timeout.seconds_f();
  cell.buckets.assign(static_cast<size_t>(duration_s) + 1, Bucket{});

  SimTime t0 = dep.queue().Now();
  SimTime kill_at = t0 + SimDuration::Millis(
                             static_cast<int64_t>(cell.kill_s * 1000));
  const SimDuration outage =
      SimDuration::Seconds(static_cast<int64_t>(cell.outage_s));
  dep.Schedule(kill_at, Fault{Fault::kCrash, tier});
  dep.Schedule(kill_at + outage, Fault{Fault::kRestart, tier});

  const SimDuration pace = SimDuration::Millis(200);
  std::vector<AuditId> acked;
  int i = 0;
  while ((dep.queue().Now() - t0).seconds_f() < duration_s) {
    SimTime issue = t0 + pace * i;
    if (dep.queue().Now() < issue) {
      dep.queue().AdvanceBy(issue - dep.queue().Now());
    }
    double issue_s = (dep.queue().Now() - t0).seconds_f();
    std::string path = "/op" + std::to_string(i);
    bool ok = fs.Create(path).ok();
    ++i;
    ++cell.ops;
    double done_s = (dep.queue().Now() - t0).seconds_f();
    size_t bucket = std::min(cell.buckets.size() - 1,
                             static_cast<size_t>(done_s));
    if (ok) {
      ++cell.succeeded;
      ++cell.buckets[bucket].ok;
      acked.push_back(fs.ReadHeaderOf(path)->audit_id);
      // Recovery = completion of the first success *issued* after the kill
      // (a straggler issued just before it may legitimately land right
      // after and would fake an instant recovery).
      if (issue_s > cell.kill_s && cell.recovery_s < 0) {
        cell.recovery_s = done_s - cell.kill_s;
      }
    } else {
      ++cell.buckets[bucket].fail;
    }
  }
  dep.queue().AdvanceBy(SimDuration::Seconds(2));

  cell.recovery_ok = replicas == 1
                         ? cell.recovery_s >= cell.outage_s * 0.9
                         : cell.recovery_s >= 0 &&
                               cell.recovery_s <= cell.threshold_s;
  VerifyCell(dep, tier, acked, &cell);
  return cell;
}

// Partition/heal: the full split-brain reconciliation cycle.
AvailCell RunPartitionHealCell(int replicas, uint64_t seed) {
  ResetRpcClientIdsForTesting();
  DeploymentOptions options = MakeOptions(replicas, seed);
  options.rpc.timeout = SimDuration::Seconds(3);  // Covers one kAckTimeout.
  Deployment dep(options);
  auto& fs = dep.fs();

  AvailCell cell;
  cell.scenario = "partition_heal";
  cell.replicas = replicas;

  std::vector<AuditId> acked;
  auto run_ops = [&](const char* prefix, int n) {
    for (int i = 0; i < n; ++i) {
      std::string path = std::string("/") + prefix + std::to_string(i);
      ++cell.ops;
      if (fs.Create(path).ok()) {
        ++cell.succeeded;
        acked.push_back(fs.ReadHeaderOf(path)->audit_id);
      }
    }
  };

  run_ops("pre", 6);
  // Primary partitioned off the mesh; it keeps serving clients, so these
  // acks live on replica 0 alone. Meanwhile the backup's lease lapses and
  // it promotes: split brain.
  MustInject(dep, Fault::Key(Fault::kPartition, 0, 0));
  run_ops("part", 4);
  dep.queue().AdvanceBy(SimDuration::Seconds(4));
  // The primary dies before healing; the client fails over.
  MustInject(dep, Fault::Key(Fault::kCrash, 0, 0));
  run_ops("post", 6);
  // Heal and restart: the ex-primary reconciles against the new leader and
  // surfaces its divergent suffix as orphans.
  MustInject(dep, Fault::Key(Fault::kHeal, 0, 0));
  MustInject(dep, Fault::Key(Fault::kRestart, 0, 0));
  dep.queue().AdvanceBy(SimDuration::Seconds(5));
  run_ops("tail", 4);
  dep.queue().AdvanceBy(SimDuration::Seconds(2));

  VerifyCell(dep, Fault::kKey, acked, &cell);
  auto report = dep.auditor().BuildReport(dep.device_id(), SimTime(),
                                          options.config.texp);
  if (report.ok()) {
    cell.duplicates = report->duplicate_records;
  }
  cell.chains_verified = cell.chains_verified && report.ok() &&
                         report->replica_logs_verified;
  return cell;
}

void PrintCell(const AvailCell& c) {
  std::printf(
      "%-15s R=%d  %3d/%3d ok  kill@%5.1fs  recovery=%6.2fs "
      "(bound %5.2fs, %s)  promotions=%llu rejoins=%llu orphans=%llu "
      "dup=%llu  chains=%s acked=%zu preserved=%s\n",
      c.scenario.c_str(), c.replicas, c.succeeded, c.ops, c.kill_s,
      c.recovery_s, c.threshold_s, c.recovery_ok ? "ok" : "MISS",
      Llu(c.promotions), Llu(c.rejoins), Llu(c.orphaned),
      Llu(c.duplicates), c.chains_verified ? "ok" : "BROKEN",
      c.acked_records, c.acked_preserved ? "yes" : "LOST");
}

bench::JsonRow CellJson(const AvailCell& c) {
  std::vector<int> goodput;
  for (const Bucket& b : c.buckets) goodput.push_back(b.ok);
  return bench::JsonRow()
      .Str("scenario", c.scenario).Int("replicas", c.replicas)
      .Int("ops", c.ops).Int("succeeded", c.succeeded)
      .Num("kill_s", c.kill_s, 2).Num("outage_s", c.outage_s, 2)
      .Num("recovery_s", c.recovery_s, 3)
      .Num("recovery_bound_s", c.threshold_s, 3)
      .Bool("recovery_ok", c.recovery_ok).Int("promotions", c.promotions)
      .Int("rejoins", c.rejoins).Int("orphaned", c.orphaned)
      .Int("duplicates", c.duplicates).Int("acked_records", c.acked_records)
      .Bool("acked_preserved", c.acked_preserved)
      .Bool("chains_verified", c.chains_verified)
      .Ints("goodput_per_s", goodput);
}

std::string Digest(const AvailCell& c) {
  std::string out = c.timeline + "#" + c.chain_tip_hex + "#" +
                    std::to_string(c.succeeded) + "#";
  for (const Bucket& b : c.buckets) {
    out += std::to_string(b.ok) + "," + std::to_string(b.fail) + ";";
  }
  return out;
}

}  // namespace
}  // namespace keypad

int main(int argc, char** argv) {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("§9–§10 availability: goodput across service-tier leader kills");

  const double duration_s = FastMode() ? 45 : 90;
  std::vector<AvailCell> cells;
  for (int replicas : {1, 2, 3}) {
    cells.push_back(RunKillCell(Fault::kKey, replicas, duration_s,
                                /*seed=*/42));
    PrintCell(cells.back());
  }
  // The metadata tier rides the same substrate: unreplicated baseline plus
  // a replicated run that must recover within the same promotion bound.
  size_t meta_replicated_cell = 0;
  for (int replicas : {1, 3}) {
    cells.push_back(RunKillCell(Fault::kMeta, replicas, duration_s,
                                /*seed=*/42));
    if (replicas > 1) {
      meta_replicated_cell = cells.size() - 1;
    }
    PrintCell(cells.back());
  }
  cells.push_back(RunPartitionHealCell(/*replicas=*/2, /*seed=*/42));
  PrintCell(cells.back());

  // Determinism self-check: same seed, bit-identical goodput timeline,
  // failover events, and chain tip — for both tiers' replicated kill cells.
  AvailCell again = RunKillCell(Fault::kKey, /*replicas=*/2, duration_s,
                                /*seed=*/42);
  bool deterministic = Digest(again) == Digest(cells[1]);
  AvailCell meta_again = RunKillCell(Fault::kMeta, /*replicas=*/3,
                                     duration_s, /*seed=*/42);
  deterministic =
      deterministic && Digest(meta_again) == Digest(cells[meta_replicated_cell]);
  std::printf("determinism: %s\n", deterministic ? "ok" : "MISMATCH");

  if (!WriteBenchJson(JsonDoc("availability")
                          .Bool("deterministic", deterministic)
                          .Rows("cells", ToRows(cells, CellJson)),
                      argc, argv)) {
    return 1;
  }

  bool ok = deterministic;
  for (const AvailCell& c : cells) {
    ok = ok && c.recovery_ok && c.chains_verified && c.acked_preserved;
  }
  if (!ok) {
    std::fprintf(stderr, "availability acceptance checks FAILED\n");
    return 1;
  }
  return 0;
}
