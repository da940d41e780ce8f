// Chaos soak: a seeded mixed workload rides through burst loss,
// duplication, reordering, and latency jitter on the client link, PLUS a
// crash/restart of each audit service mid-run — and the audit invariants
// hold at the end:
//   * both hash-chained logs Verify();
//   * retries and duplicated deliveries never double-write audit rows
//     (at most one kCreate per audit id);
//   * every file whose create succeeded is re-readable after recovery,
//     including a fresh key fetch from the restored service.
//
// Everything is seeded, so a given seed reproduces the identical fault
// schedule — the last test asserts that outright.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

struct SoakResult {
  int created = 0;
  uint64_t key_log_size = 0;
  uint64_t meta_log_size = 0;
  Bytes key_log_tip;  // Final audit-log entry hash: digests the whole run.
  // Overload-phase observability (DESIGN.md §14): the retry ladder's own
  // trajectory, which the determinism tests compare bit-for-bit.
  uint64_t attempts = 0;
  uint64_t sheds = 0;
  uint64_t rejects_seen = 0;
  uint64_t retries_denied = 0;
};

SoakResult RunSoak(uint64_t seed, int key_replicas = 1,
                   int meta_replicas = 1, bool overload = false) {
  ResetRpcClientIdsForTesting();

  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  options.seed = seed;
  options.rpc.timeout = SimDuration::Seconds(2);
  options.key_replicas = key_replicas;
  options.meta_replicas = meta_replicas;
  if (overload) {
    // §14 overload phase: retries are budget-gated, so the ladder's
    // behavior under saturation is itself part of the seeded replay.
    options.rpc.retry_budget.enabled = true;
  }
  Deployment dep(options);
  auto& fs = dep.fs();
  if (overload) {
    // Admission-controlled key tier with a tight sojourn target: the
    // saturation spikes below push it into the overloaded state, where
    // demand traffic draws explicit REJECTED instead of queueing.
    AdmissionOptions adm;
    adm.enabled = true;
    adm.target_sojourn = SimDuration::Millis(2);
    adm.overload_interval = SimDuration::Millis(20);
    dep.key_rpc_server().set_admission(adm);
  }

  LinkChaosOptions chaos;
  chaos.latency_jitter_frac = 0.3;
  chaos.duplicate_probability = 0.05;
  chaos.reorder_probability = 0.1;
  chaos.burst_loss = true;
  chaos.p_enter_bad = 0.01;
  chaos.p_exit_bad = 0.15;
  chaos.loss_bad = 0.5;
  dep.client_link().set_chaos(chaos);

  // Both services die and come back mid-workload, at different times.
  SimTime t0 = dep.queue().Now();
  dep.ScheduleKeyServiceCrash(t0 + SimDuration::Seconds(60),
                              SimDuration::Seconds(20));
  dep.ScheduleMetadataServiceCrash(t0 + SimDuration::Seconds(150),
                                   SimDuration::Seconds(20));
  if (meta_replicas > 1) {
    // Replicated metadata tier: pile a second kill/heal cycle onto the
    // backup that promoted after the 150 s leader kill, so the soak rides
    // through two metadata failovers plus a rejoin mid-chaos.
    dep.ScheduleMetaReplicaCrash(1, t0 + SimDuration::Seconds(190),
                                 SimDuration::Seconds(20));
  }

  SimRandom rng(seed * 1000003);
  std::vector<std::string> files;  // Current paths of created files.
  SoakResult result;
  for (int i = 0; i < 120; ++i) {
    if (overload && i % 10 == 0) {
      // Saturation spike: the key tier is busy for the next 5 virtual
      // seconds. Demand fetches landing in the spike either time out
      // (feeding the budget-gated retry ladder) or draw REJECTED once
      // the CoDel clock declares the tier overloaded.
      dep.key_rpc_server().ChargeBusy(SimDuration::Seconds(5));
    }
    uint64_t roll = rng.UniformU64(10);
    if (roll < 4 || files.empty()) {
      std::string path = "/f" + std::to_string(i);
      if (fs.Create(path).ok()) {
        files.push_back(path);
        ++result.created;
        // A successful create must be durable end to end even if the
        // write's own RPCs struggle; WriteAll is local (no key refetch
        // needed within texp), so it should succeed.
        EXPECT_TRUE(fs.WriteAll(path, BytesOf("payload-" + path)).ok());
      }
    } else if (roll < 8) {
      // Reads may fail mid-chaos (key fetch into an outage) — that's the
      // point; they must all succeed again after recovery.
      fs.ReadAll(files[rng.UniformU64(files.size())]).status();
    } else {
      size_t victim = rng.UniformU64(files.size());
      std::string renamed = files[victim] + "r";
      Status status = fs.Rename(files[victim], renamed);
      // EncFs applies the local rename before the (possibly failing)
      // metadata registration, so track wherever the file actually lives.
      if (status.ok() || fs.Stat(renamed).ok()) {
        files[victim] = renamed;
      }
    }
    dep.queue().AdvanceBy(SimDuration::Seconds(2));
  }

  // Heal the network, drain stragglers, and expire every cached key so the
  // final reads demand-fetch from the restored services. Replicated runs
  // drain by advancing time instead of RunUntilIdle: their lease renewals
  // only go quiet once every replica pair is healthy again (DESIGN.md
  // §17), which a chaos schedule does not promise.
  dep.client_link().set_chaos(LinkChaosOptions{});
  if (key_replicas > 1 || meta_replicas > 1) {
    dep.queue().AdvanceBy(SimDuration::Seconds(30));
  } else {
    dep.queue().RunUntilIdle();
  }
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));

  EXPECT_GT(result.created, 10) << "seed " << seed;
  EXPECT_FALSE(dep.key_rpc_server().down());
  EXPECT_FALSE(dep.meta_rpc_server().down());

  // Invariant: hash chains intact across crash/restart.
  EXPECT_TRUE(dep.key_service().log().Verify().ok()) << "seed " << seed;
  EXPECT_TRUE(dep.metadata_service().log().Verify().ok()) << "seed " << seed;

  // Invariant: retries + duplicated deliveries never double-registered —
  // at most one kCreate row per audit id.
  std::map<AuditId, int> creates;
  for (const auto& entry : dep.key_service().log().entries()) {
    if (entry.op == AccessOp::kCreate) {
      ++creates[entry.audit_id];
    }
  }
  for (const auto& [id, count] : creates) {
    EXPECT_EQ(count, 1) << "seed " << seed << ": duplicate kCreate for "
                        << id.ToHex();
  }

  // Invariant: every successfully created file is re-readable after
  // recovery (key + metadata registered, key refetch works).
  for (const auto& path : files) {
    EXPECT_TRUE(fs.ReadAll(path).ok()) << "seed " << seed << ": " << path;
    AuditId id = fs.ReadHeaderOf(path)->audit_id;
    EXPECT_TRUE(dep.metadata_service()
                    .ResolvePath(dep.device_id(), id, dep.queue().Now())
                    .ok())
        << "seed " << seed << ": " << path;
  }

  // The chaos actually bit: the at-most-once layer absorbed replays, the
  // client retried, and the crashed servers swallowed traffic.
  uint64_t dedup_work = dep.key_rpc_server().reply_cache().hits() +
                        dep.key_rpc_server().reply_cache().in_flight_drops() +
                        dep.meta_rpc_server().reply_cache().hits() +
                        dep.meta_rpc_server().reply_cache().in_flight_drops();
  EXPECT_GE(dedup_work, 1u) << "seed " << seed;
  EXPECT_GT(dep.key_rpc().attempts_started(), dep.key_rpc().calls_started())
      << "seed " << seed;
  EXPECT_GE(dep.key_rpc_server().requests_dropped(), 1u) << "seed " << seed;
  EXPECT_GE(dep.meta_rpc_server().requests_dropped(), 1u) << "seed " << seed;

  // Replicated runs: the leader crash above hit the shard's current
  // leader, a backup promoted through the chaos, and the ex-primary
  // rejoined — chains must have reconverged on every replica, and the
  // forensic report must verify all of them.
  if (key_replicas > 1) {
    ReplicaSet* set = dep.replica_set(0);
    EXPECT_NE(set, nullptr) << "seed " << seed;
    EXPECT_GE(set->stats().promotions, 1u) << "seed " << seed;
    EXPECT_GE(set->stats().rejoins, 1u) << "seed " << seed;
    const AuditLog& authority =
        dep.key_replica(0, set->current_leader()).log();
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      const AuditLog& log = dep.key_replica(0, r).log();
      EXPECT_TRUE(log.Verify().ok()) << "seed " << seed << " replica " << r;
      EXPECT_EQ(log.size(), authority.size())
          << "seed " << seed << " replica " << r;
    }
    auto report = dep.auditor().BuildReport(dep.device_id(), t0,
                                            options.config.texp);
    EXPECT_TRUE(report.ok()) << "seed " << seed;
    if (report.ok()) {
      EXPECT_TRUE(report->replica_logs_verified) << "seed " << seed;
    }
  }

  // Replicated metadata tier: both scheduled kills hit live metadata
  // leaders, backups promoted, the dead replicas rejoined — every
  // namespace chain must have reconverged and the forensic report must
  // verify all of them alongside the key tier's.
  if (meta_replicas > 1) {
    MetaReplicaSet* meta_set = dep.meta_replica_set();
    EXPECT_NE(meta_set, nullptr) << "seed " << seed;
    EXPECT_GE(meta_set->stats().promotions, 1u) << "seed " << seed;
    EXPECT_GE(meta_set->stats().rejoins, 1u) << "seed " << seed;
    const MetadataLog& authority =
        dep.meta_replica(meta_set->current_leader()).log();
    for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
      const MetadataLog& log = dep.meta_replica(r).log();
      EXPECT_TRUE(log.Verify().ok()) << "seed " << seed << " replica " << r;
      EXPECT_EQ(log.size(), authority.size())
          << "seed " << seed << " replica " << r;
    }
    auto report = dep.auditor().BuildReport(dep.device_id(), t0,
                                            options.config.texp);
    EXPECT_TRUE(report.ok()) << "seed " << seed;
    if (report.ok()) {
      EXPECT_TRUE(report->replica_logs_verified) << "seed " << seed;
      EXPECT_TRUE(report->metadata_log_verified) << "seed " << seed;
    }
  }

  result.key_log_size = dep.key_service().log().entries().size();
  result.meta_log_size = dep.metadata_service().log().records().size();
  result.key_log_tip = dep.key_service().log().entries().back().entry_hash;
  result.attempts = dep.key_rpc().attempts_started();
  result.sheds = dep.key_rpc_server().requests_shed() +
                 dep.key_rpc_server().deadline_expired();
  result.rejects_seen = dep.key_rpc().calls_rejected_by_server();
  result.retries_denied = dep.key_rpc().retries_budget_denied();
  if (overload) {
    // The overload phase actually bit: the tier went overloaded, shed
    // work with explicit REJECTED, and the client observed it — and the
    // audit invariants above all held anyway.
    EXPECT_GE(dep.key_rpc_server().overload_events(), 1u) << "seed " << seed;
    EXPECT_GT(result.sheds, 0u) << "seed " << seed;
    EXPECT_GT(result.rejects_seen, 0u) << "seed " << seed;
  }
  return result;
}

TEST(ChaosSoakTest, Seed1) { RunSoak(1); }
TEST(ChaosSoakTest, Seed2) { RunSoak(2); }
TEST(ChaosSoakTest, Seed3) { RunSoak(3); }

// The same chaos schedule with a replicated key tier: the 60 s crash now
// hits a replica-set leader mid-soak and failover rides through it.
TEST(ChaosSoakTest, Seed1Replicated) { RunSoak(1, /*key_replicas=*/2); }
TEST(ChaosSoakTest, Seed2Replicated) { RunSoak(2, /*key_replicas=*/2); }

// Replicated metadata tier on the same substrate: the 150 s crash kills
// the metadata leader and a second cycle at 190 s kills the promoted
// backup — two failovers, two rejoins, chains reconverged.
TEST(ChaosSoakTest, Seed1ReplicatedMeta) {
  RunSoak(1, /*key_replicas=*/1, /*meta_replicas=*/3);
}
TEST(ChaosSoakTest, Seed2ReplicatedMeta) {
  RunSoak(2, /*key_replicas=*/1, /*meta_replicas=*/3);
}

// Both tiers replicated at once, riding the same chaos schedule.
TEST(ChaosSoakTest, Seed1ReplicatedBothTiers) {
  RunSoak(1, /*key_replicas=*/2, /*meta_replicas=*/2);
}

// §14 overload phase on the same substrate: periodic saturation spikes
// against an admission-controlled key tier, with budget-gated retries.
// The audit invariants must hold even while the tier sheds demand work.
TEST(ChaosSoakTest, OverloadSeed1) {
  RunSoak(1, /*key_replicas=*/1, /*meta_replicas=*/1, /*overload=*/true);
}
TEST(ChaosSoakTest, OverloadSeed2) {
  RunSoak(2, /*key_replicas=*/1, /*meta_replicas=*/1, /*overload=*/true);
}

TEST(ChaosSoakTest, DeterministicAcrossRuns) {
  SoakResult a = RunSoak(1);
  SoakResult b = RunSoak(1);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.key_log_size, b.key_log_size);
  EXPECT_EQ(a.meta_log_size, b.meta_log_size);
  EXPECT_EQ(a.key_log_tip, b.key_log_tip);
}

TEST(ChaosSoakTest, ReplicatedDeterministicAcrossRuns) {
  SoakResult a = RunSoak(1, /*key_replicas=*/2);
  SoakResult b = RunSoak(1, /*key_replicas=*/2);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.key_log_size, b.key_log_size);
  EXPECT_EQ(a.meta_log_size, b.meta_log_size);
  EXPECT_EQ(a.key_log_tip, b.key_log_tip);
}

TEST(ChaosSoakTest, OverloadDeterministicAcrossRuns) {
  SoakResult a = RunSoak(1, 1, 1, /*overload=*/true);
  SoakResult b = RunSoak(1, 1, 1, /*overload=*/true);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.key_log_size, b.key_log_size);
  EXPECT_EQ(a.meta_log_size, b.meta_log_size);
  EXPECT_EQ(a.key_log_tip, b.key_log_tip);
  // The retry ladder itself replayed bit-identically under the budget:
  // same wire attempts, same sheds, same REJECTED observations, same
  // budget denials — overload handling adds no nondeterminism.
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.rejects_seen, b.rejects_seen);
  EXPECT_EQ(a.retries_denied, b.retries_denied);
}

TEST(ChaosSoakTest, ReplicatedMetaDeterministicAcrossRuns) {
  SoakResult a = RunSoak(1, /*key_replicas=*/1, /*meta_replicas=*/3);
  SoakResult b = RunSoak(1, /*key_replicas=*/1, /*meta_replicas=*/3);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.key_log_size, b.key_log_size);
  EXPECT_EQ(a.meta_log_size, b.meta_log_size);
  EXPECT_EQ(a.key_log_tip, b.key_log_tip);
}

}  // namespace
}  // namespace keypad
