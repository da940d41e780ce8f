// Audit-log lifecycle bench (DESIGN.md §15): the segmented-log substrate's
// production story, gated by invariants (any miss exits nonzero):
//
//  * soak — steady-state resident entries under a long append stream.
//    With truncation on, the in-memory suffix must stay flat (bounded by
//    the unsealed tail plus ship lag); with truncation off it grows
//    linearly with the workload. Same chain length, same verification.
//  * catchup — a fresh auditor joining a long-lived deployment: replaying
//    from genesis vs anchoring on the signed checkpoint chain. The gate is
//    the ISSUE acceptance bar: checkpoint catch-up pulls >= 10x fewer log
//    rows over the audit RPC surface.
//  * cold — forensic durability of the shipped prefix: bit rot injected
//    into the local cold tier must scrub clean from the cloud mirror, and
//    the full chain (cold segments included) must verify end to end.
//
// Emits BENCH_auditlog.json (path = argv[1]) alongside the printed table.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/auditlog/segment_store.h"
#include "src/blockdev/fault_injection.h"
#include "src/keypad/forensics.h"
#include "src/keyservice/audit_log.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

using namespace bench;

AuditId NthId(size_t n) { return bench::NthId<AuditId>(n, 0xa1); }

// --- Soak: resident entries vs. append volume. ------------------------------

struct SoakCell {
  bool truncate = false;
  size_t ops = 0;
  uint64_t chain_size = 0;
  size_t resident_peak = 0;
  size_t resident_final = 0;
  uint64_t truncated = 0;
  uint64_t segments_shipped = 0;
  double append_ms = 0;
  bool verified = false;
};

SoakCell RunSoakCell(bool truncate, size_t ops, uint64_t segment_ops) {
  EventQueue queue;
  SimObjectStore cloud(&queue);
  SegmentStore store(MakeMemoryBackend(), &cloud);
  AuditLog log;
  SegmentedLogOptions options;
  options.segment_ops = segment_ops;
  options.cold_ship = true;
  options.truncate = truncate;
  log.Configure(options);
  log.set_segment_store(&store, "key");

  SoakCell cell;
  cell.truncate = truncate;
  cell.ops = ops;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ops; ++i) {
    log.Append(queue.Now(), "laptop", NthId(i), AccessOp::kDemandFetch);
    cell.resident_peak = std::max(cell.resident_peak, log.entries().size());
    if ((i & 0x3ff) == 0) {
      queue.RunUntilIdle();  // Drain the cloud-mirror uploads.
    }
  }
  cell.append_ms = WallSeconds(start) * 1e3;
  queue.RunUntilIdle();
  cell.chain_size = log.size();
  cell.resident_final = log.entries().size();
  cell.truncated = log.truncated_entries();
  cell.segments_shipped = log.segments_shipped();
  cell.verified = log.Verify().ok() && log.VerifyTail().ok();
  return cell;
}

// --- Catch-up: checkpoint anchor vs. genesis replay. ------------------------

struct CatchupCell {
  size_t creates = 0;
  uint64_t key_chain = 0;
  uint64_t meta_chain = 0;
  uint64_t genesis_fetched = 0;
  uint64_t anchored_fetched = 0;
  double ratio = 0;
  double genesis_ms = 0;
  double anchored_ms = 0;
};

CatchupCell RunCatchupCell(size_t creates) {
  CatchupCell cell;
  cell.creates = creates;
  {
    DeploymentOptions options;
    options.profile = BroadbandProfile();
    options.config.ibe_enabled = false;
    options.config.prefetch = PrefetchPolicy::None();
    // Both log tiers checkpoint, ship, and truncate.
    SegmentedLogOptions lifecycle;
    lifecycle.segment_ops = 16;
    lifecycle.truncate = true;
    options.key_service.log = lifecycle;
    options.meta_log = lifecycle;
    Deployment dep(options);
    auto& fs = dep.fs();
    (void)fs.Mkdir("/docs");
    for (size_t i = 0; i < creates; ++i) {
      Require(fs.Create("/docs/f" + std::to_string(i)).ok(),
              "catchup workload create");
    }
    dep.queue().AdvanceBy(SimDuration::Seconds(5));
    SimTime t_loss = dep.queue().Now();
    cell.key_chain = dep.key_service().log().size();
    cell.meta_chain = dep.metadata_service().log().size();
    Require(dep.key_service().log().base_seq() > 0,
            "catchup deployment truncates its key log");

    auto creds = dep.MakeAttacker().StealCredentials();
    Require(creds.ok(), "stolen credentials");

    auto clients_a = dep.MakeAttackerClients(*creds);
    RemoteAuditor genesis(clients_a->key_rpc.get(), clients_a->meta_rpc.get(),
                          creds->device_id, creds->key_secret,
                          creds->meta_secret);
    auto start = std::chrono::steady_clock::now();
    Require(genesis.BuildReport(t_loss, fs.config().texp).ok(),
            "genesis audit succeeds");
    cell.genesis_ms = WallSeconds(start) * 1e3;
    cell.genesis_fetched = genesis.entries_fetched();

    auto clients_b = dep.MakeAttackerClients(*creds);
    RemoteAuditor anchored(clients_b->key_rpc.get(), clients_b->meta_rpc.get(),
                           creds->device_id, creds->key_secret,
                           creds->meta_secret);
    start = std::chrono::steady_clock::now();
    Require(anchored.CatchUpFromCheckpoints().ok(),
            "checkpoint catch-up verifies");
    Require(anchored.BuildReport(t_loss, fs.config().texp).ok(),
            "anchored audit succeeds");
    cell.anchored_ms = WallSeconds(start) * 1e3;
    cell.anchored_fetched = anchored.entries_fetched();
  }
  cell.ratio = cell.anchored_fetched == 0
                   ? static_cast<double>(cell.genesis_fetched)
                   : static_cast<double>(cell.genesis_fetched) /
                         static_cast<double>(cell.anchored_fetched);
  return cell;
}

// --- Cold tier: bit rot, scrub repair, forensic replay. ---------------------

struct ColdCell {
  size_t ops = 0;
  size_t flips = 0;
  uint64_t segments = 0;
  uint64_t scanned = 0;
  uint64_t repaired = 0;
  uint64_t unrepairable = 0;
  double scrub_ms = 0;
  bool full_chain_verified = false;
};

ColdCell RunColdCell(size_t ops, size_t flips) {
  EventQueue queue;
  SimObjectStore cloud(&queue);
  SegmentStore store(MakeMemoryBackend(), &cloud);
  AuditLog log;
  SegmentedLogOptions options;
  options.segment_ops = 32;
  options.cold_ship = true;
  options.truncate = true;
  log.Configure(options);
  log.set_segment_store(&store, "key");
  for (size_t i = 0; i < ops; ++i) {
    log.Append(queue.Now(), "laptop", NthId(i), AccessOp::kPrefetch);
  }
  queue.RunUntilIdle();
  cloud.SettleNow();

  ColdCell cell;
  cell.ops = ops;
  cell.flips = flips;
  cell.segments = log.segments_shipped();
  SimRandom rng(42);
  (void)InjectBitRot(*store.backend(), rng, flips);
  auto start = std::chrono::steady_clock::now();
  auto report = store.Scrub();
  cell.scrub_ms = WallSeconds(start) * 1e3;
  cell.scanned = report.scanned;
  cell.repaired = report.repaired;
  cell.unrepairable = report.unrepairable;
  cell.full_chain_verified = log.VerifyFullChain().ok();
  return cell;
}

// --- Output. ----------------------------------------------------------------

bench::JsonDoc ToJson(const std::vector<SoakCell>& soak,
                      const CatchupCell& catchup, const ColdCell& cold) {
  auto soak_rows = bench::ToRows(soak, [](const SoakCell& c) {
    return bench::JsonRow()
        .Bool("truncate", c.truncate).Int("ops", c.ops)
        .Int("chain_size", c.chain_size).Int("resident_peak", c.resident_peak)
        .Int("resident_final", c.resident_final)
        .Int("truncated", c.truncated)
        .Int("segments_shipped", c.segments_shipped)
        .Num("append_ms", c.append_ms, 3).Bool("verified", c.verified);
  });
  bench::JsonDoc doc("auditlog");
  doc.Rows("soak", soak_rows)
      .Row("catchup",
           bench::JsonRow()
               .Int("creates", catchup.creates)
               .Int("key_chain", catchup.key_chain)
               .Int("meta_chain", catchup.meta_chain)
               .Int("genesis_fetched", catchup.genesis_fetched)
               .Int("anchored_fetched", catchup.anchored_fetched)
               .Num("ratio", catchup.ratio, 1)
               .Num("genesis_ms", catchup.genesis_ms, 3)
               .Num("anchored_ms", catchup.anchored_ms, 3))
      .Row("cold",
           bench::JsonRow()
               .Int("ops", cold.ops).Int("flips", cold.flips)
               .Int("segments", cold.segments).Int("scanned", cold.scanned)
               .Int("repaired", cold.repaired)
               .Int("unrepairable", cold.unrepairable)
               .Num("scrub_ms", cold.scrub_ms, 3)
               .Bool("full_chain_verified", cold.full_chain_verified))
      .Bool("invariants_ok", g_invariant_ok);
  return doc;
}

int Main(int argc, char** argv) {
  const bool fast = bench::FastMode();
  std::printf("=== Audit-log lifecycle bench (DESIGN.md §15)%s ===\n\n",
              fast ? " [fast]" : "");

  const uint64_t segment_ops = 64;
  const size_t soak_ops = fast ? 20000 : 200000;
  std::printf("--- soak: resident entries vs. append volume ---\n");
  std::printf("%9s %9s %11s %13s %14s %10s\n", "truncate", "ops",
              "chain_size", "resident_peak", "resident_final", "shipped");
  std::vector<SoakCell> soak;
  for (bool truncate : {true, false}) {
    soak.push_back(RunSoakCell(truncate, soak_ops, segment_ops));
    const SoakCell& c = soak.back();
    std::printf("%9s %9zu %11llu %13zu %14zu %10llu\n",
                c.truncate ? "on" : "off", c.ops, Llu(c.chain_size),
                c.resident_peak, c.resident_final, Llu(c.segments_shipped));
    Require(c.verified, "soak chain verifies");
    Require(c.chain_size == c.ops, "soak chain length equals appends");
  }
  // Flat means bounded by the segment granularity, independent of ops;
  // growing means every append stays resident.
  Require(soak[0].resident_peak <= 2 * segment_ops,
          "truncation keeps resident entries flat (<= 2 segments)");
  Require(soak[0].resident_final <= 2 * segment_ops,
          "truncation keeps steady-state resident entries flat");
  Require(soak[1].resident_final == soak_ops,
          "without truncation every entry stays resident");

  std::printf("\n--- catchup: checkpoint anchor vs. genesis replay ---\n");
  CatchupCell catchup = RunCatchupCell(fast ? 80 : 300);
  std::printf("creates=%zu key_chain=%llu meta_chain=%llu genesis=%llu "
              "anchored=%llu ratio=%.1fx\n",
              catchup.creates, Llu(catchup.key_chain), Llu(catchup.meta_chain),
              Llu(catchup.genesis_fetched), Llu(catchup.anchored_fetched),
              catchup.ratio);
  Require(catchup.ratio >= 10.0,
          "checkpoint catch-up fetches >= 10x fewer rows than genesis");

  std::printf("\n--- cold: bit rot, scrub repair, forensic replay ---\n");
  ColdCell cold = RunColdCell(fast ? 512 : 4096, fast ? 8 : 32);
  std::printf("ops=%zu flips=%zu segments=%llu scanned=%llu repaired=%llu "
              "unrepairable=%llu verified=%s\n",
              cold.ops, cold.flips, Llu(cold.segments), Llu(cold.scanned),
              Llu(cold.repaired), Llu(cold.unrepairable),
              cold.full_chain_verified ? "true" : "false");
  Require(cold.unrepairable == 0, "every rotted segment repairs from cloud");
  Require(cold.full_chain_verified,
          "full chain verifies through the cold tier after repair");

  if (!bench::WriteBenchJson(ToJson(soak, catchup, cold), argc, argv,
                             "\n")) {
    return 1;
  }
  return bench::InvariantExit("auditlog");
}

}  // namespace
}  // namespace keypad

int main(int argc, char** argv) { return keypad::Main(argc, argv); }
