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

bool g_invariant_ok = true;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT FAILED: %s\n", what);
    g_invariant_ok = false;
  }
}

double WallSeconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

AuditId NthId(uint32_t n) {
  AuditId id;
  id.v[0] = static_cast<uint8_t>(n);
  id.v[1] = static_cast<uint8_t>(n >> 8);
  id.v[2] = static_cast<uint8_t>(n >> 16);
  id.v[3] = 0xa1;
  return id;
}

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
    log.Append(queue.Now(), "laptop", NthId(static_cast<uint32_t>(i)),
               AccessOp::kDemandFetch);
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
    log.Append(queue.Now(), "laptop", NthId(static_cast<uint32_t>(i)),
               AccessOp::kPrefetch);
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

void WriteJson(const std::string& path, const std::vector<SoakCell>& soak,
               const CatchupCell& catchup, const ColdCell& cold) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"auditlog\",\n  \"soak\": [\n");
  for (size_t i = 0; i < soak.size(); ++i) {
    const SoakCell& c = soak[i];
    std::fprintf(
        f,
        "    {\"truncate\": %s, \"ops\": %zu, \"chain_size\": %llu, "
        "\"resident_peak\": %zu, \"resident_final\": %zu, "
        "\"truncated\": %llu, \"segments_shipped\": %llu, "
        "\"append_ms\": %.3f, \"verified\": %s}%s\n",
        c.truncate ? "true" : "false", c.ops,
        static_cast<unsigned long long>(c.chain_size), c.resident_peak,
        c.resident_final, static_cast<unsigned long long>(c.truncated),
        static_cast<unsigned long long>(c.segments_shipped), c.append_ms,
        c.verified ? "true" : "false", i + 1 < soak.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"catchup\": {\"creates\": %zu, \"key_chain\": %llu, "
      "\"meta_chain\": %llu, \"genesis_fetched\": %llu, "
      "\"anchored_fetched\": %llu, \"ratio\": %.1f, \"genesis_ms\": %.3f, "
      "\"anchored_ms\": %.3f},\n",
      catchup.creates, static_cast<unsigned long long>(catchup.key_chain),
      static_cast<unsigned long long>(catchup.meta_chain),
      static_cast<unsigned long long>(catchup.genesis_fetched),
      static_cast<unsigned long long>(catchup.anchored_fetched),
      catchup.ratio, catchup.genesis_ms, catchup.anchored_ms);
  std::fprintf(
      f,
      "  \"cold\": {\"ops\": %zu, \"flips\": %zu, \"segments\": %llu, "
      "\"scanned\": %llu, \"repaired\": %llu, \"unrepairable\": %llu, "
      "\"scrub_ms\": %.3f, \"full_chain_verified\": %s},\n",
      cold.ops, cold.flips, static_cast<unsigned long long>(cold.segments),
      static_cast<unsigned long long>(cold.scanned),
      static_cast<unsigned long long>(cold.repaired),
      static_cast<unsigned long long>(cold.unrepairable), cold.scrub_ms,
      cold.full_chain_verified ? "true" : "false");
  std::fprintf(f, "  \"invariants_ok\": %s\n}\n",
               g_invariant_ok ? "true" : "false");
  std::fclose(f);
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
                c.truncate ? "on" : "off", c.ops,
                static_cast<unsigned long long>(c.chain_size),
                c.resident_peak, c.resident_final,
                static_cast<unsigned long long>(c.segments_shipped));
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
              catchup.creates,
              static_cast<unsigned long long>(catchup.key_chain),
              static_cast<unsigned long long>(catchup.meta_chain),
              static_cast<unsigned long long>(catchup.genesis_fetched),
              static_cast<unsigned long long>(catchup.anchored_fetched),
              catchup.ratio);
  Require(catchup.ratio >= 10.0,
          "checkpoint catch-up fetches >= 10x fewer rows than genesis");

  std::printf("\n--- cold: bit rot, scrub repair, forensic replay ---\n");
  ColdCell cold = RunColdCell(fast ? 512 : 4096, fast ? 8 : 32);
  std::printf("ops=%zu flips=%zu segments=%llu scanned=%llu repaired=%llu "
              "unrepairable=%llu verified=%s\n",
              cold.ops, cold.flips,
              static_cast<unsigned long long>(cold.segments),
              static_cast<unsigned long long>(cold.scanned),
              static_cast<unsigned long long>(cold.repaired),
              static_cast<unsigned long long>(cold.unrepairable),
              cold.full_chain_verified ? "true" : "false");
  Require(cold.unrepairable == 0, "every rotted segment repairs from cloud");
  Require(cold.full_chain_verified,
          "full chain verifies through the cold tier after repair");

  std::string out = argc > 1 ? std::string(argv[1])
                             : std::string("BENCH_auditlog.json");
  WriteJson(out, soak, catchup, cold);
  std::printf("\nwrote %s\n", out.c_str());
  if (!g_invariant_ok) {
    std::fprintf(stderr, "auditlog bench: invariant failures\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace keypad

int main(int argc, char** argv) { return keypad::Main(argc, argv); }
