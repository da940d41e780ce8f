// Durability bench (DESIGN.md §12): the crash-consistent storage tier.
//
// Four cell groups, each gated by an invariant (any miss exits nonzero):
//  * recovery — wall-clock journal replay time vs. journal size, on a
//    journaled backend whose checkpoint threshold is set high enough that
//    the whole workload accumulates in the journal.
//  * scrub — wall-clock scrub throughput over a populated volume with a
//    committed cloud replica; every injected bit flip must be detected AND
//    repaired from the cloud.
//  * restore — virtual-time restore-after-theft cost vs. volume size: a
//    fresh device rebuilds the volume from the cloud manifest and the
//    result must be byte-identical to the original.
//  * explorer — the systematic power-fail sweep: every injection point of
//    a mixed workload must recover to an all-or-nothing state.
//
// Emits BENCH_durability.json (path = argv[1]) alongside the printed table.

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/blockdev/fault_injection.h"
#include "src/blockdev/scrubber.h"
#include "src/blockdev/write_back.h"
#include "src/encfs/durability_harness.h"

namespace keypad {
namespace {

using namespace bench;

ObjectId NthId(size_t n) { return bench::NthId<ObjectId>(n, 0xd7); }

// --- Recovery time vs. journal size. ----------------------------------------

struct RecoveryCell {
  size_t txns = 0;
  uint64_t journal_bytes = 0;
  uint64_t replayed = 0;
  double recover_ms = 0;
};

RecoveryCell RunRecoveryCell(size_t txns) {
  JournalOptions options;
  options.checkpoint_bytes = size_t{1} << 30;  // Never checkpoint.
  auto backend = MakeJournaledBackend(options);
  Bytes payload(1024, 0xab);
  for (size_t i = 0; i < txns; ++i) {
    std::vector<StorageOp> batch;
    batch.push_back(StorageOp::Put(NthId(i % 256), payload));
    if (backend->Apply(std::move(batch)).ok()) {
      (void)backend->Sync();
    }
  }
  RecoveryCell cell;
  cell.txns = txns;
  RecoveryReport report;
  auto start = std::chrono::steady_clock::now();
  auto recovered = backend->RecoverFromCrash(&report);
  cell.recover_ms = WallSeconds(start) * 1e3;
  cell.journal_bytes = report.journal_bytes_scanned;
  cell.replayed = report.committed_txns_replayed;
  Require(report.committed_txns_replayed == txns,
          "recovery replayed every committed txn");
  Require(report.torn_txns_discarded == 0 && report.corrupt_records == 0,
          "clean shutdown recovery saw no torn or corrupt records");
  Require(recovered->ObjectCount() == std::min<size_t>(txns, 256),
          "recovered object area matches the applied workload");
  return cell;
}

// --- Scrub throughput. ------------------------------------------------------

struct ScrubCell {
  size_t objects = 0;
  size_t flips = 0;
  uint64_t scanned = 0;
  uint64_t repaired = 0;
  uint64_t unrepairable = 0;
  double scrub_ms = 0;
  double objects_per_s = 0;
};

ScrubCell RunScrubCell(size_t objects, size_t flips) {
  EventQueue queue;
  JournalOptions options;
  options.checkpoint_bytes = 64 * 1024;
  BlockDevice device(MakeJournaledBackend(options));
  SimObjectStore cloud(&queue);
  WriteBackQueue write_back(&device, &cloud);

  Bytes body(4096, 0x5c);
  for (size_t i = 0; i < objects; ++i) {
    body[0] = static_cast<uint8_t>(i);
    device.WriteObject(NthId(i), body);
  }
  bool flushed = false;
  write_back.FlushNow([&](Status s) { flushed = s.ok(); });
  queue.RunUntilIdle();
  cloud.SettleNow();
  Require(flushed, "scrub cell: cloud flush committed");

  (void)device.backend().Checkpoint();
  SimRandom rng(41);
  BitRotReport rot = InjectBitRot(device.backend(), rng, flips);
  std::set<ObjectId> damaged(rot.damaged.begin(), rot.damaged.end());

  Scrubber scrubber(&device, &cloud);
  auto start = std::chrono::steady_clock::now();
  ScrubReport report = scrubber.Scrub();
  double seconds = WallSeconds(start);

  ScrubCell cell;
  cell.objects = objects;
  cell.flips = flips;
  cell.scanned = report.objects_scanned;
  cell.repaired = report.repaired;
  cell.unrepairable = report.unrepairable;
  cell.scrub_ms = seconds * 1e3;
  cell.objects_per_s = seconds == 0 ? 0 : report.objects_scanned / seconds;
  Require(report.rot_detected == damaged.size(),
          "scrubber detected every bit-rotted object");
  Require(report.repaired == damaged.size() && report.unrepairable == 0,
          "scrubber repaired every bit-rotted object from the cloud");
  Require(report.tamper_suspect == 0, "bit rot never classified as tamper");
  ScrubReport again = Scrubber(&device, &cloud).Scrub();
  Require(again.rot_detected == 0 && again.clean == again.objects_scanned,
          "volume scans clean after repair");
  return cell;
}

// --- Restore time vs. volume size. ------------------------------------------

struct RestoreCell {
  size_t files = 0;
  uint64_t volume_bytes = 0;
  uint64_t objects_fetched = 0;
  double restore_virtual_s = 0;
};

RestoreCell RunRestoreCell(size_t files) {
  EventQueue queue;
  BlockDevice device(MakeJournaledBackend(JournalOptions{}));
  EncFs::Options fs_options;
  fs_options.kdf_iterations = 16;
  auto fs = EncFs::Format(&device, &queue, /*rng_seed=*/29, "bench-pw",
                          fs_options);
  if (!fs.ok()) {
    std::fprintf(stderr, "restore cell: format failed\n");
    std::abort();
  }
  Bytes body(8192, 0x3e);
  for (size_t i = 0; i < files; ++i) {
    std::string path = "/f" + std::to_string(i);
    (void)(*fs)->Create(path);
    body[0] = static_cast<uint8_t>(i);
    (void)(*fs)->WriteAll(path, body);
  }
  SimObjectStore cloud(&queue);
  WriteBackQueue write_back(&device, &cloud);
  bool flushed = false;
  write_back.FlushNow([&](Status s) { flushed = s.ok(); });
  queue.RunUntilIdle();
  cloud.SettleNow();
  Require(flushed, "restore cell: cloud flush committed");
  auto before = CaptureLogicalVolume(**fs);

  BlockDevice fresh(MakeJournaledBackend(JournalOptions{}));
  auto restore = RestoreVolumeFromCloud(cloud, fresh, queue);
  Require(restore.ok(), "restore from cloud succeeded");

  RestoreCell cell;
  cell.files = files;
  cell.volume_bytes = device.TotalBytes();
  if (restore.ok()) {
    cell.objects_fetched = restore->objects_fetched;
    cell.restore_virtual_s = restore->elapsed.seconds_f();
    Require(restore->tag_failures == 0, "no tag failures during restore");
  }
  auto remounted = EncFs::Mount(&fresh, &queue, /*rng_seed=*/31, "bench-pw",
                                fs_options);
  Require(remounted.ok(), "restored volume mounts");
  if (remounted.ok() && before.ok()) {
    auto after = CaptureLogicalVolume(**remounted);
    Require(after.ok() && *after == *before,
            "restored volume is byte-identical");
  }
  return cell;
}

// --- JSON emission. ---------------------------------------------------------

bench::JsonDoc ToJson(const std::vector<RecoveryCell>& recovery,
                      const ScrubCell& scrub,
                      const std::vector<RestoreCell>& restore,
                      const ExplorerResult& explorer) {
  auto recovery_rows = bench::ToRows(recovery, [](const RecoveryCell& c) {
    return bench::JsonRow()
        .Int("txns", c.txns).Int("journal_bytes", c.journal_bytes)
        .Int("replayed", c.replayed).Num("recover_ms", c.recover_ms, 3);
  });
  auto restore_rows = bench::ToRows(restore, [](const RestoreCell& c) {
    return bench::JsonRow()
        .Int("files", c.files).Int("volume_bytes", c.volume_bytes)
        .Int("objects_fetched", c.objects_fetched)
        .Num("restore_virtual_s", c.restore_virtual_s, 4);
  });
  bench::JsonDoc doc("durability");
  doc.Rows("recovery", recovery_rows)
      .Row("scrub",
           bench::JsonRow()
               .Int("objects", scrub.objects).Int("flips", scrub.flips)
               .Int("scanned", scrub.scanned).Int("repaired", scrub.repaired)
               .Int("unrepairable", scrub.unrepairable)
               .Num("scrub_ms", scrub.scrub_ms, 3)
               .Num("objects_per_s", scrub.objects_per_s, 1))
      .Rows("restore", restore_rows)
      .Row("explorer",
           bench::JsonRow()
               .Int("injection_points", explorer.injection_points)
               .Int("crashes_explored", explorer.crashes_explored)
               .Int("atomic_states", explorer.atomic_states)
               .Int("torn_states", explorer.torn_states)
               .Int("unmountable", explorer.unmountable)
               .Bool("all_atomic", explorer.all_atomic()))
      .Bool("invariants_ok", g_invariant_ok);
  return doc;
}

int Main(int argc, char** argv) {
  const bool fast = bench::FastMode();

  std::printf("=== Durability bench (DESIGN.md §12)%s ===\n\n",
              fast ? " [fast]" : "");

  std::printf("--- journal replay: recovery time vs. journal size ---\n");
  std::printf("%10s %14s %10s %12s\n", "txns", "journal_B", "replayed",
              "recover_ms");
  std::vector<size_t> txn_sweep =
      fast ? std::vector<size_t>{16, 64, 128}
           : std::vector<size_t>{64, 256, 1024, 4096};
  std::vector<RecoveryCell> recovery;
  for (size_t txns : txn_sweep) {
    recovery.push_back(RunRecoveryCell(txns));
    const RecoveryCell& c = recovery.back();
    std::printf("%10zu %14llu %10llu %12.3f\n", c.txns,
                Llu(c.journal_bytes), Llu(c.replayed), c.recover_ms);
  }

  std::printf("\n--- scrub: throughput + cloud repair ---\n");
  ScrubCell scrub = RunScrubCell(fast ? 64 : 512, fast ? 6 : 24);
  std::printf("objects=%zu flips=%zu scanned=%llu repaired=%llu "
              "unrepairable=%llu scrub_ms=%.3f objects/s=%.1f\n",
              scrub.objects, scrub.flips, Llu(scrub.scanned),
              Llu(scrub.repaired), Llu(scrub.unrepairable),
              scrub.scrub_ms, scrub.objects_per_s);

  std::printf("\n--- restore-after-theft: virtual time vs. volume size ---\n");
  std::printf("%8s %14s %10s %12s\n", "files", "volume_B", "objects",
              "restore_s");
  std::vector<size_t> file_sweep = fast ? std::vector<size_t>{4, 8, 16}
                                        : std::vector<size_t>{8, 32, 128};
  std::vector<RestoreCell> restore;
  for (size_t files : file_sweep) {
    restore.push_back(RunRestoreCell(files));
    const RestoreCell& c = restore.back();
    std::printf("%8zu %14llu %10llu %12.4f\n", c.files,
                Llu(c.volume_bytes), Llu(c.objects_fetched),
                c.restore_virtual_s);
  }

  std::printf("\n--- crash-point explorer: power-fail sweep ---\n");
  ExplorerOptions explorer_options;
  explorer_options.workload_ops = fast ? 8 : 16;
  ExplorerResult explorer = ExploreCrashPoints(explorer_options);
  std::printf("points=%llu crashes=%llu atomic=%llu torn=%llu "
              "unmountable=%llu all_atomic=%s\n",
              Llu(explorer.injection_points), Llu(explorer.crashes_explored),
              Llu(explorer.atomic_states), Llu(explorer.torn_states),
              Llu(explorer.unmountable),
              explorer.all_atomic() ? "true" : "false");
  Require(explorer.all_atomic(),
          "journaled backend is atomic at every injection point");

  if (!bench::WriteBenchJson(ToJson(recovery, scrub, restore, explorer),
                             argc, argv, "\n")) {
    return 1;
  }
  return bench::InvariantExit("durability");
}

}  // namespace
}  // namespace keypad

int main(int argc, char** argv) { return keypad::Main(argc, argv); }
