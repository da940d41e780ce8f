// §5.2 "False Positives": audit-log precision under the default
// prefetch-directory-keys-on-3rd-miss policy, for three thief scenarios.
// Paper ratios (false positives : total accessed keys): Thunderbird 3:30,
// document editor 6:67, Firefox 0:12.
//
// The full theft pipeline runs for real: victim populates the volume, the
// device goes cold, the thief mounts the snapshot with stolen credentials
// and replays the scenario, and the forensic auditor classifies every
// key-service record against the thief's ground-truth read set.

#include <cstdio>

#include "bench/harness.h"
#include "src/workload/thief.h"

int main() {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("§5.2: prefetch-induced false positives (thief scenarios)");

  std::printf("%-18s %8s %8s %10s %14s %12s\n", "scenario", "FPs", "total",
              "paperFP", "paper-total", "0 false-neg");
  for (const auto& scenario : MakeThiefScenarios(/*seed=*/5)) {
    DeploymentOptions options = BenchDeployment(BroadbandProfile());
    Deployment dep(options);

    TraceRunner setup_runner(&dep.fs(), &dep.queue());
    RunOrDie(setup_runner, scenario.setup, scenario.name + " setup");
    dep.queue().AdvanceBy(SimDuration::Seconds(300));
    dep.queue().RunUntilIdle();
    SimTime t_loss = dep.queue().Now();

    // The thief takes the device and replays the scenario on his own mount.
    RawDeviceAttacker attacker = dep.MakeAttacker();
    auto creds = attacker.StealCredentials();
    auto clients = dep.MakeAttackerClients(*creds);
    auto thief_fs = attacker.MountOnline(clients->services, options.config);
    TraceRunner thief_runner(thief_fs->get(), &dep.queue());
    thief_runner.Run(scenario.thief_trace);

    auto report =
        dep.auditor().BuildReport(dep.device_id(), t_loss, options.config.texp);

    // Classify: a report entry whose file the thief never actually read is
    // a false positive; a read file missing from the report would be a
    // false negative (must never happen).
    size_t false_positives = 0;
    size_t false_negatives = 0;
    for (const auto& entry : report->compromised) {
      auto path = dep.metadata_service().ResolvePath(dep.device_id(),
                                                     entry.audit_id, t_loss);
      if (path.ok() && scenario.files_read.count(*path) == 0) {
        ++false_positives;
      }
    }
    for (const auto& path : scenario.files_read) {
      auto header = (*thief_fs)->ReadHeaderOf(path);
      if (header.ok() && !report->Compromised(header->audit_id)) {
        ++false_negatives;
      }
    }

    std::printf("%-18s %8zu %8zu %10d %14d %12s\n", scenario.name.c_str(),
                false_positives, report->compromised.size(),
                scenario.paper_false_positives, scenario.paper_total_keys,
                false_negatives == 0 ? "yes" : "VIOLATED");
    std::fflush(stdout);
  }
  return 0;
}
