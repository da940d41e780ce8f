// Figure 9: impact of the optimizations on five application workloads over
// an emulated 3G network. Optimizations are enabled cumulatively:
// unoptimized → +caching (100 s) → +prefetching (3rd miss) → +IBE.

#include <cstdio>

#include "bench/harness.h"
#include "src/workload/office.h"

namespace keypad {
namespace {

double RunWorkload(const Fig9Workload& w, SimDuration texp,
                   PrefetchPolicy prefetch, bool ibe) {
  DeploymentOptions options = bench::BenchDeployment(CellularProfile());
  options.config.texp = texp;
  options.config.prefetch = prefetch;
  options.config.ibe_enabled = ibe;
  Deployment dep(options);

  TraceRunner runner(&dep.fs(), &dep.queue());
  bench::RunOrDie(runner, w.setup, w.name + " setup");
  // Cold caches.
  dep.queue().AdvanceBy(texp * 2 + SimDuration::Seconds(2));
  dep.queue().RunUntilIdle();
  SimTime t0 = dep.queue().Now();
  TraceRunResult result = runner.Run(w.trace);
  if (result.failures != 0) {
    std::fprintf(stderr, "%s failed: %s\n", w.name.c_str(),
                 result.first_failure.ToString().c_str());
  }
  return (dep.queue().Now() - t0).seconds_f();
}

}  // namespace
}  // namespace keypad

int main() {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("Figure 9: impact of optimizations on applications (3G)");

  std::printf("%-26s %10s %10s %10s %10s | %9s %9s\n", "workload", "unopt",
              "+caching", "+prefetch", "+IBE", "paper-un", "paper-opt");
  for (const auto& w : MakeFig9Workloads(/*seed=*/42)) {
    // "Unoptimized": a 1-ms expiry effectively disables caching.
    double unopt = RunWorkload(w, SimDuration::Millis(1),
                               PrefetchPolicy::None(), false);
    double caching = RunWorkload(w, SimDuration::Seconds(100),
                                 PrefetchPolicy::None(), false);
    double prefetch = RunWorkload(w, SimDuration::Seconds(100),
                                  PrefetchPolicy::FullDirOnNthMiss(3), false);
    double ibe = RunWorkload(w, SimDuration::Seconds(100),
                             PrefetchPolicy::FullDirOnNthMiss(3), true);
    std::printf("%-26s %10.2f %10.2f %10.2f %10.2f | %9.2f %9.2f",
                w.name.c_str(), unopt, caching, prefetch, ibe,
                w.paper_unoptimized_seconds, w.paper_optimized_seconds);
    if (unopt > 0) {
      std::printf("   (total gain %.1f%%, paper %.1f%%)",
                  100.0 * (unopt - ibe) / unopt,
                  100.0 *
                      (w.paper_unoptimized_seconds -
                       w.paper_optimized_seconds) /
                      w.paper_unoptimized_seconds);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
