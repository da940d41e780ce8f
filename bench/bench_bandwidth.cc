// §5 bandwidth accounting: "During a 12-day period in which one of our
// authors used Keypad continuously, average Keypad bandwidth was under
// 5 kb/s, with occasional spikes up to 45 kb/s."
//
// Runs the multi-day trace and reports average and peak client-link
// traffic over the active periods.

#include <cstdio>

#include "bench/harness.h"
#include "src/workload/longhaul.h"

int main() {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("§5: Keypad network bandwidth over a multi-day deployment");

  // The author emulated 300 ms RTT.
  Deployment dep(BenchDeployment(CellularProfile()));

  LongHaulParams params;
  params.days = FastMode() ? 3 : 12;
  LongHaulWorkload workload = MakeLongHaulWorkload(params, /*seed=*/17);
  TraceRunner runner(&dep.fs(), &dep.queue());
  runner.Run(workload.setup);
  dep.queue().AdvanceBy(SimDuration::Seconds(202));
  dep.client_link().ResetCounters();

  // Track a peak over 10-second buckets.
  uint64_t last_bytes = 0;
  SimTime bucket_start = dep.queue().Now();
  double peak_kbps = 0;
  runner.set_after_op([&](const TraceOp&) {
    SimDuration window = dep.queue().Now() - bucket_start;
    if (window >= SimDuration::Seconds(10)) {
      uint64_t bytes = dep.client_link().bytes_sent() - last_bytes;
      double kbps =
          static_cast<double>(bytes) * 8 / 1000 / window.seconds_f();
      peak_kbps = std::max(peak_kbps, kbps);
      last_bytes = dep.client_link().bytes_sent();
      bucket_start = dep.queue().Now();
    }
  });

  SimTime t0 = dep.queue().Now();
  TraceRunResult result = runner.Run(workload.activity);
  dep.queue().RunUntilIdle();

  double total_kb = static_cast<double>(dep.ClientBytesSent()) * 8 / 1000;
  double wall_seconds = (dep.queue().Now() - t0).seconds_f();
  double active_seconds = workload.active_time.seconds_f();

  std::printf("trace: %d days, %zu ops, %.0f s active time\n", params.days,
              result.ops_executed, active_seconds);
  std::printf("total Keypad traffic: %.0f kb (%.1f kb per active minute)\n",
              total_kb, total_kb / (active_seconds / 60));
  std::printf("average over wall-clock: %.3f kb/s   (paper: < 5 kb/s)\n",
              total_kb / wall_seconds);
  std::printf("average over active use: %.3f kb/s   (paper: < 5 kb/s)\n",
              total_kb / active_seconds);
  std::printf("peak 10 s bucket:        %.1f kb/s   (paper spikes: ~45 kb/s)\n",
              peak_kbps);
  return 0;
}
