// Figure 11: effect of the optimizations on auditability — the average
// number of keys resident in client memory, as a function of key expiration
// time, under three prefetch policies, over a multi-day usage trace (the
// stand-in for the paper's 12-day deployment).
//
// Paper landmark: 100 s expiration + prefetch-on-3rd-miss ≈ 38 keys in
// memory on average (most of them prefetch side-effects).

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/workload/longhaul.h"

namespace keypad {
namespace {

double AverageKeysInMemory(int texp_seconds, PrefetchPolicy policy,
                           int days) {
  // The deployment was used at home/work.
  DeploymentOptions options = bench::BenchDeployment(WlanProfile());
  options.config.texp = SimDuration::Seconds(texp_seconds);
  options.config.prefetch = policy;
  Deployment dep(options);

  LongHaulParams params;
  params.days = days;
  LongHaulWorkload workload = MakeLongHaulWorkload(params, /*seed=*/99);
  TraceRunner runner(&dep.fs(), &dep.queue());
  bench::RunOrDie(runner, workload.setup, "longhaul setup");
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));

  // Average over use periods: sample the cache size after every non-idle
  // operation, weighted equally (the paper's "averaged over use periods").
  double sum = 0;
  uint64_t samples = 0;
  runner.set_after_op([&](const TraceOp& op) {
    if (op.kind == TraceOp::Kind::kCompute &&
        op.compute > SimDuration::Minutes(5)) {
      return;  // Idle gap, not a use period.
    }
    sum += static_cast<double>(dep.fs().key_cache().size());
    ++samples;
  });
  runner.Run(workload.activity);
  return samples == 0 ? 0 : sum / static_cast<double>(samples);
}

}  // namespace
}  // namespace keypad

int main() {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("Figure 11: average in-memory keys vs key expiration");

  int days = FastMode() ? 3 : 12;
  std::vector<int> texps = {1, 10, 100, 1000};

  std::printf("%-10s %14s %18s %18s\n", "Texp(s)", "no prefetch",
              "prefetch 1st miss", "prefetch 3rd miss");
  for (int texp : texps) {
    double none = AverageKeysInMemory(texp, PrefetchPolicy::None(), days);
    double first =
        AverageKeysInMemory(texp, PrefetchPolicy::FullDirOnNthMiss(1), days);
    double third =
        AverageKeysInMemory(texp, PrefetchPolicy::FullDirOnNthMiss(3), days);
    std::printf("%-10d %14.1f %18.1f %18.1f\n", texp, none, first, third);
    std::fflush(stdout);
  }
  std::printf(
      "\npaper landmark: ~38 keys at Texp=100 s with 3rd-miss prefetch;\n"
      "ordering: no-prefetch < 3rd-miss < 1st-miss, all growing with Texp.\n");
  return 0;
}
