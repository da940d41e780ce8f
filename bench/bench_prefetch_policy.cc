// §5.1.1 "Directory-Key Prefetching": blocking key-cache misses during the
// Apache compile under different prefetch policies, at Texp = 100 s over
// 3G. Paper: prefetching on the 1st, 3rd, or 10th miss leaves 101, 249, or
// 424 blocking misses (no-prefetch: 486), i.e. 63.3%/24.1%/2.4% compile-
// time gains over no prefetching.
//
// Each policy is also scored on the §5.2 forensic axis: a post-loss report
// built at the end of the compile (Tloss = end, window = Texp) counts how
// many of the "compromised" files were touched only by prefetches —
// candidate false positives the audit over-reports. Aggressive prefetchers
// buy speed with audit noise; the v2 sequence prefetcher (DESIGN.md §13)
// is confidence-gated to hold that rate down.
//
// The second table re-runs the compile on the same deployment after the
// key cache has fully expired (the daily-rebuild case). The directory
// policies behave as on the first pass — they are stateless across runs —
// but the v2 sequence prefetcher has now seen the access stream once, so
// its learned chains (e.g. each module's local headers, always read in the
// same order) turn recurring cold misses into confident prefetches without
// ever prefetching a file the run does not then open.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/harness.h"

int main() {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("§5.1.1: directory-key prefetch policy (Apache compile, 3G)");

  struct Row {
    const char* name;
    PrefetchPolicy policy;
    int paper_misses;  // -1 = not reported.
  };
  Row rows[] = {
      {"no prefetch", PrefetchPolicy::None(), 486},
      {"prefetch on 1st miss", PrefetchPolicy::FullDirOnNthMiss(1), 101},
      {"prefetch on 3rd miss", PrefetchPolicy::FullDirOnNthMiss(3), 249},
      {"prefetch on 10th miss", PrefetchPolicy::FullDirOnNthMiss(10), 424},
      {"random-from-dir", PrefetchPolicy::RandomFromDir(4), -1},
      {"seq-v2 (conf 3)", PrefetchPolicy::SequenceHints(3, 4), -1},
      {"seq-v2 (conf 2, fan 8)", PrefetchPolicy::SequenceHints(2, 8), -1},
  };

  struct PassResult {
    uint64_t misses = 0;
    uint64_t prefetched = 0;
    double hit_rate = 0;
    double seconds = 0;
    size_t report_size = 0;
    double pf_rate = 0;
  };
  std::vector<PassResult> second_pass;

  std::printf("%-24s %8s %8s %10s %9s %10s %8s %10s\n", "policy", "misses",
              "paper", "prefetched", "hit-rate", "compile(s)", "report",
              "pf-only");
  double no_prefetch_time = 0;
  for (const auto& row : rows) {
    DeploymentOptions options = BenchDeployment(CellularProfile());
    options.config.ibe_enabled = false;
    options.config.prefetch = row.policy;

    // Inline version of RunKeypadCompile that keeps the deployment alive:
    // the §5.2 accounting needs the services' logs after each run.
    Deployment dep(options);
    ApacheWorkload workload =
        MakeApacheWorkload(CompileParams(), options.seed);
    TraceRunner runner(&dep.fs(), &dep.queue());
    RunOrDie(runner, workload.setup, "compile setup");

    // Drains the key cache (one refresh period, then the erase period),
    // runs the compile, and scores it: §5.1.1 miss counts plus the §5.2
    // theft report at the end of the run. `pf-only` files appear in that
    // report although the user never opened them in the window — the
    // audit-noise price of the policy's prefetching.
    auto measure = [&]() -> PassResult {
      // "make clean": the compile recreates every object through the
      // create-temp-then-rename path, which refuses existing destinations.
      auto build = dep.fs().Readdir("/build");
      if (build.ok()) {
        for (const auto& entry : *build) {
          if (!entry.is_dir &&
              !dep.fs().Unlink("/build/" + entry.name).ok()) {
            std::fprintf(stderr, "clean failed: /build/%s\n",
                         entry.name.c_str());
            std::exit(1);
          }
        }
      }
      dep.queue().AdvanceBy(options.config.texp * 2 +
                            SimDuration::Seconds(2));
      dep.fs().ResetStats();
      TraceRunResult result = RunOrDie(runner, workload.compile, "compile");
      PassResult pass;
      pass.seconds = result.elapsed.seconds_f();
      pass.misses = dep.fs().stats().demand_fetches;
      pass.prefetched = dep.fs().stats().keys_prefetched;
      // ResetStats() above zeroed the cache counters, so these are
      // pass-local.
      uint64_t hits = dep.fs().key_cache().hits();
      uint64_t misses = dep.fs().key_cache().misses();
      pass.hit_rate =
          hits + misses == 0 ? 0 : 100.0 * hits / (hits + misses);
      auto report = dep.auditor().BuildReport(
          dep.device_id(), dep.queue().Now(), options.config.texp);
      if (!report.ok()) {
        std::fprintf(stderr, "audit report failed: %s\n",
                     report.status().ToString().c_str());
        std::exit(1);
      }
      pass.report_size = report->compromised.size();
      pass.pf_rate = report->compromised.empty()
                         ? 0
                         : 100.0 * report->prefetch_only_count /
                               report->compromised.size();
      return pass;
    };

    PassResult first = measure();
    second_pass.push_back(measure());
    if (no_prefetch_time == 0) {
      no_prefetch_time = first.seconds;
    }

    char paper[16];
    std::snprintf(paper, sizeof(paper), "%d", row.paper_misses);
    std::printf("%-24s %8lu %8s %10lu %8.1f%% %10.1f %8zu %9.1f%%", row.name,
                static_cast<unsigned long>(first.misses),
                row.paper_misses < 0 ? "-" : paper,
                static_cast<unsigned long>(first.prefetched),
                first.hit_rate, first.seconds, first.report_size,
                first.pf_rate);
    if (first.seconds < no_prefetch_time) {
      std::printf("  (%.1f%% faster)",
                  100.0 * (no_prefetch_time - first.seconds) /
                      no_prefetch_time);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "\npaper gains over no-prefetch: 1st 63.3%%, 3rd 24.1%%, 10th 2.4%%\n"
      "report = files in the Tloss-window audit report; pf-only = share "
      "touched only by prefetch (candidate false positives, §5.2)\n");

  std::printf(
      "\n--- recurring run (same tree, key cache fully expired) ---\n"
      "%-24s %8s %10s %9s %10s %8s %10s\n",
      "policy", "misses", "prefetched", "hit-rate", "compile(s)", "report",
      "pf-only");
  double recurring_baseline = second_pass.empty() ? 0 : second_pass[0].seconds;
  for (size_t i = 0; i < second_pass.size(); ++i) {
    const PassResult& pass = second_pass[i];
    std::printf("%-24s %8lu %10lu %8.1f%% %10.1f %8zu %9.1f%%", rows[i].name,
                static_cast<unsigned long>(pass.misses),
                static_cast<unsigned long>(pass.prefetched), pass.hit_rate,
                pass.seconds, pass.report_size, pass.pf_rate);
    if (recurring_baseline > 0 && pass.seconds < recurring_baseline) {
      std::printf("  (%.1f%% faster)",
                  100.0 * (recurring_baseline - pass.seconds) /
                      recurring_baseline);
    }
    std::printf("\n");
  }
  return 0;
}
