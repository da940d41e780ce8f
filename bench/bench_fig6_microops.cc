// Figure 6: microbenchmark of Keypad file-system operation latency.
//  (a) content operations — read/write with key-cache hits and misses;
//  (b) metadata operations — create/rename with and without IBE, mkdir;
// each on a LAN (0.1 ms RTT) and 3G (300 ms RTT).

#include <cstdio>

#include "bench/harness.h"

namespace keypad {
namespace {

struct OpTimer {
  Deployment& dep;
  double MeasureMs(const std::function<void()>& op) {
    SimTime t0 = dep.queue().Now();
    op();
    return (dep.queue().Now() - t0).seconds_f() * 1000;
  }
};

void ExpireKeys(Deployment& dep) {
  dep.queue().AdvanceBy(dep.fs().config().texp * 2 + SimDuration::Seconds(2));
}

void RunProfile(const NetworkProfile& profile) {
  std::printf("\n--- %s (RTT %.1f ms) ---\n", profile.name.c_str(),
              profile.rtt.millis_f());
  std::printf("%-28s %12s %14s\n", "operation", "measured(ms)", "paper(ms)");

  bool is_3g = profile.rtt.millis() >= 300;
  auto row = [&](const char* name, double measured, double paper) {
    std::printf("%-28s %12.3f %14.3f\n", name, measured, paper);
  };

  // --- Content ops (Fig. 6a). ------------------------------------------------
  {
    DeploymentOptions options = bench::BenchDeployment(profile);
    options.config.ibe_enabled = false;
    options.config.prefetch = PrefetchPolicy::None();
    Deployment dep(options);
    OpTimer timer{dep};
    auto& fs = dep.fs();
    fs.Create("/f").ok();
    fs.WriteAll("/f", Bytes(4096, 1)).ok();

    ExpireKeys(dep);
    double read_miss =
        timer.MeasureMs([&] { fs.Read("/f", 0, 4096).status(); });
    double read_hit =
        timer.MeasureMs([&] { fs.Read("/f", 0, 4096).status(); });
    ExpireKeys(dep);
    double write_miss =
        timer.MeasureMs([&] { fs.Write("/f", 0, Bytes(4096, 2)).ok(); });
    double write_hit =
        timer.MeasureMs([&] { fs.Write("/f", 0, Bytes(4096, 3)).ok(); });

    row("read, key-cache miss", read_miss, is_3g ? 300.84 : 0.94);
    row("read, key-cache hit", read_hit, is_3g ? 0.35 : 0.35);
    row("write, key-cache miss", write_miss, is_3g ? 301.04 : 1.14);
    row("write, key-cache hit", write_hit, is_3g ? 0.46 : 0.46);
  }

  // --- Metadata ops without IBE (Fig. 6b). -----------------------------------
  {
    DeploymentOptions options = bench::BenchDeployment(profile);
    options.config.ibe_enabled = false;
    Deployment dep(options);
    OpTimer timer{dep};
    auto& fs = dep.fs();
    fs.Create("/r1").ok();

    double create =
        timer.MeasureMs([&] { fs.Create("/c1").ok(); });
    double rename =
        timer.MeasureMs([&] { fs.Rename("/r1", "/r2").ok(); });
    double mkdir = timer.MeasureMs([&] { fs.Mkdir("/d1").ok(); });

    row("create, without IBE", create, is_3g ? 301.86 : 1.62);
    row("rename, without IBE", rename, is_3g ? 300.95 : 0.95);
    row("mkdir", mkdir, is_3g ? 301.12 : 1.12);
  }

  // --- Metadata ops with IBE. --------------------------------------------------
  {
    Deployment dep(bench::BenchDeployment(profile));
    OpTimer timer{dep};
    auto& fs = dep.fs();
    fs.Create("/r1").ok();
    dep.queue().AdvanceBy(SimDuration::Seconds(2));

    double create = timer.MeasureMs([&] { fs.Create("/c1").ok(); });
    // Warm the key so the rename can grace-cache the data key.
    fs.ReadAll("/r1").status();
    double rename =
        timer.MeasureMs([&] { fs.Rename("/r1", "/r2").ok(); });
    dep.queue().RunUntilIdle();

    row("create, with IBE", create, is_3g ? 27.14 : 27.14);
    row("rename, with IBE", rename, is_3g ? 26.58 : 26.58);
  }
}

}  // namespace
}  // namespace keypad

int main() {
  keypad::bench::PrintHeader(
      "Figure 6: file operation latency (content + metadata ops)");
  std::printf(
      "Paper values are the stacked-bar totals of Fig. 6a/6b; IBE cost is\n"
      "the client-side lock (25.299 ms in the paper's measurement).\n");
  keypad::RunProfile(keypad::LanProfile());
  keypad::RunProfile(keypad::CellularProfile());
  return 0;
}
