// Figure 8: Apache compile time as a function of network RTT,
//  (a) with vs without IBE (atop 100 s caching + 3rd-miss prefetching) —
//      the paper's crossover is ≈ 25 ms RTT;
//  (b) with vs without a paired phone (atop the same optimizations).

#include <cstdio>
#include <vector>

#include "bench/harness.h"

int main() {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("Figure 8: effect of IBE (a) and device pairing (b) vs RTT");

  std::vector<double> rtts_ms = {0.1, 1, 5, 10, 25, 50, 125, 300};
  if (FastMode()) {
    rtts_ms = {0.1, 10, 25, 125, 300};
  }

  auto run = [&](double rtt_ms, bool ibe, bool phone) {
    DeploymentOptions options =
        BenchDeployment(CustomRttProfile(SimDuration::FromMillisF(rtt_ms)));
    options.config.ibe_enabled = ibe;
    options.paired_phone = phone;
    return RunKeypadCompile(options);
  };

  std::printf("\n(a) IBE — compile seconds\n");
  std::printf("%-10s %14s %14s %10s\n", "RTT(ms)", "without IBE", "with IBE",
              "winner");
  for (double rtt : rtts_ms) {
    double without_ibe = run(rtt, /*ibe=*/false, /*phone=*/false);
    double with_ibe = run(rtt, /*ibe=*/true, /*phone=*/false);
    std::printf("%-10.1f %14.1f %14.1f %10s\n", rtt, without_ibe, with_ibe,
                with_ibe < without_ibe ? "IBE" : "no-IBE");
    std::fflush(stdout);
  }
  std::printf("paper: crossover ≈ 25 ms; IBE improves 3G by 36.9%%\n");

  std::printf("\n(b) paired phone — compile seconds (laptop on Bluetooth)\n");
  std::printf("%-10s %14s %14s\n", "RTT(ms)", "without phone", "with phone");
  for (double rtt : rtts_ms) {
    double without_phone = run(rtt, /*ibe=*/true, /*phone=*/false);
    double with_phone = run(rtt, /*ibe=*/true, /*phone=*/true);
    std::printf("%-10.1f %14.1f %14.1f\n", rtt, without_phone, with_phone);
    std::fflush(stdout);
  }
  std::printf(
      "paper: pairing always helps on cellular RTTs; disconnected operation\n"
      "over Bluetooth performs like broadband (Fig. 8b)\n");
  return 0;
}
