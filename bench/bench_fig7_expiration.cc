// Figure 7: effect of key expiration time on the Apache compile, with key
// caching as the only optimization (no prefetching, no IBE), across LAN,
// Broadband, DSL, and 3G.
//
// Paper anchors at Texp = 100 s: LAN 115 s, Broadband 153 s, DSL 292 s,
// 3G 551 s; baselines 112 s (EncFS) and 63 s (ext3).

#include <cstdio>
#include <vector>

#include "bench/harness.h"

int main() {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("Figure 7: Apache compile time vs key expiration (caching only)");

  double ext3 = RunLocalCompile(/*encrypt=*/false);
  double encfs = RunLocalCompile(/*encrypt=*/true);
  std::printf("baselines: ext3 %.1f s (paper %.0f), EncFS %.1f s (paper %.0f)\n",
              ext3, ScaleAnchor(63), encfs, ScaleAnchor(112));

  struct Anchor {
    NetworkProfile profile;
    double paper_at_100s;
  };
  std::vector<Anchor> anchors = {
      {LanProfile(), 115},
      {BroadbandProfile(), 153},
      {DslProfile(), 292},
      {CellularProfile(), 551},
  };
  std::vector<int> texps = {1, 3, 10, 30, 100, 300, 1000};

  std::printf("\n%-12s", "Texp(s)");
  for (const auto& anchor : anchors) {
    std::printf(" %12s", anchor.profile.name.c_str());
  }
  std::printf("\n");

  for (int texp : texps) {
    std::printf("%-12d", texp);
    for (const auto& anchor : anchors) {
      DeploymentOptions options = BenchDeployment(anchor.profile);
      options.config.ibe_enabled = false;
      options.config.prefetch = PrefetchPolicy::None();
      options.config.texp = SimDuration::Seconds(texp);
      std::printf(" %12.1f", RunKeypadCompile(options));
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("%-12s", "paper@100s");
  for (const auto& anchor : anchors) {
    std::printf(" %12.1f", ScaleAnchor(anchor.paper_at_100s));
  }
  std::printf("\n");
  return 0;
}
