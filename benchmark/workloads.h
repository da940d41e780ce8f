// The benchmark's four workloads. Each call runs one repetition — set-up,
// then the measured phase — inside the calling process, and returns what
// it measured. bench_main.cc runs every repetition in a fresh child
// process.

#ifndef BENCHMARK_WORKLOADS_H_
#define BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace keypad::bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Sizes the measured phase: the default of 15 fits three untraced
  // repetitions in about that many CPU seconds on a 2-vCPU VM.
  int seconds = 15;
  // Installs the three decorators and records spans.
  bool traced = false;
  std::string spans_path;  // Traced runs write their spans here, if set.
};

struct Gate {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct RepResult {
  double setup_cpu_s = 0;
  double measured_cpu_s = 0;
  double measured_wall_s = 0;
  uint64_t attempted = 0;  // User ops issued in the measured phase.
  uint64_t failed = 0;     // Of those, ops that failed, were shed or refused.
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<Gate> gates;
  std::vector<std::string> notes;  // Context lines for the printed report.
};

const std::vector<std::string>& WorkloadNames();
bool IsWorkload(const std::string& name);
RepResult RunWorkload(const RunConfig& config);

}  // namespace keypad::bench

#endif  // BENCHMARK_WORKLOADS_H_
