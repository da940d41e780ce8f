// The benchmark's metric vocabulary and the small statistics it needs.
//
// Two kinds of number are kept apart:
//  * virtual — deterministic outputs of the simulator's cost model; for a
//    fixed seed and size they must reproduce bit-for-bit in every run;
//  * host — measurements of the implementation on this machine (CPU
//    seconds, RSS, ns per call); each is the median of the untraced
//    repetitions, each repetition in a fresh process.

#ifndef BENCHMARK_METRICS_H_
#define BENCHMARK_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace keypad::bench {

enum class Kind { kHost, kVirtual };

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  Kind kind;
  // End-to-end metrics carry a regression bound in BENCHMARK.json.
  bool end_to_end;
};

// Every metric the benchmark reports, end-to-end first. Each workload
// reports every metric; a per-layer metric a workload does not emit is 0,
// its layer doing no work there.
const std::vector<MetricDef>& Catalog();
const MetricDef* FindMetric(const std::string& name);

// Nearest-rank percentile of an ascending-sorted sample:
// sorted[floor(q * (n - 1))]. 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double q);
// The highest-percentile value with at least ten samples beyond it (the
// 11th largest). 0 when the sample has fewer than eleven values.
double TailWithTenBeyond(const std::vector<double>& sorted);
double Median(std::vector<double> values);
// a / b, or 0 when b is 0 (a layer that did no work).
double Ratio(double a, double b);

}  // namespace keypad::bench

#endif  // BENCHMARK_METRICS_H_
