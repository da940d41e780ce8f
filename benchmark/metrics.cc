#include "benchmark/metrics.h"

#include <algorithm>

namespace keypad::bench {

namespace {
constexpr bool kHigher = true;
constexpr bool kLower = false;

MetricDef EndToEnd(const char* name, const char* unit, bool higher, Kind kind) {
  return {name, unit, higher, kind, true};
}
MetricDef Layer(const char* name, const char* unit, bool higher, Kind kind) {
  return {name, unit, higher, kind, false};
}
}  // namespace

const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> catalog = {
      // --- End to end. ----------------------------------------------------
      EndToEnd("setup_s", "s", kLower, Kind::kHost),
      EndToEnd("ops_per_host_s", "1/s", kHigher, Kind::kHost),
      EndToEnd("peak_rss_mb", "MiB", kLower, Kind::kHost),
      EndToEnd("goodput_ops_per_vs", "1/s", kHigher, Kind::kVirtual),
      EndToEnd("op_tail_ms", "ms", kLower, Kind::kVirtual),
      EndToEnd("audit_rows_per_op", "row/op", kLower, Kind::kVirtual),
      EndToEnd("wire_bytes_per_op", "B/op", kLower, Kind::kVirtual),
      // --- Per layer (named after the src/ modules). ------------------------
      Layer("sim.events_per_op", "ev/op", kLower, Kind::kVirtual),
      Layer("sim.events_per_host_s", "1/s", kHigher, Kind::kHost),
      Layer("sim.idle_host_s", "s", kLower, Kind::kHost),
      Layer("sim.idle_events_per_vs", "1/s", kLower, Kind::kVirtual),
      Layer("sim.allocated_nodes", "count", kLower, Kind::kVirtual),
      Layer("net.messages_per_op", "msg/op", kLower, Kind::kVirtual),
      Layer("net.bytes_per_message", "B/msg", kLower, Kind::kVirtual),
      Layer("wire.xml_ns_per_call", "ns", kLower, Kind::kHost),
      Layer("wire.binary_ns_per_call", "ns", kLower, Kind::kHost),
      Layer("wire.buffer_reuse_ratio", "ratio", kHigher, Kind::kVirtual),
      Layer("rpc.calls_per_op", "call/op", kLower, Kind::kVirtual),
      Layer("rpc.attempts_per_call", "ratio", kLower, Kind::kVirtual),
      Layer("rpc.shed_ratio", "ratio", kLower, Kind::kVirtual),
      Layer("rpc.deadline_expired", "count", kLower, Kind::kVirtual),
      Layer("rpc.queue_high_water", "count", kLower, Kind::kVirtual),
      Layer("rpc.overload_events", "count", kLower, Kind::kVirtual),
      Layer("keyservice.hot_hit_ratio", "ratio", kHigher, Kind::kVirtual),
      Layer("keyservice.group_size_avg", "row/group", kHigher, Kind::kVirtual),
      Layer("keyservice.router_batch_avg", "key/rpc", kHigher, Kind::kVirtual),
      Layer("keyservice.router_join_ratio", "ratio", kHigher, Kind::kVirtual),
      Layer("keyservice.negative_hits", "count", kHigher, Kind::kVirtual),
      Layer("keyservice.seal_host_us_per_row", "us", kLower, Kind::kHost),
      Layer("keyservice.client_calls_per_kop", "call/kop", kLower,
            Kind::kVirtual),
      Layer("keyservice.client_virt_ms_p99", "ms", kLower, Kind::kVirtual),
      Layer("keyservice.client_host_us_per_call", "us", kLower, Kind::kHost),
      Layer("keyservice.max_rate_under_slo", "1/s", kHigher, Kind::kVirtual),
      Layer("keypad.cache_hit_ratio", "ratio", kHigher, Kind::kVirtual),
      Layer("keypad.metadata_blocking", "count", kLower, Kind::kVirtual),
      Layer("keypad.ibe_blocking_unlocks", "count", kLower, Kind::kVirtual),
      Layer("keypad.read_virt_ms_p99", "ms", kLower, Kind::kVirtual),
      Layer("keypad.create_virt_ms_p99", "ms", kLower, Kind::kVirtual),
      Layer("keypad.read_host_us", "us", kLower, Kind::kHost),
      Layer("keypad.write_host_us", "us", kLower, Kind::kHost),
      Layer("keypad.create_host_us", "us", kLower, Kind::kHost),
      Layer("keypad.rename_host_us", "us", kLower, Kind::kHost),
      Layer("keypad.keys_prefetched", "count", kLower, Kind::kVirtual),
      Layer("keypad.refreshes", "count", kLower, Kind::kVirtual),
      Layer("keypad.app_virtual_s", "s", kLower, Kind::kVirtual),
      Layer("keypad.exposure_avg_keys", "key", kLower, Kind::kVirtual),
      Layer("keypad.false_positive_ratio", "ratio", kLower, Kind::kVirtual),
      Layer("blockdev.reads_per_op", "read/op", kLower, Kind::kVirtual),
      Layer("blockdev.read_host_us", "us", kLower, Kind::kHost),
      Layer("blockdev.apply_host_us", "us", kLower, Kind::kHost),
      Layer("blockdev.write_amplification", "ratio", kLower, Kind::kVirtual),
      Layer("metaservice.rows_per_op", "row/op", kLower, Kind::kVirtual),
      Layer("metaservice.requests_per_op", "req/op", kLower, Kind::kVirtual),
      Layer("replication.deltas_shipped", "count", kLower, Kind::kVirtual),
      Layer("replication.append_failures", "count", kLower, Kind::kVirtual),
      Layer("replication.promotions", "count", kLower, Kind::kVirtual),
      Layer("auditlog.rows_fetched", "count", kLower, Kind::kVirtual),
      Layer("auditlog.report_host_ms", "ms", kLower, Kind::kHost),
      Layer("auditlog.report_virt_ms", "ms", kLower, Kind::kVirtual),
      Layer("auditlog.resident_rows_peak", "count", kLower, Kind::kVirtual),
      Layer("client.op_p50_ms", "ms", kLower, Kind::kVirtual),
      Layer("client.op_p99_ms", "ms", kLower, Kind::kVirtual),
      Layer("client.op_samples", "count", kHigher, Kind::kVirtual),
  };
  return catalog;
}

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& def : Catalog()) {
    if (name == def.name) {
      return &def;
    }
  }
  return nullptr;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double last = static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(q * last)];
}

double TailWithTenBeyond(const std::vector<double>& sorted) {
  return sorted.size() < 11 ? 0 : sorted[sorted.size() - 11];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace keypad::bench
