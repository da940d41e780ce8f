#include "benchmark/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "benchmark/metrics.h"
#include "benchmark/tracing.h"
#include "src/keypad/deployment.h"
#include "src/keyservice/auth.h"
#include "src/keyservice/shard_router.h"
#include "src/wire/codec.h"
#include "src/workload/apache.h"
#include "src/workload/fleet.h"
#include "src/workload/longhaul.h"
#include "src/workload/thief.h"
#include "src/workload/trace.h"

namespace keypad::bench {
namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "benchmark: %s\n", what.c_str());
  std::exit(3);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Workload sizes are calibrated for the default 15 s; other --seconds
// values scale them linearly.
int Scaled(double base, int seconds) {
  return std::max(1, static_cast<int>(std::lround(base * seconds / 15.0)));
}

// Real links jitter. Drawn from the deployment's seeded link RNG, so a seed
// still fixes every virtual time.
void AddJitter(Deployment& dep) {
  LinkChaosOptions chaos;
  chaos.latency_jitter_frac = 0.2;
  dep.client_link().set_chaos(chaos);
}

class Emitter {
 public:
  explicit Emitter(RepResult* result) : result_(result) {}
  void Set(const char* name, double value) {
    if (FindMetric(name) == nullptr) {
      Die(std::string("metric missing from the catalog: ") + name);
    }
    result_->metrics.emplace_back(name, value);
  }
  void Check(const std::string& name, bool ok, const std::string& detail = "") {
    result_->gates.push_back({name, ok, detail});
  }
  void Note(const std::string& line) { result_->notes.push_back(line); }

 private:
  RepResult* result_;
};

// CPU and wall clocks around one phase.
struct Stopwatch {
  int64_t cpu0 = CpuNanos();
  double wall0 = WallSeconds();
  double cpu_s() const { return (CpuNanos() - cpu0) / 1e9; }
  double wall_s() const { return WallSeconds() - wall0; }
};

std::string Fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

// --- User-op latency. --------------------------------------------------------

// Records each non-compute trace op's virtual latency. Ops run back to
// back, so an op starts where the previous one (compute included) ended.
class OpRecorder {
 public:
  explicit OpRecorder(EventQueue* queue) : queue_(queue) {}

  // Call right before runner.Run().
  void Attach(TraceRunner& runner, std::function<void()> after = {}) {
    last_ = queue_->Now();
    after_ = std::move(after);
    runner.set_after_op([this](const TraceOp& op) {
      const SimTime now = queue_->Now();
      if (op.kind != TraceOp::Kind::kCompute) {
        latencies_ms.push_back((now - last_).millis_f());
        if (op.kind == TraceOp::Kind::kWrite) {
          bytes_written += op.size;
        }
      }
      last_ = now;
      if (after_) {
        after_();
      }
    });
  }

  std::vector<double> latencies_ms;
  uint64_t bytes_written = 0;

 private:
  EventQueue* queue_;
  SimTime last_;
  std::function<void()> after_;
};

void EmitLatency(Emitter& e, std::vector<double> latencies_ms) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  e.Set("op_tail_ms", TailWithTenBeyond(latencies_ms));
  e.Set("client.op_p50_ms", Percentile(latencies_ms, 0.50));
  e.Set("client.op_p99_ms", Percentile(latencies_ms, 0.99));
  e.Set("client.op_samples", latencies_ms.size());
}

// --- Counter snapshots. ------------------------------------------------------

struct Counters {
  uint64_t events = 0;
  uint64_t link_bytes = 0;
  uint64_t link_messages = 0;
  uint64_t rpc_calls = 0;
  uint64_t rpc_attempts = 0;
  uint64_t buffer_acquires = 0;
  uint64_t buffer_reuses = 0;
  uint64_t requests = 0;  // Handled by every service-tier server.
  uint64_t meta_requests = 0;
  uint64_t shed = 0;
  uint64_t deadline_expired = 0;
  uint64_t overload_events = 0;
  uint64_t queue_high_water = 0;  // Max over servers; not a delta.
  uint64_t key_rows = 0;          // Authoritative chains only.
  uint64_t meta_rows = 0;
  uint64_t commit_groups = 0;
  uint64_t seal_ns = 0;
  uint64_t hot_hits = 0;
  uint64_t hot_misses = 0;
  uint64_t negative_hits = 0;
  uint64_t batch_rpcs = 0;
  uint64_t batched_keys = 0;
  uint64_t sf_leaders = 0;
  uint64_t sf_joins = 0;
  uint64_t block_reads = 0;
  uint64_t deltas_shipped = 0;
  uint64_t append_failures = 0;
  uint64_t promotions = 0;
};

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.events = a.events - b.events;
  d.link_bytes = a.link_bytes - b.link_bytes;
  d.link_messages = a.link_messages - b.link_messages;
  d.rpc_calls = a.rpc_calls - b.rpc_calls;
  d.rpc_attempts = a.rpc_attempts - b.rpc_attempts;
  d.buffer_acquires = a.buffer_acquires - b.buffer_acquires;
  d.buffer_reuses = a.buffer_reuses - b.buffer_reuses;
  d.requests = a.requests - b.requests;
  d.meta_requests = a.meta_requests - b.meta_requests;
  d.shed = a.shed - b.shed;
  d.deadline_expired = a.deadline_expired - b.deadline_expired;
  d.overload_events = a.overload_events - b.overload_events;
  d.queue_high_water = a.queue_high_water;
  d.key_rows = a.key_rows - b.key_rows;
  d.meta_rows = a.meta_rows - b.meta_rows;
  d.commit_groups = a.commit_groups - b.commit_groups;
  d.seal_ns = a.seal_ns - b.seal_ns;
  d.hot_hits = a.hot_hits - b.hot_hits;
  d.hot_misses = a.hot_misses - b.hot_misses;
  d.negative_hits = a.negative_hits - b.negative_hits;
  d.batch_rpcs = a.batch_rpcs - b.batch_rpcs;
  d.batched_keys = a.batched_keys - b.batched_keys;
  d.sf_leaders = a.sf_leaders - b.sf_leaders;
  d.sf_joins = a.sf_joins - b.sf_joins;
  d.block_reads = a.block_reads - b.block_reads;
  d.deltas_shipped = a.deltas_shipped - b.deltas_shipped;
  d.append_failures = a.append_failures - b.append_failures;
  d.promotions = a.promotions - b.promotions;
  return d;
}

void AddClient(Counters& c, const RpcClient& rpc) {
  c.rpc_calls += rpc.calls_started();
  c.rpc_attempts += rpc.attempts_started();
  c.buffer_acquires += rpc.encode_buffer_stats().acquires;
  c.buffer_reuses += rpc.encode_buffer_stats().reuses;
}

// Only a leader's server answers clients; backups' servers handle the
// replication protocol's own traffic, which is not a client request.
void AddServer(Counters& c, const RpcServer& server, bool meta, bool leader) {
  if (leader) {
    c.requests += server.requests_handled();
    if (meta) {
      c.meta_requests += server.requests_handled();
    }
  }
  c.shed += server.requests_shed();
  c.deadline_expired += server.deadline_expired();
  c.overload_events += server.overload_events();
  c.queue_high_water =
      std::max(c.queue_high_water, server.queue_depth_high_water());
}

// Rows and seal work count on the authoritative replica only: backups
// re-append the leader's rows.
void AddKeyService(Counters& c, const KeyService& service, bool authority) {
  KeyService::LoadStats stats = service.load_stats();
  c.hot_hits += stats.hot_hits;
  c.hot_misses += stats.hot_misses;
  c.negative_hits += stats.negative_hits;
  if (authority) {
    c.key_rows += stats.log_entries;
    c.commit_groups += stats.commit_groups;
    c.seal_ns += stats.seal_ns;
  }
}

void AddRouter(Counters& c, const ShardRouter& router) {
  c.batch_rpcs += router.stats().batch_rpcs;
  c.batched_keys += router.stats().batched_keys;
  c.sf_leaders += router.stats().single_flight_leaders;
  c.sf_joins += router.stats().single_flight_joins;
}

void AddReplication(Counters& c, const ReplicaSetEngine::Stats& stats) {
  c.deltas_shipped += stats.deltas_shipped;
  c.append_failures += stats.append_failures;
  c.promotions += stats.promotions;
}

size_t KeyLeader(Deployment& dep, size_t shard) {
  ReplicaSet* set = dep.replica_set(shard);
  return set == nullptr ? 0 : set->current_leader();
}

size_t MetaLeader(Deployment& dep) {
  MetaReplicaSet* set = dep.meta_replica_set();
  return set == nullptr ? 0 : set->current_leader();
}

// What the laptop-side plumbing of a deployment has done so far, plus any
// extra clients (a thief's, an auditor's) that share its link.
Counters Snapshot(Deployment& dep, const BlockDevice& device,
                  const std::vector<const RpcClient*>& extra_clients = {},
                  const std::vector<const ShardRouter*>& extra_routers = {}) {
  Counters c;
  c.events = dep.queue().executed_count();
  c.link_bytes = dep.client_link().bytes_sent();
  c.link_messages = dep.client_link().messages_sent();
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    AddClient(c, dep.key_shard_rpc(s));
    const size_t leader = KeyLeader(dep, s);
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      AddServer(c, dep.key_replica_rpc_server(s, r), /*meta=*/false,
                r == leader);
      AddKeyService(c, dep.key_replica(s, r), r == leader);
    }
    if (dep.replica_set(s) != nullptr) {
      AddReplication(c, dep.replica_set(s)->stats());
    }
  }
  AddClient(c, dep.meta_rpc());
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    AddServer(c, dep.meta_replica_rpc_server(r), /*meta=*/true,
              r == MetaLeader(dep));
  }
  c.meta_rows = dep.meta_replica(MetaLeader(dep)).log().size();
  if (dep.meta_replica_set() != nullptr) {
    AddReplication(c, dep.meta_replica_set()->stats());
  }
  if (dep.key_router() != nullptr) {
    AddRouter(c, *dep.key_router());
  }
  for (const RpcClient* rpc : extra_clients) {
    AddClient(c, *rpc);
  }
  for (const ShardRouter* router : extra_routers) {
    AddRouter(c, *router);
  }
  c.block_reads = device.reads();
  return c;
}

// Per-layer metrics every repetition derives from counter deltas.
void EmitCounterLayers(Emitter& e, const Counters& d, double ops,
                       double measured_cpu_s, size_t allocated_nodes) {
  e.Set("audit_rows_per_op", Ratio(d.key_rows + d.meta_rows, ops));
  e.Set("wire_bytes_per_op", Ratio(d.link_bytes, ops));
  e.Set("sim.events_per_op", Ratio(d.events, ops));
  e.Set("sim.events_per_host_s", Ratio(d.events, measured_cpu_s));
  e.Set("sim.allocated_nodes", allocated_nodes);
  e.Set("net.messages_per_op", Ratio(d.link_messages, ops));
  e.Set("net.bytes_per_message", Ratio(d.link_bytes, d.link_messages));
  e.Set("wire.buffer_reuse_ratio", Ratio(d.buffer_reuses, d.buffer_acquires));
  e.Set("rpc.calls_per_op", Ratio(d.rpc_calls, ops));
  e.Set("rpc.attempts_per_call", Ratio(d.rpc_attempts, d.rpc_calls));
  e.Set("rpc.shed_ratio", Ratio(d.shed, d.requests));
  e.Set("rpc.deadline_expired", d.deadline_expired);
  e.Set("rpc.queue_high_water", d.queue_high_water);
  e.Set("rpc.overload_events", d.overload_events);
  e.Set("keyservice.hot_hit_ratio",
        Ratio(d.hot_hits, d.hot_hits + d.hot_misses));
  e.Set("keyservice.group_size_avg", Ratio(d.key_rows, d.commit_groups));
  e.Set("keyservice.router_batch_avg", Ratio(d.batched_keys, d.batch_rpcs));
  e.Set("keyservice.router_join_ratio",
        Ratio(d.sf_joins, d.sf_leaders + d.sf_joins));
  e.Set("keyservice.negative_hits", d.negative_hits);
  e.Set("keyservice.seal_host_us_per_row", Ratio(d.seal_ns / 1e3, d.key_rows));
  e.Set("blockdev.reads_per_op", Ratio(d.block_reads, ops));
  e.Set("metaservice.rows_per_op", Ratio(d.meta_rows, ops));
  e.Set("metaservice.requests_per_op", Ratio(d.meta_requests, ops));
  e.Set("replication.deltas_shipped", d.deltas_shipped);
  e.Set("replication.append_failures", d.append_failures);
  e.Set("replication.promotions", d.promotions);
}

// The client file system's own counters.
void EmitKeypadLayer(Emitter& e, KeypadFs& fs) {
  const KeyCache& cache = fs.key_cache();
  e.Set("keypad.cache_hit_ratio",
        Ratio(cache.hits(), cache.hits() + cache.misses()));
  e.Set("keypad.metadata_blocking", fs.stats().metadata_blocking);
  e.Set("keypad.ibe_blocking_unlocks", fs.stats().ibe_blocking_unlocks);
  e.Set("keypad.keys_prefetched", fs.stats().keys_prefetched);
  e.Set("keypad.refreshes", cache.refreshes_started());
}

// --- Wire codecs on the observed call mix. -----------------------------------

struct WireShape {
  std::string method;
  size_t items = 1;  // Ids per call.
  uint64_t calls = 0;
};

XmlRpcCall MakeCall(const WireShape& shape) {
  static const Bytes kSecret(32, 0x5a);
  auto id = [](size_t i) {
    return WireValue(Bytes(24, static_cast<uint8_t>(i)));
  };
  WireValue::Array payload;
  if (shape.method == "key.get_multi") {
    WireValue::Array items;
    for (size_t i = 0; i < shape.items; ++i) {
      WireValue::Struct item;
      item.emplace("id", id(i));
      item.emplace("op", WireValue(int64_t{1}));
      items.push_back(WireValue(std::move(item)));
    }
    payload.push_back(WireValue(std::move(items)));
  } else if (shape.method == "key.fetch_group" ||
             shape.method == "key.get_batch") {
    WireValue::Array ids;
    for (size_t i = 1; i < shape.items; ++i) {
      ids.push_back(id(i));
    }
    if (shape.method == "key.fetch_group") {
      payload.push_back(id(0));
    } else {
      ids.push_back(id(0));
    }
    payload.push_back(WireValue(std::move(ids)));
  } else if (shape.method == "meta.bind_file") {
    payload.push_back(id(0));
    payload.push_back(WireValue(Bytes(16, 0x11)));
    payload.push_back(WireValue(std::string("unit_0_0.o")));
    payload.push_back(WireValue(false));
  } else {
    payload.push_back(id(0));
    if (shape.method == "key.get") {
      payload.push_back(WireValue(int64_t{1}));
    }
  }
  XmlRpcCall call;
  call.method = shape.method;
  call.params = FrameAuthedCall("bench-device", kSecret, shape.method,
                                std::move(payload));
  return call;
}

WireValue MakeResponse(const WireShape& shape) {
  auto pairs = [](size_t n) {
    WireValue::Array out;
    for (size_t i = 0; i < n; ++i) {
      WireValue::Struct entry;
      entry.emplace("id", WireValue(Bytes(24, static_cast<uint8_t>(i))));
      entry.emplace("key", WireValue(Bytes(32, 0x42)));
      out.push_back(WireValue(std::move(entry)));
    }
    return out;
  };
  if (shape.method == "key.get_multi") {
    WireValue::Struct out;
    out.emplace("keys", WireValue(pairs(shape.items)));
    out.emplace("misses", WireValue(WireValue::Array{}));
    return WireValue(std::move(out));
  }
  if (shape.method == "key.fetch_group") {
    WireValue::Struct out;
    out.emplace("demand", WireValue(Bytes(32, 0x42)));
    out.emplace("prefetched", WireValue(pairs(shape.items - 1)));
    return WireValue(std::move(out));
  }
  if (shape.method == "key.get_batch") {
    return WireValue(pairs(shape.items));
  }
  if (shape.method == "meta.bind_file") {
    return WireValue(Bytes(64, 0x33));
  }
  return WireValue(Bytes(32, 0x42));
}

// Host ns per call of one full exchange — EncodeCallInto, DecodeCallAuto,
// EncodeResponse, DecodeResponseAuto — cycling through the mix in
// proportion to the calls observed. Returns false if a decode failed.
bool TimeCodecs(const std::vector<WireShape>& mix, double* xml_ns,
                double* binary_ns) {
  uint64_t total = 0;
  for (const WireShape& shape : mix) {
    total += shape.calls;
  }
  std::vector<std::pair<XmlRpcCall, WireValue>> cycle;
  for (const WireShape& shape : mix) {
    if (shape.calls == 0) {
      continue;
    }
    const size_t copies = std::max<size_t>(
        1, static_cast<size_t>(std::lround(100.0 * shape.calls / total)));
    for (size_t i = 0; i < copies; ++i) {
      cycle.emplace_back(MakeCall(shape), MakeResponse(shape));
    }
  }
  *xml_ns = 0;
  *binary_ns = 0;
  if (cycle.empty()) {
    return true;
  }
  constexpr size_t kRounds = 20000;
  std::string buf;
  for (WireCodec codec : {WireCodec::kXml, WireCodec::kBinary}) {
    const int64_t start = CpuNanos();
    for (size_t i = 0; i < kRounds; ++i) {
      const auto& [call, response] = cycle[i % cycle.size()];
      buf.clear();
      EncodeCallInto(codec, call, buf);
      if (!DecodeCallAuto(buf).ok()) {
        return false;
      }
      if (!DecodeResponseAuto(EncodeResponse(codec, response)).ok()) {
        return false;
      }
    }
    const double ns = static_cast<double>(CpuNanos() - start) / kRounds;
    (codec == WireCodec::kXml ? *xml_ns : *binary_ns) = ns;
  }
  return true;
}

std::vector<WireShape> MixFromTracer(const Tracer& tracer) {
  std::vector<WireShape> mix;
  for (const auto& [method, counts] : tracer.wire_calls()) {
    const long items =
        std::lround(static_cast<double>(counts.second) / counts.first);
    mix.push_back(
        {method, static_cast<size_t>(std::max(1L, items)), counts.first});
  }
  return mix;
}

void EmitWire(Emitter& e, const std::vector<WireShape>& mix) {
  double xml_ns = 0;
  double binary_ns = 0;
  e.Check("wire_round_trip", TimeCodecs(mix, &xml_ns, &binary_ns),
          "every sampled call and response decodes");
  e.Set("wire.xml_ns_per_call", xml_ns);
  e.Set("wire.binary_ns_per_call", binary_ns);
}

// --- Span-derived per-layer metrics (traced runs only). ----------------------

struct SpanStats {
  uint64_t count = 0;
  int64_t self_ns = 0;
  std::vector<double> virt_ms;
};

void EmitSpanLayers(Emitter& e, const Tracer& tracer, double ops,
                    double measured_cpu_s, double measured_virt_s,
                    uint64_t measured_events, uint64_t user_bytes_written,
                    const std::string& workload) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.host_end - s.host_start;
    }
  }
  std::map<std::string, SpanStats> by_name;
  SpanStats key;
  int64_t layer_self[3] = {0, 0, 0};
  int64_t root_ns = 0;
  uint64_t root_events = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t self = (s.host_end - s.host_start) - child_ns[i];
    const double virt_ms = (s.virt_end - s.virt_start) / 1e6;
    SpanStats& stats = by_name[s.name];
    ++stats.count;
    stats.self_ns += self;
    stats.virt_ms.push_back(virt_ms);
    layer_self[static_cast<int>(s.layer)] += self;
    if (s.layer == Layer::kKeyClient) {
      ++key.count;
      key.self_ns += self;
      key.virt_ms.push_back(virt_ms);
    }
    if (s.parent < 0) {
      root_ns += s.host_end - s.host_start;
      root_events += s.events;
    }
  }
  auto mean_self_us = [](const SpanStats& s) {
    return Ratio(s.self_ns / 1e3, s.count);
  };
  auto p99_ms = [](SpanStats s) {
    std::sort(s.virt_ms.begin(), s.virt_ms.end());
    return Percentile(s.virt_ms, 0.99);
  };
  const double idle_s = measured_cpu_s - root_ns / 1e9;
  e.Set("sim.idle_host_s", idle_s);
  e.Set("sim.idle_events_per_vs",
        Ratio(measured_events - root_events, measured_virt_s));
  e.Set("keyservice.client_calls_per_kop", Ratio(1000.0 * key.count, ops));
  e.Set("keyservice.client_virt_ms_p99", p99_ms(key));
  e.Set("keyservice.client_host_us_per_call", mean_self_us(key));
  e.Set("keypad.read_virt_ms_p99", p99_ms(by_name["vfs.read"]));
  e.Set("keypad.create_virt_ms_p99", p99_ms(by_name["vfs.create"]));
  e.Set("keypad.read_host_us", mean_self_us(by_name["vfs.read"]));
  e.Set("keypad.write_host_us", mean_self_us(by_name["vfs.write"]));
  e.Set("keypad.create_host_us", mean_self_us(by_name["vfs.create"]));
  e.Set("keypad.rename_host_us", mean_self_us(by_name["vfs.rename"]));
  e.Set("blockdev.read_host_us", mean_self_us(by_name["storage.read"]));
  e.Set("blockdev.apply_host_us", mean_self_us(by_name["storage.apply"]));
  e.Set("blockdev.write_amplification",
        Ratio(tracer.applied_bytes(), user_bytes_written));

  // Self times plus idle time must account for the measured CPU: every
  // span's host interval lies inside its parent's.
  const double self_s = (layer_self[0] + layer_self[1] + layer_self[2]) / 1e9;
  const double covered = self_s + idle_s;
  e.Check("span_accounting",
          measured_cpu_s > 0 &&
              std::abs(covered - measured_cpu_s) <= 0.05 * measured_cpu_s,
          Fmt("self %.3f s + idle %.3f s vs measured %.3f s", self_s, idle_s,
              measured_cpu_s));
  e.Note(workload + Fmt(" layer self CPU: vfs %.3f s, keyclient %.3f s, "
                        "storage %.3f s, idle %.3f s",
                        layer_self[0] / 1e9, layer_self[1] / 1e9,
                        layer_self[2] / 1e9, idle_s) +
         Fmt(" (sum %.3f s of %.3f s measured)", covered, measured_cpu_s));
}

// On a workload with no decorated seam every host second is spent outside
// any traced call.
void EmitIdleWithoutSpans(Emitter& e, double measured_cpu_s,
                          double measured_virt_s, uint64_t measured_events) {
  e.Set("sim.idle_host_s", measured_cpu_s);
  e.Set("sim.idle_events_per_vs", Ratio(measured_events, measured_virt_s));
}

// --- Audit-log gates. --------------------------------------------------------

using RowKey = std::tuple<std::string, AuditId, int>;

std::set<RowKey> RowsOf(const std::vector<const KeyService*>& services) {
  std::set<RowKey> rows;
  for (const KeyService* service : services) {
    for (const AuditLogEntry& entry : service->LogSince(SimTime::Epoch())) {
      rows.emplace(entry.device_id, entry.audit_id, static_cast<int>(entry.op));
    }
  }
  return rows;
}

// Every key the KeyClient decorator saw granted has a row of its access op
// for its device. (Coalesced waiters share one row: presence, not count.)
void CheckGrantsAudited(Emitter& e, const Tracer& tracer,
                        const std::vector<const KeyService*>& authorities) {
  const std::set<RowKey> rows = RowsOf(authorities);
  uint64_t missing = 0;
  for (const Grant& grant : tracer.grants()) {
    if (rows.count({grant.device, grant.id, static_cast<int>(grant.op)}) == 0) {
      ++missing;
    }
  }
  e.Check("grants_audited", missing == 0 && !tracer.grants().empty(),
          Fmt("%.0f grants, %.0f without a typed row", tracer.grants().size(),
              missing));
}

// After a device's kRevoke row, its only rows are kDenied or kRevoke.
void CheckRevocationFence(Emitter& e,
                          const std::vector<const KeyService*>& services) {
  uint64_t violations = 0;
  uint64_t revoked = 0;
  for (const KeyService* service : services) {
    std::set<std::string> fenced;
    for (const AuditLogEntry& entry : service->LogSince(SimTime::Epoch())) {
      if (entry.op == AccessOp::kRevoke) {
        revoked += fenced.insert(entry.device_id).second ? 1 : 0;
      } else if (entry.op != AccessOp::kDenied &&
                 fenced.count(entry.device_id) > 0) {
        ++violations;
      }
    }
  }
  e.Check("revocation_fence", violations == 0 && revoked > 0,
          Fmt("%.0f revocations, %.0f grant rows after a fence", revoked,
              violations));
}

void CheckChains(Emitter& e, const std::vector<const KeyService*>& keys,
                 const std::vector<const MetadataService*>& metas) {
  size_t bad = 0;
  for (const KeyService* k : keys) {
    bad += k->log().Verify().ok() ? 0 : 1;
  }
  for (const MetadataService* m : metas) {
    bad += m->log().Verify().ok() ? 0 : 1;
  }
  e.Check("chains_verify", bad == 0,
          Fmt("%.0f of %.0f chains fail Verify()", bad,
              keys.size() + metas.size()));
}

void CheckTrace(Emitter& e, const std::string& name,
                const TraceRunResult& result) {
  e.Check(name, result.failures == 0,
          result.failures == 0 ? "" : result.first_failure.ToString());
}

// --- The measured volume. ----------------------------------------------------

std::unique_ptr<StorageBackend> Backend(Tracer* tracer) {
  std::unique_ptr<StorageBackend> backend = MakeMemoryBackend();
  if (tracer == nullptr) {
    return backend;
  }
  return std::make_unique<TracingBackend>(std::move(backend), tracer);
}

// The benchmark formats the measured volume itself, on its own block
// device, against the deployment's services — so the decorators are the
// only difference between a plain and a traced run.
struct Volume {
  std::unique_ptr<TracingKeyClient> traced_key;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<KeypadFs> fs;
  std::unique_ptr<TracingVfs> traced_vfs;
  Vfs* vfs = nullptr;
};

Volume FormatVolume(Deployment& dep, Tracer* tracer) {
  Volume v;
  KeyClient* key = &dep.key_client();
  if (tracer != nullptr) {
    v.traced_key = std::make_unique<TracingKeyClient>(key, tracer);
    key = v.traced_key.get();
  }
  v.device = std::make_unique<BlockDevice>(Backend(tracer));
  KeypadFs::Services services{key, &dep.meta_client(),
                              &dep.metadata_service().ibe_params()};
  const DeploymentOptions& o = dep.options();
  auto fs = KeypadFs::Format(v.device.get(), &dep.queue(), o.seed ^ 0x5555,
                             o.password, o.fs_options, o.config, services);
  if (!fs.ok()) {
    Die("format failed: " + fs.status().ToString());
  }
  v.fs = std::move(*fs);
  v.vfs = v.fs.get();
  if (tracer != nullptr) {
    v.traced_vfs = std::make_unique<TracingVfs>(v.fs.get(), tracer);
    v.vfs = v.traced_vfs.get();
  }
  return v;
}

void WriteSpans(Emitter& e, const Tracer& tracer, const std::string& path) {
  if (!path.empty()) {
    e.Check("spans_written", tracer.WriteTsv(path), path);
  }
}

// --- compile -----------------------------------------------------------------

RepResult RunCompile(const RunConfig& config) {
  RepResult result;
  Emitter e(&result);
  Stopwatch setup;

  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.ibe_group = &BenchPairingParams();
  options.seed = config.seed;
  Deployment dep(options);
  AddJitter(dep);
  std::unique_ptr<Tracer> tracer =
      config.traced ? std::make_unique<Tracer>(&dep.queue()) : nullptr;
  Volume vol = FormatVolume(dep, tracer.get());

  ApacheParams params;
  params.modules = Scaled(4, config.seconds);
  params.total_compute = params.total_compute * params.modules / 25;
  ApacheWorkload workload = MakeApacheWorkload(params, config.seed);
  TraceRunner runner(vol.vfs, &dep.queue());
  CheckTrace(e, "setup_trace_ok", runner.Run(workload.setup));
  // Drain the key cache (refresh, then erase), as the paper's cold compile.
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));
  vol.fs->ResetStats();
  result.setup_cpu_s = setup.cpu_s();

  const Counters before = Snapshot(dep, *vol.device);
  const SimTime start = dep.queue().Now();
  OpRecorder recorder(&dep.queue());
  recorder.Attach(runner);
  if (tracer != nullptr) {
    tracer->set_enabled(true);
  }
  Stopwatch measured;
  const TraceRunResult run = runner.Run(workload.compile);
  result.measured_cpu_s = measured.cpu_s();
  result.measured_wall_s = measured.wall_s();
  if (tracer != nullptr) {
    tracer->set_enabled(false);
  }
  const Counters d = Snapshot(dep, *vol.device) - before;
  const double virt_s = (dep.queue().Now() - start).seconds_f();
  CheckTrace(e, "compile_trace_ok", run);

  const double ops = recorder.latencies_ms.size();
  result.attempted = recorder.latencies_ms.size();
  result.failed = run.failures;
  e.Set("setup_s", result.setup_cpu_s);
  e.Set("ops_per_host_s", Ratio(ops, result.measured_cpu_s));
  e.Set("goodput_ops_per_vs", Ratio(ops - run.failures,
                                    run.elapsed.seconds_f()));
  EmitLatency(e, recorder.latencies_ms);
  EmitCounterLayers(e, d, ops, result.measured_cpu_s,
                    dep.queue().allocated_nodes());
  EmitKeypadLayer(e, *vol.fs);
  e.Set("keypad.app_virtual_s", run.elapsed.seconds_f());
  e.Set("keypad.exposure_avg_keys",
        vol.fs->key_cache().AverageSizeSince(start));
  e.Set("auditlog.resident_rows_peak",
        dep.key_service().log().entries().size() +
            dep.metadata_service().log().entries().size());
  e.Note(Fmt("compile: %.0f modules, %.0f ops, app %.3f virtual s",
             params.modules, ops, run.elapsed.seconds_f()));

  CheckChains(e, {&dep.key_service()}, {&dep.metadata_service()});
  if (tracer != nullptr) {
    EmitSpanLayers(e, *tracer, ops, result.measured_cpu_s, virt_s, d.events,
                   recorder.bytes_written, "compile");
    std::vector<WireShape> mix = MixFromTracer(*tracer);
    mix.push_back({"meta.bind_file", 1, d.meta_requests});
    EmitWire(e, mix);
    CheckGrantsAudited(e, *tracer, {&dep.key_service()});
    WriteSpans(e, *tracer, config.spans_path);
  }
  return result;
}


// --- fleet -------------------------------------------------------------------

Counters FleetCounters(FleetWorkload& fleet, const EventQueue& queue) {
  Counters c;
  c.events = queue.executed_count();
  for (int s = 0; s < fleet.shard_count(); ++s) {
    AddServer(c, *fleet.server(s), /*meta=*/false, /*leader=*/true);
    AddKeyService(c, *fleet.shard(s), /*authority=*/true);
  }
  return c;
}

RepResult RunFleet(const RunConfig& config) {
  RepResult result;
  Emitter e(&result);
  Stopwatch setup;

  EventQueue queue;
  FleetOptions options;
  options.users = 15000;
  options.devices_per_user = 2;
  options.files_per_device = 3;
  options.zipf_theta = 0.9;
  options.shards = 8;
  options.codec = WireCodec::kBinary;
  options.duration = SimDuration::FromSecondsF(12.0 * config.seconds / 15.0);
  options.day = SimDuration::Seconds(4);
  options.mean_think = SimDuration::Millis(800);
  options.seed = 0xF1EE7 ^ (config.seed * 0x9E3779B97F4A7C15ull);
  FleetWorkload fleet(&queue, options);
  fleet.Provision();
  result.setup_cpu_s = setup.cpu_s();

  const Counters before = FleetCounters(fleet, queue);
  Stopwatch measured;
  const FleetWorkload::Stats stats = fleet.Run();
  result.measured_cpu_s = measured.cpu_s();
  result.measured_wall_s = measured.wall_s();
  Counters d = FleetCounters(fleet, queue) - before;
  // Device links and clients live inside the engine; its stats carry them.
  // Every open is exactly one RPC call.
  d.link_bytes = stats.bytes_on_wire;
  d.link_messages = stats.rpc_messages;
  d.rpc_calls = stats.opens_issued;
  d.rpc_attempts = d.requests;
  d.buffer_acquires = stats.encode_buffer_acquires;
  d.buffer_reuses = stats.encode_buffer_reuses;

  const double ops = stats.opens_issued;
  result.attempted = stats.opens_issued;
  result.failed = stats.opens_failed;
  e.Set("setup_s", result.setup_cpu_s);
  e.Set("ops_per_host_s", Ratio(ops, result.measured_cpu_s));
  e.Set("goodput_ops_per_vs", Ratio(stats.opens_ok, stats.virtual_seconds));
  // The engine reports only p50 and p99 of its samples, so its tail is p99.
  e.Set("op_tail_ms", stats.p99_ms);
  e.Set("client.op_p50_ms", stats.p50_ms);
  e.Set("client.op_p99_ms", stats.p99_ms);
  e.Set("client.op_samples", stats.opens_ok);
  EmitCounterLayers(e, d, ops, result.measured_cpu_s, queue.allocated_nodes());
  uint64_t resident = 0;
  for (int s = 0; s < fleet.shard_count(); ++s) {
    resident += fleet.shard(s)->log().entries().size();
  }
  e.Set("auditlog.resident_rows_peak", resident);
  e.Note(Fmt("fleet: %.0f devices, %.0f opens in %.2f virtual s, p50 %.3f ms",
             stats.devices, ops, stats.virtual_seconds, stats.p50_ms));

  e.Check("chains_verify", stats.chains_verified);
  e.Check("fleet_no_failed_opens", stats.opens_failed == 0,
          Fmt("%.0f failed", stats.opens_failed));
  // Each released key and each denial is exactly one row.
  e.Check("fleet_one_row_per_open",
          d.key_rows == stats.opens_ok + stats.opens_denied,
          Fmt("%.0f rows for %.0f opens", d.key_rows,
              stats.opens_ok + stats.opens_denied));
  if (config.traced) {
    EmitIdleWithoutSpans(e, result.measured_cpu_s, stats.virtual_seconds,
                         d.events);
    EmitWire(e, {{"key.get", 1, stats.opens_issued}});
    WriteSpans(e, Tracer(&queue), config.spans_path);
  }
  return result;
}

// --- keytier -----------------------------------------------------------------

constexpr int kTierShards = 4;
constexpr int kTierDevices = 16;
constexpr int kIdsPerDevice = 64;
constexpr int kHotIdsPerDevice = 2;
constexpr double kRates[] = {40000, 70000, 100000, 130000};
constexpr size_t kHeadlineRung = 1;  // 70k ops per virtual second.
constexpr double kSloP99Ms = 1.0;
constexpr double kSloFailedRatio = 0.001;

struct TierDevice {
  std::string name;
  std::unique_ptr<NetworkLink> link;
  std::vector<std::unique_ptr<RpcClient>> rpcs;
  std::vector<std::unique_ptr<KeyServiceClient>> stubs;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<TracingKeyClient> traced;
  KeyClient* client = nullptr;
  std::unique_ptr<SimRandom> rng;
  std::vector<AuditId> ids;
};

struct Rung {
  uint64_t attempted = 0;
  uint64_t granted = 0;
  uint64_t denied = 0;  // Fetches by a revoked device: the audited outcome.
  uint64_t failed = 0;  // Shed, refused by admission, or timed out.
  std::vector<double> latencies_ms;
};

RepResult RunKeytier(const RunConfig& config) {
  RepResult result;
  Emitter e(&result);
  Stopwatch setup;

  EventQueue queue;
  std::unique_ptr<Tracer> tracer =
      config.traced ? std::make_unique<Tracer>(&queue) : nullptr;
  KeyServiceOptions service_options;
  service_options.commit_window = SimDuration::Micros(400);
  service_options.seal_cost_fixed = SimDuration::Micros(40);
  service_options.seal_cost_per_entry = SimDuration::Micros(2);
  service_options.unwrap_cost = SimDuration::Micros(120);
  service_options.hot_key_cache = true;
  AdmissionOptions admission;
  admission.enabled = true;
  admission.target_sojourn = SimDuration::Millis(1);
  admission.overload_interval = SimDuration::Millis(10);

  std::vector<std::unique_ptr<KeyService>> shards;
  for (int s = 0; s < kTierShards; ++s) {
    shards.push_back(std::make_unique<KeyService>(
        &queue, config.seed ^ (0x7100 + static_cast<uint64_t>(s)),
        service_options));
  }
  // A shard serves far more keys than the devices active in the run. The
  // idle tenants' keys go in first — before the seal cost is billed to the
  // servers, whose busy clocks would otherwise start the run backlogged —
  // so the active devices' keys, inserted last, are the ones resident in
  // each shard's hot-key cache.
  constexpr int kIdleTenants = 2048;
  constexpr int kKeysPerIdleTenant = 32;
  SecureRandom tenant_rng(config.seed ^ 0x1D1E);
  for (int t = 0; t < kIdleTenants; ++t) {
    const std::string name = "idle-" + std::to_string(t);
    Bytes secret = shards[0]->RegisterDevice(name);
    for (int s = 1; s < kTierShards; ++s) {
      shards[s]->RegisterDeviceWithSecret(name, secret);
    }
    for (int i = 0; i < kKeysPerIdleTenant; ++i) {
      if (!shards[i % kTierShards]
               ->CreateKey(name, AuditId::Random(tenant_rng))
               .ok()) {
        Die("keytier: idle tenant provisioning failed");
      }
    }
  }

  std::vector<std::unique_ptr<RpcServer>> servers;
  for (int s = 0; s < kTierShards; ++s) {
    servers.push_back(
        std::make_unique<RpcServer>(&queue, SimDuration::Micros(30)));
    servers[s]->set_admission(admission);
    shards[s]->BindRpc(servers[s].get());
    RpcServer* server = servers[s].get();
    shards[s]->set_seal_charge(
        [server](SimDuration busy) { server->ChargeBusy(busy); });
  }

  RpcOptions rpc;
  rpc.client_overhead = SimDuration();
  rpc.client_overhead_binary = SimDuration();
  rpc.codec = WireCodec::kBinary;
  rpc.timeout = SimDuration::Millis(50);
  rpc.total_deadline = SimDuration::Seconds(5);

  std::vector<std::unique_ptr<TierDevice>> devices;
  SecureRandom id_rng(config.seed ^ 0xD1CE);
  for (int d = 0; d < kTierDevices; ++d) {
    auto device = std::make_unique<TierDevice>();
    device->name = "dev-" + std::to_string(d);
    device->link = std::make_unique<NetworkLink>(
        &queue, LanProfile(),
        config.seed ^ (0x2222 + static_cast<uint64_t>(d)));
    Bytes secret = shards[0]->RegisterDevice(device->name);
    std::vector<KeyServiceClient*> stubs;
    for (int s = 0; s < kTierShards; ++s) {
      if (s > 0) {
        shards[s]->RegisterDeviceWithSecret(device->name, secret);
      }
      device->rpcs.push_back(std::make_unique<RpcClient>(
          &queue, device->link.get(), servers[s].get(), rpc));
      device->stubs.push_back(std::make_unique<KeyServiceClient>(
          device->rpcs.back().get(), device->name, secret));
      stubs.push_back(device->stubs.back().get());
    }
    device->router = std::make_unique<ShardRouter>(&queue, std::move(stubs));
    device->client = device->router.get();
    if (tracer != nullptr) {
      device->traced =
          std::make_unique<TracingKeyClient>(device->client, tracer.get());
      device->client = device->traced.get();
    }
    device->rng = std::make_unique<SimRandom>(
        (config.seed * 0x9E3779B97F4A7C15ull) ^
        (0x3333 + static_cast<uint64_t>(d)));
    for (int i = 0; i < kIdsPerDevice; ++i) {
      AuditId id = AuditId::Random(id_rng);
      if (!shards[device->router->ring().ShardFor(id)]
               ->CreateKey(device->name, id)
               .ok()) {
        Die("keytier: key provisioning failed");
      }
      device->ids.push_back(id);
    }
    devices.push_back(std::move(device));
  }
  // Provisioning leaves every active key unwrapped-resident in the hot-key
  // cache (the working set fits), so the ladder measures the serving path at
  // its dispatch-bound capacity rather than a cold-unwrap start-up
  // transient.
  result.setup_cpu_s = setup.cpu_s();

  auto counters = [&] {
    Counters c;
    c.events = queue.executed_count();
    for (int s = 0; s < kTierShards; ++s) {
      AddServer(c, *servers[s], /*meta=*/false, /*leader=*/true);
      AddKeyService(c, *shards[s], /*authority=*/true);
    }
    for (const auto& device : devices) {
      c.link_bytes += device->link->bytes_sent();
      c.link_messages += device->link->messages_sent();
      for (const auto& client : device->rpcs) {
        AddClient(c, *client);
      }
      AddRouter(c, *device->router);
    }
    return c;
  };
  const Counters before = counters();

  // Open loop: each device draws Poisson arrivals at its share of the
  // rung's rate, whatever the completions do. A fetch is timed from its
  // arrival — the instant its event fires — so generator lag is zero by
  // construction. The first fifth of each rung is warm-up.
  const SimDuration rung_length =
      SimDuration::FromSecondsF(1.0 * config.seconds / 15.0);
  const size_t rung_count = std::size(kRates);
  std::vector<Rung> rungs(rung_count);
  const SimTime start = queue.Now();
  const SimTime end = start + rung_length * static_cast<int64_t>(rung_count);
  std::function<void(TierDevice*)> issue = [&](TierDevice* device) {
    const SimTime arrival = queue.Now();
    if (arrival >= end) {
      return;
    }
    const size_t k = static_cast<size_t>((arrival - start).nanos() /
                                         rung_length.nanos());
    const bool warm_up =
        arrival - (start + rung_length * static_cast<int64_t>(k)) <
        rung_length / 5;
    const bool hot = device->rng->UniformDouble() < 0.3;
    const AuditId& id =
        device->ids[device->rng->UniformU64(hot ? kHotIdsPerDevice
                                                : kIdsPerDevice)];
    ++rungs[k].attempted;
    device->client->GetKeyAsync(
        id, AccessOp::kDemandFetch,
        [&rungs, &queue, k, arrival, warm_up](Result<Bytes> key) {
          Rung& rung = rungs[k];
          if (key.ok()) {
            ++rung.granted;
            if (!warm_up) {
              rung.latencies_ms.push_back((queue.Now() - arrival).millis_f());
            }
          } else if (key.status().code() == StatusCode::kPermissionDenied) {
            ++rung.denied;
          } else {
            ++rung.failed;
          }
        });
    const double mean_us = 1e6 * kTierDevices / kRates[k];
    queue.ScheduleAfter(SimDuration::Micros(static_cast<int64_t>(
                            device->rng->Exponential(mean_us))),
                        [&issue, device] { issue(device); });
  };
  // One device is revoked halfway through each rung, so the revocation
  // write path runs beside the reads at every load.
  for (size_t k = 0; k < rung_count; ++k) {
    queue.Schedule(start + rung_length * static_cast<int64_t>(k) +
                       rung_length / 2,
                   [&shards, name = devices[k]->name] {
                     for (auto& shard : shards) {
                       shard->DisableDevice(name).ok();
                     }
                   });
  }
  if (tracer != nullptr) {
    tracer->set_enabled(true);
  }
  Stopwatch measured;
  for (auto& device : devices) {
    issue(device.get());
  }
  queue.RunUntilIdle();
  result.measured_cpu_s = measured.cpu_s();
  result.measured_wall_s = measured.wall_s();
  if (tracer != nullptr) {
    tracer->set_enabled(false);
  }
  const Counters d = counters() - before;
  const double virt_s = (queue.Now() - start).seconds_f();

  double max_rate = 0;
  for (size_t k = 0; k < rung_count; ++k) {
    Rung& rung = rungs[k];
    std::sort(rung.latencies_ms.begin(), rung.latencies_ms.end());
    const double p99 = Percentile(rung.latencies_ms, 0.99);
    const double failed_ratio = Ratio(rung.failed, rung.attempted);
    const bool meets = p99 <= kSloP99Ms && failed_ratio <= kSloFailedRatio;
    if (meets) {
      max_rate = std::max(max_rate, kRates[k]);
    }
    e.Note(Fmt("keytier rung %.0f/vs: p50 %.4f ms, p99 %.4f ms", kRates[k],
               Percentile(rung.latencies_ms, 0.5), p99) +
           Fmt(", %.0f samples, failed %.5f, %.0f denied",
               rung.latencies_ms.size(), failed_ratio, rung.denied) +
           (meets ? " — meets the SLO" : " — misses the SLO"));
    result.attempted += rung.attempted;
    result.failed += rung.failed;
  }
  const Rung& headline = rungs[kHeadlineRung];
  const double ops = result.attempted;
  e.Set("setup_s", result.setup_cpu_s);
  e.Set("ops_per_host_s", Ratio(ops, result.measured_cpu_s));
  e.Set("goodput_ops_per_vs", Ratio(headline.granted, rung_length.seconds_f()));
  EmitLatency(e, headline.latencies_ms);
  e.Set("keyservice.max_rate_under_slo", max_rate);
  EmitCounterLayers(e, d, ops, result.measured_cpu_s, queue.allocated_nodes());
  uint64_t resident = 0;
  std::vector<const KeyService*> authorities;
  for (const auto& shard : shards) {
    resident += shard->log().entries().size();
    authorities.push_back(shard.get());
  }
  e.Set("auditlog.resident_rows_peak", resident);

  CheckChains(e, authorities, {});
  CheckRevocationFence(e, authorities);
  if (tracer != nullptr) {
    EmitSpanLayers(e, *tracer, ops, result.measured_cpu_s, virt_s, d.events, 0,
                   "keytier");
    EmitWire(e, MixFromTracer(*tracer));
    CheckGrantsAudited(e, *tracer, authorities);
    WriteSpans(e, *tracer, config.spans_path);
  }
  return result;
}

// --- theft -------------------------------------------------------------------

// Re-roots a trace under `prefix`: the thief scenarios and the long-haul
// volume both use /docs and /mail.
Trace Reroot(const Trace& trace, const std::string& prefix) {
  Trace out;
  for (TraceOp op : trace.ops) {
    if (!op.path.empty()) {
      op.path = prefix + op.path;
    }
    if (!op.path2.empty()) {
      op.path2 = prefix + op.path2;
    }
    out.Add(std::move(op));
  }
  return out;
}

std::string ParentDir(const std::string& path) {
  return path.substr(0, path.rfind('/'));
}

// The thief's bulk copy: list each directory, then read every file the
// set-up trace put there, whole, in 4 KiB chunks.
void AddExfiltration(const Trace& setup, const std::vector<std::string>& dirs,
                     Trace* trace, std::set<std::string>* read) {
  std::map<std::string, size_t> sizes;
  for (const TraceOp& op : setup.ops) {
    if (op.kind == TraceOp::Kind::kWrite) {
      sizes[op.path] = std::max(sizes[op.path], op.offset + op.size);
    }
  }
  for (const std::string& dir : dirs) {
    trace->Add(TraceOp::Readdir(dir));
    for (const auto& [path, size] : sizes) {
      if (ParentDir(path) != dir) {
        continue;
      }
      for (size_t off = 0; off < size; off += 4096) {
        trace->Add(
            TraceOp::Read(path, off, std::min<size_t>(4096, size - off)));
      }
      read->insert(path);
    }
  }
}

RepResult RunTheft(const RunConfig& config) {
  RepResult result;
  Emitter e(&result);
  Stopwatch setup;

  DeploymentOptions options;
  options.profile = WlanProfile();
  options.ibe_group = &BenchPairingParams();
  options.seed = config.seed;
  options.key_shards = 2;
  options.key_replicas = 3;
  options.meta_replicas = 3;
  options.key_service.log.segment_ops = 64;
  options.key_service.log.cold_ship = true;
  options.key_service.log.truncate = true;
  Deployment dep(options);
  AddJitter(dep);
  std::unique_ptr<Tracer> tracer =
      config.traced ? std::make_unique<Tracer>(&dep.queue()) : nullptr;
  Volume vol = FormatVolume(dep, tracer.get());
  auto creds = KeypadFs::LoadCredentials(&dep.fs());
  if (!creds.ok() || !vol.fs->StoreCredentials(*creds).ok()) {
    Die("theft: credential provisioning failed");
  }

  // The owner's day is the fixed long-haul trace of seed 99 (the Fig. 11
  // trace); --seed draws the deployment's randomness instead (audit ids,
  // keys, link jitter, replication streams). A day of sessions drawn afresh
  // per seed differs in its mix of session kinds so much that rows per op
  // moves by a quarter between seeds — more than a regression bound can
  // absorb.
  LongHaulParams params;
  params.days = 1;
  params.sessions_per_day = Scaled(12, config.seconds);
  LongHaulWorkload owner = MakeLongHaulWorkload(params, /*seed=*/99);
  // The laptop is taken straight after the last session, keys still cached.
  while (!owner.activity.ops.empty() &&
         owner.activity.ops.back().kind == TraceOp::Kind::kCompute) {
    owner.activity.ops.pop_back();
  }
  Trace victim_setup;
  victim_setup.Add(TraceOp::Mkdir("/victim"));
  Trace thief_trace;
  std::set<std::string> files_read;
  for (const ThiefScenario& scenario : MakeThiefScenarios(config.seed)) {
    victim_setup.Append(Reroot(scenario.setup, "/victim"));
    thief_trace.Append(Reroot(scenario.thief_trace, "/victim"));
    for (const std::string& path : scenario.files_read) {
      files_read.insert("/victim" + path);
    }
  }
  std::vector<std::string> loot = {"/docs", "/mail"};
  for (int m = 0; m < 8; ++m) {
    loot.push_back("/code/mod" + std::to_string(m));
  }
  AddExfiltration(owner.setup, loot, &thief_trace, &files_read);

  TraceRunner runner(vol.vfs, &dep.queue());
  CheckTrace(e, "setup_trace_ok", runner.Run(owner.setup));
  CheckTrace(e, "victim_setup_trace_ok", runner.Run(victim_setup));
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));
  vol.fs->ResetStats();
  // The IT console holds the device's credentials and its own clients.
  auto console_clients = dep.MakeAttackerClients(*creds);
  if (!console_clients.ok()) {
    Die("theft: console clients: " + console_clients.status().ToString());
  }
  std::vector<RpcClient*> console_key_rpcs = {console_clients->key_rpc.get()};
  std::vector<const RpcClient*> console_rpcs = {
      console_clients->key_rpc.get(), console_clients->meta_rpc.get()};
  for (const auto& rpc : console_clients->shard_rpcs) {
    console_key_rpcs.push_back(rpc.get());
    console_rpcs.push_back(rpc.get());
  }
  RemoteAuditor console(console_key_rpcs, console_clients->meta_rpc.get(),
                        creds->device_id, creds->key_secret,
                        creds->meta_secret);
  result.setup_cpu_s = setup.cpu_s();

  const Counters before = Snapshot(dep, *vol.device, console_rpcs);
  const SimTime start = dep.queue().Now();
  uint64_t resident_peak = 0;
  auto sample_resident = [&] {
    uint64_t resident = 0;
    for (size_t s = 0; s < dep.key_shard_count(); ++s) {
      for (size_t r = 0; r < dep.key_replica_count(); ++r) {
        resident += dep.key_replica(s, r).log().entries().size();
      }
    }
    for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
      resident += dep.meta_replica(r).log().entries().size();
    }
    resident_peak = std::max(resident_peak, resident);
  };
  int64_t report_cpu_ns = 0;
  SimDuration report_virt;
  auto timed_audit = [&](auto&& step) {
    const int64_t cpu0 = CpuNanos();
    const SimTime t0 = dep.queue().Now();
    auto status = step();
    report_cpu_ns += CpuNanos() - cpu0;
    report_virt += dep.queue().Now() - t0;
    return status;
  };
  if (tracer != nullptr) {
    tracer->set_enabled(true);
  }
  Stopwatch measured;

  // The console anchors on the signed checkpoints before the loss; after
  // the report it pulls only the tail since. Anchoring after the theft
  // would skip rows sealed into checkpoints during the thief's session.
  Status anchored =
      timed_audit([&] { return console.CatchUpFromCheckpoints(); });
  e.Check("console_catch_up", anchored.ok(), anchored.ToString());

  OpRecorder recorder(&dep.queue());
  recorder.Attach(runner, sample_resident);
  CheckTrace(e, "owner_trace_ok", runner.Run(owner.activity));
  const SimTime t_loss = dep.queue().Now();
  const double exposure = vol.fs->key_cache().AverageSizeSince(start);

  // Powered-on capture: the thief images the running laptop, lifts the
  // sealed service credentials with the password, and mounts online.
  BlockDevice image(tracer != nullptr
                        ? std::make_unique<TracingBackend>(
                              vol.device->backend().Clone(), tracer.get())
                        : vol.device->backend().Clone());
  RawDeviceAttacker thief(std::move(image), options.password, &dep.queue());
  auto stolen = thief.StealCredentials();
  if (!stolen.ok()) {
    Die("theft: credentials not recoverable: " + stolen.status().ToString());
  }
  auto thief_clients = dep.MakeAttackerClients(*stolen);
  if (!thief_clients.ok()) {
    Die("theft: thief clients: " + thief_clients.status().ToString());
  }
  KeypadFs::Services thief_services = thief_clients->services;
  std::unique_ptr<TracingKeyClient> thief_key;
  if (tracer != nullptr) {
    thief_key =
        std::make_unique<TracingKeyClient>(thief_services.key, tracer.get());
    thief_services.key = thief_key.get();
  }
  auto thief_fs = thief.MountOnline(thief_services, options.config);
  if (!thief_fs.ok()) {
    Die("theft: online mount failed: " + thief_fs.status().ToString());
  }
  std::unique_ptr<TracingVfs> thief_traced;
  Vfs* thief_vfs = thief_fs->get();
  if (tracer != nullptr) {
    thief_traced = std::make_unique<TracingVfs>(thief_vfs, tracer.get());
    thief_vfs = thief_traced.get();
  }
  TraceRunner thief_runner(thief_vfs, &dep.queue());
  recorder.Attach(thief_runner, sample_resident);
  CheckTrace(e, "thief_trace_ok", thief_runner.Run(thief_trace));

  dep.ReportDeviceLost();
  auto report = timed_audit(
      [&] { return console.BuildReport(t_loss, options.config.texp); });
  result.measured_cpu_s = measured.cpu_s();
  result.measured_wall_s = measured.wall_s();
  if (tracer != nullptr) {
    tracer->set_enabled(false);
  }
  e.Check("report_built", report.ok(), report.status().ToString());
  if (!report.ok()) {
    return result;
  }

  std::vector<const RpcClient*> extra_rpcs = console_rpcs;
  extra_rpcs.push_back(thief_clients->key_rpc.get());
  extra_rpcs.push_back(thief_clients->meta_rpc.get());
  for (const auto& rpc : thief_clients->shard_rpcs) {
    extra_rpcs.push_back(rpc.get());
  }
  std::vector<const ShardRouter*> extra_routers;
  if (thief_clients->router != nullptr) {
    extra_routers.push_back(thief_clients->router.get());
  }
  const Counters d =
      Snapshot(dep, *vol.device, extra_rpcs, extra_routers) - before;
  const double virt_s = (dep.queue().Now() - start).seconds_f();

  // Score the report against what the thief actually read.
  const MetadataService& meta = dep.meta_replica(MetaLeader(dep));
  size_t false_positives = 0;
  for (const AuditReportEntry& entry : report->compromised) {
    auto path = meta.ResolvePath(creds->device_id, entry.audit_id, t_loss);
    if (path.ok() && files_read.count(*path) == 0) {
      ++false_positives;
    }
  }
  size_t missed = 0;
  for (const std::string& path : files_read) {
    auto header = (*thief_fs)->ReadHeaderOf(path);
    if (!header.ok() || !report->Compromised(header->audit_id)) {
      ++missed;
    }
  }
  e.Check("report_recall", missed == 0,
          Fmt("%.0f of %.0f files the thief read are missing from the report",
              missed, files_read.size()));

  const double ops = recorder.latencies_ms.size();
  result.attempted = recorder.latencies_ms.size();
  e.Set("setup_s", result.setup_cpu_s);
  e.Set("ops_per_host_s", Ratio(ops, result.measured_cpu_s));
  e.Set("goodput_ops_per_vs", Ratio(ops, virt_s));
  EmitLatency(e, recorder.latencies_ms);
  EmitCounterLayers(e, d, ops, result.measured_cpu_s,
                    dep.queue().allocated_nodes());
  EmitKeypadLayer(e, *vol.fs);
  e.Set("keypad.exposure_avg_keys", exposure);
  e.Set("keypad.false_positive_ratio",
        Ratio(false_positives, report->compromised.size()));
  e.Set("auditlog.rows_fetched", console.entries_fetched());
  e.Set("auditlog.report_host_ms", report_cpu_ns / 1e6);
  e.Set("auditlog.report_virt_ms", report_virt.millis_f());
  e.Set("auditlog.resident_rows_peak", resident_peak);
  e.Note(Fmt("theft: %.0f ops over %.2f virtual h; report: %.0f entries, "
             "%.0f false positives",
             ops, virt_s / 3600, report->compromised.size(),
             false_positives));

  std::vector<const KeyService*> authorities;
  std::vector<const KeyService*> replicas;
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    authorities.push_back(&dep.key_replica(s, KeyLeader(dep, s)));
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      replicas.push_back(&dep.key_replica(s, r));
    }
  }
  std::vector<const MetadataService*> metas;
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    metas.push_back(&dep.meta_replica(r));
  }
  CheckChains(e, replicas, metas);
  CheckRevocationFence(e, authorities);
  e.Check("replication_clean", d.append_failures == 0 && d.promotions == 0,
          Fmt("%.0f append failures, %.0f promotions", d.append_failures,
              d.promotions));
  if (tracer != nullptr) {
    EmitSpanLayers(e, *tracer, ops, result.measured_cpu_s, virt_s, d.events,
                   recorder.bytes_written, "theft");
    EmitWire(e, MixFromTracer(*tracer));
    CheckGrantsAudited(e, *tracer, authorities);
    WriteSpans(e, *tracer, config.spans_path);
  }
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"compile", "fleet", "keytier",
                                                 "theft"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

RepResult RunWorkload(const RunConfig& config) {
  if (config.workload == "compile") {
    return RunCompile(config);
  }
  if (config.workload == "fleet") {
    return RunFleet(config);
  }
  if (config.workload == "keytier") {
    return RunKeytier(config);
  }
  return RunTheft(config);
}

}  // namespace keypad::bench
