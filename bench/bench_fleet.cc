// Simulator-core + fleet-scale bench (DESIGN.md §11): how fast does the
// simulator itself run, and does the whole stack hold up with a fleet of
// devices in one cell?
//
// Cells:
//  * queue micro — the seed's std::map event queue (replicated inline
//    below) vs the intrusive pairing-heap EventQueue, driven with the RPC
//    timer pattern (every op schedules a timeout that is almost always
//    cancelled). Acceptance: the new queue clears more events/sec.
//  * marshal micro — a representative key.get exchange encoded+decoded
//    through XML-RPC vs the binary TLV codec, host ns/op and frame bytes.
//    Acceptance: binary is at least 2x faster and 2x smaller.
//  * fleet sweep — FleetWorkload at increasing device counts up to 100k
//    devices in one cell (full mode), with diurnal churn and zipfian
//    popularity; reports events/sec, ops per virtual second, peak RSS, and
//    requires every shard's audit chain to verify.
//  * codec ablation — the same mid-size fleet under XML vs binary framing:
//    bytes on wire, host runtime, events/sec.
//  * storm cell — flash crowd + mass-revocation storm; every post-storm
//    open must be denied AND audited (kDenied rows), chains must verify.
//
// Each fleet cell runs in a forked child, and its peak RSS is the child's
// ru_maxrss from wait4 — a cell never inherits a bigger cell's heap.
//
// Emits BENCH_simcore.json (path = argv[1], default ./BENCH_simcore.json).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/sim/event_queue.h"
#include "src/wire/codec.h"
#include "src/workload/fleet.h"

namespace keypad {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- The seed event queue, replicated for the ablation. ---------------------
//
// This is the data structure the tree grew up on: a std::map ordered by
// (time, seq) holding owning std::functions, plus a second map from EventId
// to map key so Cancel/IsPending can find entries. Every Schedule is a
// red-black tree insert plus a heap-allocated closure; every Cancel walks
// both maps.
class SeedMapQueue {
 public:
  using EventId = uint64_t;

  EventId Schedule(SimTime at, std::function<void()> fn) {
    if (at < now_) {
      at = now_;
    }
    EventId id = next_id_++;
    Key key{at, next_seq_++};
    events_.emplace(key, std::move(fn));
    index_.emplace(id, key);
    return id;
  }
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn) {
    return Schedule(now_ + delay, std::move(fn));
  }
  bool Cancel(EventId id) {
    auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    events_.erase(it->second);
    index_.erase(it);
    return true;
  }
  void RunUntilIdle() {
    while (!events_.empty()) {
      auto it = events_.begin();
      now_ = it->first.first;
      std::function<void()> fn = std::move(it->second);
      // Erase from both maps before invoking (matches the seed).
      for (auto idx = index_.begin(); idx != index_.end(); ++idx) {
        if (idx->second == it->first) {
          index_.erase(idx);
          break;
        }
      }
      events_.erase(it);
      fn();
    }
  }
  SimTime Now() const { return now_; }

 private:
  using Key = std::pair<SimTime, uint64_t>;
  SimTime now_;
  uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::map<Key, std::function<void()>> events_;
  std::map<EventId, Key> index_;
};

// RPC-shaped churn: `lanes` concurrent operations, each scheduling a work
// event plus a timeout that the work event cancels — the dominant pattern
// the RPC retry ladder feeds the queue. Runs until `target_events` work
// events executed; returns host seconds.
template <typename Queue>
double RunQueueChurn(int lanes, uint64_t target_events) {
  Queue q;
  uint64_t executed = 0;
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next_delay = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return SimDuration::Micros(static_cast<int64_t>(rng % 997) + 1);
  };
  std::function<void()> lane = [&]() {
    if (executed >= target_events) {
      return;
    }
    ++executed;
    // The timeout guarding this op: cancelled by the op completing, which
    // in this pattern is immediate.
    auto timeout = q.ScheduleAfter(SimDuration::Millis(50), [] {});
    q.Cancel(timeout);
    q.ScheduleAfter(next_delay(), lane);
  };
  double start = NowSeconds();
  for (int i = 0; i < lanes; ++i) {
    q.ScheduleAfter(next_delay(), lane);
  }
  q.RunUntilIdle();
  return NowSeconds() - start;
}

struct QueueMicro {
  uint64_t events = 0;
  double seed_s = 0;
  double heap_s = 0;
  double seed_eps() const { return seed_s > 0 ? events / seed_s : 0; }
  double heap_eps() const { return heap_s > 0 ? events / heap_s : 0; }
  double speedup() const { return seed_s > 0 ? seed_s / heap_s : 0; }
};

QueueMicro RunQueueMicro() {
  QueueMicro m;
  m.events = 1'000'000;
  const int lanes = 512;
  // Warm both allocators once, then measure.
  RunQueueChurn<SeedMapQueue>(lanes, 50'000);
  RunQueueChurn<EventQueue>(lanes, 50'000);
  m.seed_s = RunQueueChurn<SeedMapQueue>(lanes, m.events);
  m.heap_s = RunQueueChurn<EventQueue>(lanes, m.events);
  return m;
}

// --- Marshal micro: XML vs binary on a representative key.get. --------------

struct MarshalMicro {
  double xml_ns_per_op = 0;
  double bin_ns_per_op = 0;
  size_t xml_call_bytes = 0;
  size_t bin_call_bytes = 0;
  double speedup() const {
    return bin_ns_per_op > 0 ? xml_ns_per_op / bin_ns_per_op : 0;
  }
  double shrink() const {
    return bin_call_bytes > 0
               ? static_cast<double>(xml_call_bytes) / bin_call_bytes
               : 0;
  }
};

MarshalMicro RunMarshalMicro() {
  // The fleet's hot request: key.get with device id, 32-byte HMAC tag, and
  // a 24-byte audit id; the response carries a 32-byte key.
  XmlRpcCall call;
  call.method = "key.get";
  call.params.push_back(WireValue(std::string("u31337-d1")));
  call.params.push_back(WireValue(Bytes(32, 0xA5)));
  call.params.push_back(WireValue(Bytes(24, 0x42)));
  call.params.push_back(WireValue(int64_t{1}));
  WireValue response{Bytes(32, 0x5A)};

  MarshalMicro m;
  const int iters = 200'000;
  std::string buf;
  for (WireCodec codec : {WireCodec::kXml, WireCodec::kBinary}) {
    // One full round per iteration: encode call, decode call, encode
    // response, decode response — both directions of the exchange.
    double start = NowSeconds();
    for (int i = 0; i < iters; ++i) {
      buf.clear();
      EncodeCallInto(codec, call, buf);
      auto decoded_call = DecodeCallAuto(buf);
      if (!decoded_call.ok()) {
        std::fprintf(stderr, "bench_fleet: marshal decode failed\n");
        std::exit(1);
      }
      std::string resp = EncodeResponse(codec, response);
      auto decoded_resp = DecodeResponseAuto(resp);
      if (!decoded_resp.ok()) {
        std::fprintf(stderr, "bench_fleet: response decode failed\n");
        std::exit(1);
      }
    }
    double ns = (NowSeconds() - start) * 1e9 / iters;
    buf.clear();
    EncodeCallInto(codec, call, buf);
    if (codec == WireCodec::kXml) {
      m.xml_ns_per_op = ns;
      m.xml_call_bytes = buf.size();
    } else {
      m.bin_ns_per_op = ns;
      m.bin_call_bytes = buf.size();
    }
  }
  return m;
}

// --- Fleet cells. -----------------------------------------------------------

// What one fleet cell measures. Trivially copyable: the forked child that
// runs the cell hands it back through a pipe.
struct CellMeasure {
  FleetWorkload::Stats stats;
  uint64_t events_executed = 0;
  double host_s = 0;
  uint64_t max_queue_high_water = 0;
  uint64_t hot_hits = 0;
  uint64_t hot_misses = 0;
  uint64_t requests_shed = 0;
  uint64_t deadline_expired = 0;
  uint64_t overload_events = 0;
};
static_assert(std::is_trivially_copyable_v<CellMeasure>);

struct FleetCell : CellMeasure {
  std::string scenario;
  std::string codec;
  int devices = 0;
  double rss_peak_mb = 0;

  double events_per_s() const {
    return host_s > 0 ? events_executed / host_s : 0;
  }
  double ops_per_vs() const {
    return stats.virtual_seconds > 0
               ? stats.opens_issued / stats.virtual_seconds
               : 0;
  }
};

CellMeasure MeasureFleetCell(const FleetOptions& options) {
  EventQueue queue;
  FleetWorkload fleet(&queue, options);
  fleet.Provision();
  const uint64_t events_before = queue.executed_count();
  double start = NowSeconds();
  CellMeasure m;
  m.stats = fleet.Run();
  m.host_s = NowSeconds() - start;
  m.events_executed = queue.executed_count() - events_before;
  for (int s = 0; s < fleet.shard_count(); ++s) {
    m.max_queue_high_water = std::max(
        m.max_queue_high_water, fleet.server(s)->queue_depth_high_water());
    KeyService::LoadStats stats = fleet.shard(s)->load_stats();
    m.hot_hits += stats.hot_hits;
    m.hot_misses += stats.hot_misses;
    m.requests_shed +=
        stats.shed_demand + stats.shed_prefetch + stats.shed_background;
    m.deadline_expired += stats.deadline_expired;
    m.overload_events += stats.overload_events;
  }
  return m;
}

// Runs the cell in a forked child. A cell that cannot be measured ends the
// bench with a failure.
FleetCell RunFleetCell(const std::string& scenario, FleetOptions options) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::fprintf(stderr, "bench_fleet: pipe failed\n");
    std::exit(1);
  }
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    CellMeasure m = MeasureFleetCell(options);
    const char* p = reinterpret_cast<const char*>(&m);
    size_t left = sizeof(m);
    for (ssize_t n; left > 0 && (n = write(fds[1], p, left)) > 0;) {
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(left == 0 ? 0 : 1);
  }
  close(fds[1]);
  CellMeasure m;
  size_t got = 0;
  while (pid > 0 && got < sizeof(m)) {
    ssize_t n = read(fds[0], reinterpret_cast<char*>(&m) + got,
                     sizeof(m) - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (pid > 0 && wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (pid < 0 || got != sizeof(m) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_fleet: cell %s did not report\n",
                 scenario.c_str());
    std::exit(1);
  }
  FleetCell cell;
  static_cast<CellMeasure&>(cell) = m;
  cell.scenario = scenario;
  cell.codec = WireCodecName(options.codec);
  cell.devices = options.users * options.devices_per_user;
  cell.rss_peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
  return cell;
}

void PrintFleetCell(const FleetCell& c) {
  std::printf(
      "%-14s %7d dev (%s)  %9llu opens (%llu ok, %llu denied, %llu err)  "
      "%6.1fs host  %4.2fM ev/s  %7.0f op/vs  p50=%5.2fms p99=%6.2fms  "
      "rss=%4.0fMB  q-hw=%llu  hot=%llu/%llu  chains=%s\n",
      c.scenario.c_str(), c.devices, c.codec.c_str(),
      static_cast<unsigned long long>(c.stats.opens_issued),
      static_cast<unsigned long long>(c.stats.opens_ok),
      static_cast<unsigned long long>(c.stats.opens_denied),
      static_cast<unsigned long long>(c.stats.opens_failed), c.host_s,
      c.events_per_s() / 1e6, c.ops_per_vs(), c.stats.p50_ms, c.stats.p99_ms,
      c.rss_peak_mb, static_cast<unsigned long long>(c.max_queue_high_water),
      static_cast<unsigned long long>(c.hot_hits),
      static_cast<unsigned long long>(c.hot_misses),
      c.stats.chains_verified ? "ok" : "BROKEN");
}

void WriteJson(const std::string& path, const QueueMicro& qm,
               const MarshalMicro& mm, const std::vector<FleetCell>& cells) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"simcore\",\n");
  std::fprintf(
      f,
      "  \"queue_micro\": {\"events\": %llu, \"seed_map_events_per_s\": "
      "%.0f, \"pairing_heap_events_per_s\": %.0f, \"speedup\": %.2f},\n",
      static_cast<unsigned long long>(qm.events), qm.seed_eps(),
      qm.heap_eps(), qm.speedup());
  std::fprintf(
      f,
      "  \"marshal_micro\": {\"xml_ns_per_op\": %.0f, \"binary_ns_per_op\": "
      "%.0f, \"speedup\": %.2f, \"xml_call_bytes\": %zu, "
      "\"binary_call_bytes\": %zu, \"shrink\": %.2f},\n",
      mm.xml_ns_per_op, mm.bin_ns_per_op, mm.speedup(), mm.xml_call_bytes,
      mm.bin_call_bytes, mm.shrink());
  std::fprintf(f, "  \"fleet_cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const FleetCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"codec\": \"%s\", \"devices\": %d, "
        "\"opens\": %llu, \"opens_ok\": %llu, \"opens_denied\": %llu, "
        "\"opens_failed\": %llu, \"flash_opens\": %llu, "
        "\"devices_revoked\": %llu, \"denied_log_entries\": %llu, "
        "\"log_entries\": %llu, \"host_s\": %.2f, \"events_executed\": "
        "%llu, \"events_per_s\": %.0f, \"ops_per_virtual_s\": %.1f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"bytes_on_wire\": %llu, "
        "\"codec_downgrades\": 0, \"buffer_reuse_rate\": %.3f, "
        "\"rss_peak_mb\": %.0f, \"queue_depth_high_water\": %llu, "
        "\"hot_hits\": %llu, \"hot_misses\": %llu, "
        "\"requests_shed\": %llu, \"deadline_expired\": %llu, "
        "\"overload_events\": %llu, "
        "\"chains_verified\": %s}%s\n",
        c.scenario.c_str(), c.codec.c_str(), c.devices,
        static_cast<unsigned long long>(c.stats.opens_issued),
        static_cast<unsigned long long>(c.stats.opens_ok),
        static_cast<unsigned long long>(c.stats.opens_denied),
        static_cast<unsigned long long>(c.stats.opens_failed),
        static_cast<unsigned long long>(c.stats.flash_opens),
        static_cast<unsigned long long>(c.stats.devices_revoked),
        static_cast<unsigned long long>(c.stats.denied_log_entries),
        static_cast<unsigned long long>(c.stats.log_entries), c.host_s,
        static_cast<unsigned long long>(c.events_executed),
        c.events_per_s(), c.ops_per_vs(), c.stats.p50_ms, c.stats.p99_ms,
        static_cast<unsigned long long>(c.stats.bytes_on_wire),
        c.stats.encode_buffer_acquires > 0
            ? static_cast<double>(c.stats.encode_buffer_reuses) /
                  c.stats.encode_buffer_acquires
            : 0.0,
        c.rss_peak_mb,
        static_cast<unsigned long long>(c.max_queue_high_water),
        static_cast<unsigned long long>(c.hot_hits),
        static_cast<unsigned long long>(c.hot_misses),
        static_cast<unsigned long long>(c.requests_shed),
        static_cast<unsigned long long>(c.deadline_expired),
        static_cast<unsigned long long>(c.overload_events),
        c.stats.chains_verified ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace keypad

int main(int argc, char** argv) {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("§11 simulator core + fleet scale");
  bool ok = true;

  // Queue micro: seed std::map queue vs intrusive pairing heap.
  QueueMicro qm = RunQueueMicro();
  std::printf(
      "queue micro:   %llu events  seed-map %5.2fM ev/s  pairing-heap "
      "%5.2fM ev/s  speedup %.2fx%s\n",
      static_cast<unsigned long long>(qm.events), qm.seed_eps() / 1e6,
      qm.heap_eps() / 1e6, qm.speedup(),
      qm.speedup() >= 1.1 ? "" : "  [BELOW 1.1x TARGET]");
  ok = ok && qm.speedup() >= 1.1;

  // Marshal micro: XML vs binary round trip.
  MarshalMicro mm = RunMarshalMicro();
  std::printf(
      "marshal micro: xml %5.0f ns/op (%zu B)  binary %5.0f ns/op (%zu B)  "
      "speedup %.1fx  shrink %.1fx%s\n",
      mm.xml_ns_per_op, mm.xml_call_bytes, mm.bin_ns_per_op,
      mm.bin_call_bytes, mm.speedup(), mm.shrink(),
      (mm.speedup() >= 2.0 && mm.shrink() >= 2.0)
          ? ""
          : "  [BELOW 2x TARGET]");
  ok = ok && mm.speedup() >= 2.0 && mm.shrink() >= 2.0;

  std::vector<FleetCell> cells;

  // Fleet sweep with diurnal churn; the top cell is the 100k-device claim.
  FleetOptions base;
  base.devices_per_user = 2;
  base.files_per_device = FastMode() ? 4 : 3;
  base.shards = 2;
  base.duration = FastMode() ? SimDuration::Seconds(4) : SimDuration::Seconds(4);
  base.day = SimDuration::Seconds(2);
  base.mean_think = SimDuration::Millis(800);

  // Shards scale with the fleet so the sweep measures the simulator, not a
  // deliberately saturated key tier (per-device clients only exist on the
  // shards owning that device's files, so 32 shards stays affordable).
  struct SweepPoint {
    int users;
    int shards;
  };
  std::vector<SweepPoint> sweep =
      FastMode() ? std::vector<SweepPoint>{{250, 2}, {1000, 2}}
                 : std::vector<SweepPoint>{{500, 2}, {5000, 4}, {50000, 32}};
  FleetCell biggest;
  for (const SweepPoint& point : sweep) {
    FleetOptions options = base;
    options.users = point.users;
    options.shards = point.shards;
    options.seed = 0xF1EE7 + point.users;
    cells.push_back(RunFleetCell("diurnal", options));
    PrintFleetCell(cells.back());
    biggest = cells.back();
    // Capacity is provisioned: a diurnal cell must not drop opens.
    ok = ok && biggest.stats.chains_verified &&
         biggest.stats.opens_ok > 0 && biggest.stats.opens_failed == 0;
  }
  if (!FastMode()) {
    // The headline claim: 100k devices in ONE cell, chains verified,
    // memory bounded (recorded; the JSON carries the RSS evidence).
    ok = ok && biggest.devices >= 100000;
  }

  // Codec ablation at mid scale: identical fleet, XML vs binary framing.
  {
    FleetOptions options = base;
    options.users = FastMode() ? 500 : 5000;
    options.shards = FastMode() ? 2 : 4;
    options.seed = 0xAB1A;
    options.codec = WireCodec::kXml;
    cells.push_back(RunFleetCell("codec_xml", options));
    PrintFleetCell(cells.back());
    const FleetCell xml = cells.back();
    options.codec = WireCodec::kBinary;
    cells.push_back(RunFleetCell("codec_binary", options));
    PrintFleetCell(cells.back());
    const FleetCell bin = cells.back();
    bool shrank = bin.stats.bytes_on_wire * 2 <= xml.stats.bytes_on_wire;
    std::printf(
        "codec ablation: %.1f MB -> %.1f MB on the wire (%.1fx), host "
        "%.1fs -> %.1fs%s\n",
        xml.stats.bytes_on_wire / 1e6, bin.stats.bytes_on_wire / 1e6,
        bin.stats.bytes_on_wire > 0
            ? static_cast<double>(xml.stats.bytes_on_wire) /
                  bin.stats.bytes_on_wire
            : 0.0,
        xml.host_s, bin.host_s,
        shrank ? "" : "  [BELOW 2x SHRINK TARGET]");
    ok = ok && shrank;
  }

  // Storm cell: flash crowd + mass revocation. Every post-storm open from
  // a revoked device must be denied AND leave a kDenied audit row; the
  // chains must verify with the storm inside them.
  {
    FleetOptions options = base;
    options.users = FastMode() ? 500 : 2000;
    options.seed = 0x5707;
    options.flash_crowd = true;
    options.revocation_storm = true;
    cells.push_back(RunFleetCell("flash+storm", options));
    PrintFleetCell(cells.back());
    const FleetCell& storm = cells.back();
    bool storm_ok = storm.stats.chains_verified &&
                    storm.stats.devices_revoked > 0 &&
                    storm.stats.opens_denied > 0 &&
                    storm.stats.denied_log_entries >= storm.stats.opens_denied &&
                    storm.stats.flash_opens > 0;
    std::printf(
        "storm: %llu devices revoked, %llu opens denied, %llu kDenied audit "
        "rows, flash q-hw=%llu%s\n",
        static_cast<unsigned long long>(storm.stats.devices_revoked),
        static_cast<unsigned long long>(storm.stats.opens_denied),
        static_cast<unsigned long long>(storm.stats.denied_log_entries),
        static_cast<unsigned long long>(storm.max_queue_high_water),
        storm_ok ? "" : "  [STORM INVARIANTS VIOLATED]");
    ok = ok && storm_ok;
  }

  std::string out =
      argc > 1 ? std::string(argv[1]) : std::string("BENCH_simcore.json");
  WriteJson(out, qm, mm, cells);
  return ok ? 0 : 1;
}
