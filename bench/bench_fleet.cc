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

using bench::Llu;

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
      c.scenario.c_str(), c.devices, c.codec.c_str(), Llu(c.stats.opens_issued),
      Llu(c.stats.opens_ok), Llu(c.stats.opens_denied),
      Llu(c.stats.opens_failed), c.host_s, c.events_per_s() / 1e6,
      c.ops_per_vs(), c.stats.p50_ms, c.stats.p99_ms, c.rss_peak_mb,
      Llu(c.max_queue_high_water), Llu(c.hot_hits), Llu(c.hot_misses),
      c.stats.chains_verified ? "ok" : "BROKEN");
}

bench::JsonRow FleetJson(const FleetCell& c) {
  const FleetWorkload::Stats& s = c.stats;
  return bench::JsonRow()
      .Str("scenario", c.scenario).Str("codec", c.codec)
      .Int("devices", c.devices).Int("opens", s.opens_issued)
      .Int("opens_ok", s.opens_ok).Int("opens_denied", s.opens_denied)
      .Int("opens_failed", s.opens_failed).Int("flash_opens", s.flash_opens)
      .Int("devices_revoked", s.devices_revoked)
      .Int("denied_log_entries", s.denied_log_entries)
      .Int("log_entries", s.log_entries).Num("host_s", c.host_s, 2)
      .Int("events_executed", c.events_executed)
      .Num("events_per_s", c.events_per_s(), 0)
      .Num("ops_per_virtual_s", c.ops_per_vs(), 1)
      .Num("p50_ms", s.p50_ms, 3).Num("p99_ms", s.p99_ms, 3)
      .Int("bytes_on_wire", s.bytes_on_wire).Int("codec_downgrades", 0)
      .Num("buffer_reuse_rate",
           s.encode_buffer_acquires > 0
               ? static_cast<double>(s.encode_buffer_reuses) /
                     s.encode_buffer_acquires
               : 0.0,
           3)
      .Num("rss_peak_mb", c.rss_peak_mb, 0)
      .Int("queue_depth_high_water", c.max_queue_high_water)
      .Int("hot_hits", c.hot_hits).Int("hot_misses", c.hot_misses)
      .Int("requests_shed", c.requests_shed)
      .Int("deadline_expired", c.deadline_expired)
      .Int("overload_events", c.overload_events)
      .Bool("chains_verified", s.chains_verified);
}

bench::JsonDoc ToJson(const QueueMicro& qm, const MarshalMicro& mm,
                      const std::vector<FleetCell>& cells) {
  bench::JsonDoc doc("simcore");
  doc.Row("queue_micro",
          bench::JsonRow()
              .Int("events", qm.events)
              .Num("seed_map_events_per_s", qm.seed_eps(), 0)
              .Num("pairing_heap_events_per_s", qm.heap_eps(), 0)
              .Num("speedup", qm.speedup(), 2))
      .Row("marshal_micro",
           bench::JsonRow()
               .Num("xml_ns_per_op", mm.xml_ns_per_op, 0)
               .Num("binary_ns_per_op", mm.bin_ns_per_op, 0)
               .Num("speedup", mm.speedup(), 2)
               .Int("xml_call_bytes", mm.xml_call_bytes)
               .Int("binary_call_bytes", mm.bin_call_bytes)
               .Num("shrink", mm.shrink(), 2))
      .Rows("fleet_cells", bench::ToRows(cells, FleetJson));
  return doc;
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
      Llu(qm.events), qm.seed_eps() / 1e6, qm.heap_eps() / 1e6,
      qm.speedup(), qm.speedup() >= 1.1 ? "" : "  [BELOW 1.1x TARGET]");
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
  auto run = [&](const char* scenario, const FleetOptions& options) {
    cells.push_back(RunFleetCell(scenario, options));
    PrintFleetCell(cells.back());
    return cells.back();
  };

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
    biggest = run("diurnal", options);
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
    const FleetCell xml = run("codec_xml", options);
    options.codec = WireCodec::kBinary;
    const FleetCell bin = run("codec_binary", options);
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
    const FleetCell storm = run("flash+storm", options);
    bool storm_ok = storm.stats.chains_verified &&
                    storm.stats.devices_revoked > 0 &&
                    storm.stats.opens_denied > 0 &&
                    storm.stats.denied_log_entries >= storm.stats.opens_denied &&
                    storm.stats.flash_opens > 0;
    std::printf(
        "storm: %llu devices revoked, %llu opens denied, %llu kDenied audit "
        "rows, flash q-hw=%llu%s\n",
        Llu(storm.stats.devices_revoked), Llu(storm.stats.opens_denied),
        Llu(storm.stats.denied_log_entries), Llu(storm.max_queue_high_water),
        storm_ok ? "" : "  [STORM INVARIANTS VIOLATED]");
    ok = ok && storm_ok;
  }

  if (!WriteBenchJson(ToJson(qm, mm, cells), argc, argv)) {
    return 1;
  }
  return ok ? 0 : 1;
}
