// Overload-robustness bench (DESIGN.md §14): the 4-shard key tier driven
// past saturation, with and without the overload machinery.
//
// Fixture: the bench_scale cost model (30 us dispatch charge per RPC,
// 120 us unwrap per cold key, group commit at 400 us, seal CPU billed to
// the shard's busy clock), 4 shards, M devices each with its own link and
// per-shard stubs behind a ShardRouter. Keys are provisioned hot-resident
// so the cells measure the serving path at its dispatch-bound capacity,
// not the unwrap warmup. Routing is one RPC per fetch (no batching, no
// coalescing) so every demand open is exactly one wire request — the
// accounting the revocation cell's row-per-attempt gate needs.
//
// Cells:
//  * peak: closed loop at saturation with the full §14 stack on
//    (admission + retry budgets + brownout) — measures the tier's
//    capacity; the overload cells are paced relative to this number;
//  * overload_2x_on: open-loop Poisson arrivals at 2x peak with the
//    stack on. Admission bounds the queue, excess demand draws cheap
//    REJECTED faults, and the admitted work completes inside the
//    client's per-attempt timeout. Acceptance: demand goodput >= 70% of
//    peak with p99 still bounded (<= 25 ms), and shedding actually
//    engaged (requests_shed > 0);
//  * overload_2x_off: the same offered load with admission, budgets, and
//    brownout all off — the PR 2 ladder against an unbounded queue. The
//    queue grows without bound, responses land after the client's ladder
//    has given up, timeouts spawn retries that deepen the queue — the
//    metastable collapse this PR exists to prevent. Acceptance: goodput
//    < 40% of peak (if this cell ever stops collapsing, the OFF baseline
//    stopped being a baseline);
//  * revocation_storm: 2x overload with the stack on while device 0 is
//    revoked mid-run. The audit contract under shedding: every ADMITTED
//    denied attempt earns exactly one kDenied row (client-observed
//    denials == kDenied rows in the logs), shed attempts earn none (no
//    key material moved), the revocation fence holds, and every shard's
//    chain still verifies.
//
// Emits BENCH_overload.json (path = argv[1], default ./BENCH_overload.json).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/keyservice/key_service.h"
#include "src/keyservice/shard_router.h"
#include "src/net/link.h"
#include "src/net/profile.h"
#include "src/rpc/brownout.h"
#include "src/rpc/rpc.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

constexpr int kShards = 4;

struct CellResult {
  std::string scenario;
  bool protections = false;  // admission + retry budget + brownout
  int devices = 0;
  double offered_ops_per_s = 0;  // 0 = closed loop.
  uint64_t completed = 0;
  uint64_t rejected = 0;  // Client-observed REJECTED faults.
  uint64_t denied = 0;    // Client-observed kPermissionDenied (revoked).
  uint64_t failed = 0;    // Everything else (timeouts, breaker, ...).
  double elapsed_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  // Server-side §14 counters, summed over the shard tier.
  uint64_t shed_demand = 0;
  uint64_t shed_prefetch = 0;
  uint64_t shed_background = 0;
  uint64_t deadline_expired = 0;
  uint64_t overload_events = 0;
  uint64_t queue_depth_high_water = 0;  // Max over shards.
  // Client-side §14 counters, summed over devices.
  uint64_t retries_budget_denied = 0;
  uint64_t budget_rejects_observed = 0;
  uint64_t brownout_signals = 0;
  uint64_t brownout_activations = 0;
  // Revocation-storm audit accounting.
  uint64_t denied_rows = 0;  // kDenied rows for the revoked device.
  bool revoked_device = false;
  bool revocation_fenced = true;
  bool all_verified = true;

  uint64_t requests_shed() const {
    return shed_demand + shed_prefetch + shed_background;
  }
  double goodput() const {
    return elapsed_s == 0 ? 0 : completed / elapsed_s;
  }
};

struct CellConfig {
  std::string scenario;
  bool protections = true;
  // > 0: open-loop Poisson arrivals at this aggregate rate; 0: closed loop
  // at pipeline_depth per device.
  double paced_ops_per_s = 0;
  bool revoke_device0 = false;
  int devices = 8;
  int pipeline_depth = 64;
  SimDuration duration = SimDuration::Seconds(1);
};

struct Device {
  std::string name;
  std::unique_ptr<NetworkLink> link;
  std::vector<std::unique_ptr<RpcClient>> rpcs;
  std::vector<std::unique_ptr<KeyServiceClient>> stubs;
  std::unique_ptr<BrownoutController> brownout;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<SimRandom> rng;
  std::vector<AuditId> ids;
};

uint64_t DeniedRowsFor(const std::vector<std::unique_ptr<KeyService>>& shards,
                       const std::string& device_name) {
  uint64_t rows = 0;
  for (const auto& shard : shards) {
    for (const auto& entry : shard->log().entries()) {
      if (entry.device_id == device_name &&
          entry.op == AccessOp::kDenied) {
        ++rows;
      }
    }
  }
  return rows;
}

CellResult RunCell(const CellConfig& config) {
  ResetRpcClientIdsForTesting();
  EventQueue queue;

  KeyServiceOptions service_options;
  service_options.commit_window = SimDuration::Micros(400);
  service_options.seal_cost_fixed = SimDuration::Micros(40);
  service_options.seal_cost_per_entry = SimDuration::Micros(2);
  service_options.unwrap_cost = SimDuration::Micros(120);
  service_options.hot_key_cache = true;

  // Admission tuned so the demand shed point (target * demand_slack =
  // 10 ms expected sojourn) sits well inside the client's 25 ms
  // per-attempt timeout: everything the server admits, the client is
  // still around to receive.
  AdmissionOptions admission;
  admission.enabled = config.protections;
  admission.target_sojourn = SimDuration::Millis(1);
  admission.overload_interval = SimDuration::Millis(10);

  constexpr SimDuration kDispatchTime = SimDuration::Micros(30);
  std::vector<std::unique_ptr<KeyService>> shards;
  std::vector<std::unique_ptr<RpcServer>> servers;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<KeyService>(
        &queue, 0x7100 + static_cast<uint64_t>(s), service_options));
    servers.push_back(std::make_unique<RpcServer>(&queue, kDispatchTime));
    servers[s]->set_admission(admission);
    shards[s]->BindRpc(servers[s].get());
    RpcServer* server = servers[s].get();
    shards[s]->set_seal_charge(
        [server](SimDuration d) { server->ChargeBusy(d); });
  }

  // LAN retry ladder sized for the overload story: 25 ms attempts under a
  // 100 ms call deadline with fast backoff, so the OFF cell's retries
  // actually land inside the run instead of after it — and its backlog
  // goes stale (served after the ladder gave up) within the cell.
  RpcOptions rpc;
  rpc.client_overhead = SimDuration();
  rpc.timeout = SimDuration::Millis(25);
  rpc.total_deadline = SimDuration::Millis(100);
  rpc.retry.initial_backoff = SimDuration::Millis(2);
  rpc.retry.max_backoff = SimDuration::Millis(20);
  rpc.retry_budget.enabled = config.protections;

  BrownoutOptions brownout_options;
  brownout_options.enabled = config.protections;

  ShardRouter::Options router_options;
  router_options.single_flight = false;
  router_options.batch_fetch = false;

  const int ids_per_device = 64;
  std::vector<std::unique_ptr<Device>> devices;
  SecureRandom id_rng(0xF00D);
  for (int d = 0; d < config.devices; ++d) {
    auto device = std::make_unique<Device>();
    device->name = "dev-" + std::to_string(d);
    device->link = std::make_unique<NetworkLink>(
        &queue, LanProfile(), 0x5100 + static_cast<uint64_t>(d));
    device->brownout = std::make_unique<BrownoutController>(brownout_options);
    Bytes secret;
    for (int s = 0; s < kShards; ++s) {
      if (s == 0) {
        secret = shards[s]->RegisterDevice(device->name);
      } else {
        shards[s]->RegisterDeviceWithSecret(device->name, secret);
      }
      device->rpcs.push_back(std::make_unique<RpcClient>(
          &queue, device->link.get(), servers[s].get(), rpc));
      device->stubs.push_back(std::make_unique<KeyServiceClient>(
          device->rpcs.back().get(), device->name, secret));
    }
    std::vector<KeyServiceClient*> stub_ptrs;
    for (auto& stub : device->stubs) stub_ptrs.push_back(stub.get());
    ShardRouter::Options opts = router_options;
    opts.brownout = device->brownout.get();
    device->router =
        std::make_unique<ShardRouter>(&queue, std::move(stub_ptrs), opts);
    device->rng =
        std::make_unique<SimRandom>(0x6100 + static_cast<uint64_t>(d));
    for (int i = 0; i < ids_per_device; ++i) {
      AuditId id = AuditId::Random(id_rng);
      size_t owner = device->router->ring().ShardFor(id);
      if (!shards[owner]->CreateKey(device->name, id).ok()) {
        std::fprintf(stderr, "bench_overload: provisioning failed\n");
        std::exit(1);
      }
      device->ids.push_back(id);
    }
    devices.push_back(std::move(device));
  }
  // Provisioning left every key unwrapped-resident; keep it that way. The
  // overload cells are about queueing at the dispatch-bound capacity, not
  // the cold-unwrap warmup bench_scale already covers.

  CellResult cell;
  cell.scenario = config.scenario;
  cell.protections = config.protections;
  cell.devices = config.devices;
  cell.offered_ops_per_s = config.paced_ops_per_s;
  cell.revoked_device = config.revoke_device0;

  const SimTime start = queue.Now();
  const SimTime deadline = start + config.duration;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(1 << 16);

  std::function<void(Device*)> issue;
  auto record = [&](SimTime issued, Result<Bytes> key) {
    if (key.ok()) {
      ++cell.completed;
      latencies_ms.push_back((queue.Now() - issued).seconds_f() * 1e3);
    } else if (IsRejectedByServer(key.status())) {
      ++cell.rejected;
    } else if (key.status().code() == StatusCode::kPermissionDenied) {
      ++cell.denied;
    } else {
      ++cell.failed;
    }
  };

  if (config.paced_ops_per_s > 0) {
    // Open loop: arrivals keep coming at the offered rate no matter what
    // completions do — exactly the regime where an unbounded queue
    // diverges and a bounded one sheds.
    const double mean_us =
        1e6 / (config.paced_ops_per_s / config.devices);
    issue = [&, mean_us](Device* device) {
      if (queue.Now() >= deadline) {
        return;
      }
      const AuditId& id =
          device->ids[device->rng->UniformU64(device->ids.size())];
      SimTime issued = queue.Now();
      device->router->GetKeyAsync(
          id, AccessOp::kDemandFetch,
          [&, device, issued](Result<Bytes> key) {
            record(issued, std::move(key));
          });
      queue.ScheduleAfter(
          SimDuration::Micros(
              static_cast<int64_t>(device->rng->Exponential(mean_us))),
          [&, device] { issue(device); });
    };
    for (auto& device : devices) {
      issue(device.get());
    }
  } else {
    // Closed loop at a deep pipeline: the capacity measurement.
    issue = [&](Device* device) {
      if (queue.Now() >= deadline) {
        return;
      }
      const AuditId& id =
          device->ids[device->rng->UniformU64(device->ids.size())];
      SimTime issued = queue.Now();
      device->router->GetKeyAsync(
          id, AccessOp::kDemandFetch,
          [&, device, issued](Result<Bytes> key) {
            record(issued, std::move(key));
            issue(device);
          });
    };
    for (auto& device : devices) {
      for (int p = 0; p < config.pipeline_depth; ++p) {
        issue(device.get());
      }
    }
  }

  if (config.revoke_device0) {
    // Revoke device 0 a quarter in: its in-flight grants land before the
    // kRevoke row; afterwards every admitted attempt is a denied row and
    // every shed attempt is nothing at all.
    queue.Schedule(start + config.duration / 4, [&] {
      for (auto& shard : shards) {
        shard->DisableDevice(devices[0]->name);
      }
    });
  }

  queue.RunUntilIdle();
  cell.elapsed_s = config.duration.seconds_f();

  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    cell.p50_ms = bench::SortedQuantile(latencies_ms, 0.50);
    cell.p99_ms = bench::SortedQuantile(latencies_ms, 0.99);
  }
  for (int s = 0; s < kShards; ++s) {
    cell.shed_demand += servers[s]->shed_demand();
    cell.shed_prefetch += servers[s]->shed_prefetch();
    cell.shed_background += servers[s]->shed_background();
    cell.deadline_expired += servers[s]->deadline_expired();
    cell.overload_events += servers[s]->overload_events();
    cell.queue_depth_high_water = std::max(
        cell.queue_depth_high_water, servers[s]->queue_depth_high_water());
    if (!shards[s]->log().Verify().ok()) {
      cell.all_verified = false;
    }
  }
  for (auto& device : devices) {
    for (auto& client : device->rpcs) {
      cell.retries_budget_denied += client->retries_budget_denied();
      cell.budget_rejects_observed +=
          client->retry_budget().rejects_observed();
    }
    cell.brownout_signals += device->brownout->stats().signals;
    cell.brownout_activations += device->brownout->stats().activations;
  }
  if (config.revoke_device0) {
    cell.denied_rows = DeniedRowsFor(shards, devices[0]->name);
    cell.revocation_fenced =
        bench::RevocationFenceHolds(shards, devices[0]->name);
  }
  return cell;
}

void PrintCell(const CellResult& c) {
  std::printf(
      "%-18s %s  %7llu ok / %6llu rej / %5llu den / %4llu err  "
      "goodput=%8.0f op/s  p50=%6.2f ms  p99=%7.2f ms  "
      "shed=%llu  expired=%llu  q-hw=%llu  budget-denied=%llu  "
      "brownout=%llu/%llu%s%s\n",
      c.scenario.c_str(), c.protections ? "on " : "off",
      static_cast<unsigned long long>(c.completed),
      static_cast<unsigned long long>(c.rejected),
      static_cast<unsigned long long>(c.denied),
      static_cast<unsigned long long>(c.failed), c.goodput(), c.p50_ms,
      c.p99_ms, static_cast<unsigned long long>(c.requests_shed()),
      static_cast<unsigned long long>(c.deadline_expired),
      static_cast<unsigned long long>(c.queue_depth_high_water),
      static_cast<unsigned long long>(c.retries_budget_denied),
      static_cast<unsigned long long>(c.brownout_activations),
      static_cast<unsigned long long>(c.brownout_signals),
      c.revoked_device
          ? (c.revocation_fenced ? "  [revocation fenced]"
                                 : "  [REVOCATION FENCE BROKEN]")
          : "",
      c.all_verified ? "" : "  [CHAIN BROKEN]");
}

void WriteJson(const std::string& path, const std::vector<CellResult>& cells) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"overload\",\n  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"protections\": %s, \"devices\": %d, "
        "\"offered_ops_per_s\": %.1f, \"completed\": %llu, "
        "\"rejected\": %llu, \"denied\": %llu, \"failed\": %llu, "
        "\"goodput_ops_per_s\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"shed_demand\": %llu, \"shed_prefetch\": %llu, "
        "\"shed_background\": %llu, \"requests_shed\": %llu, "
        "\"deadline_expired\": %llu, \"overload_events\": %llu, "
        "\"queue_depth_high_water\": %llu, "
        "\"retries_budget_denied\": %llu, "
        "\"budget_rejects_observed\": %llu, "
        "\"brownout_signals\": %llu, \"brownout_activations\": %llu, "
        "\"denied_rows\": %llu, \"revoked_device\": %s, "
        "\"revocation_fenced\": %s, \"all_verified\": %s}%s\n",
        c.scenario.c_str(), c.protections ? "true" : "false", c.devices,
        c.offered_ops_per_s, static_cast<unsigned long long>(c.completed),
        static_cast<unsigned long long>(c.rejected),
        static_cast<unsigned long long>(c.denied),
        static_cast<unsigned long long>(c.failed), c.goodput(), c.p50_ms,
        c.p99_ms, static_cast<unsigned long long>(c.shed_demand),
        static_cast<unsigned long long>(c.shed_prefetch),
        static_cast<unsigned long long>(c.shed_background),
        static_cast<unsigned long long>(c.requests_shed()),
        static_cast<unsigned long long>(c.deadline_expired),
        static_cast<unsigned long long>(c.overload_events),
        static_cast<unsigned long long>(c.queue_depth_high_water),
        static_cast<unsigned long long>(c.retries_budget_denied),
        static_cast<unsigned long long>(c.budget_rejects_observed),
        static_cast<unsigned long long>(c.brownout_signals),
        static_cast<unsigned long long>(c.brownout_activations),
        static_cast<unsigned long long>(c.denied_rows),
        c.revoked_device ? "true" : "false",
        c.revocation_fenced ? "true" : "false",
        c.all_verified ? "true" : "false",
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
  PrintHeader("§14 overload: admission, retry budgets, brownout at 2x");

  CellConfig base;
  base.devices = FastMode() ? 6 : 12;
  base.duration =
      FastMode() ? SimDuration::Millis(600) : SimDuration::Millis(1500);

  std::vector<CellResult> cells;

  // Capacity: closed loop, full stack on. The deep pipeline occasionally
  // grazes the demand shed point (a few % REJECTED at saturation is the
  // bound working, not overload), so peak goodput is the admitted-work
  // capacity the overload cells are measured against.
  CellConfig peak_config = base;
  peak_config.scenario = "peak";
  cells.push_back(RunCell(peak_config));
  PrintCell(cells.back());
  const double peak = cells.back().goodput();

  // 2x the measured capacity, stack on vs. off.
  for (bool on : {true, false}) {
    CellConfig config = base;
    config.scenario = on ? "overload_2x_on" : "overload_2x_off";
    config.protections = on;
    config.paced_ops_per_s = 2.0 * peak;
    cells.push_back(RunCell(config));
    PrintCell(cells.back());
  }

  // Revocation storm under the same 2x overload, stack on.
  {
    CellConfig config = base;
    config.scenario = "revocation_storm";
    config.paced_ops_per_s = 2.0 * peak;
    config.revoke_device0 = true;
    cells.push_back(RunCell(config));
    PrintCell(cells.back());
  }

  const CellResult* on_2x = nullptr;
  const CellResult* off_2x = nullptr;
  const CellResult* storm = nullptr;
  for (const CellResult& c : cells) {
    if (c.scenario == "overload_2x_on") on_2x = &c;
    if (c.scenario == "overload_2x_off") off_2x = &c;
    if (c.scenario == "revocation_storm") storm = &c;
  }

  bool ok = true;
  if (on_2x != nullptr && peak > 0) {
    double frac = on_2x->goodput() / peak;
    bool shed = on_2x->requests_shed() > 0;
    bool p99_ok = on_2x->p99_ms <= 25.0;
    std::printf(
        "\n2x with stack on: %.0f%% of peak goodput (%.0f / %.0f op/s), "
        "p99 %.2f ms, %llu shed%s%s%s\n",
        frac * 100, on_2x->goodput(), peak, on_2x->p99_ms,
        static_cast<unsigned long long>(on_2x->requests_shed()),
        frac >= 0.70 ? "" : "  [BELOW 70% TARGET]",
        p99_ok ? "" : "  [p99 ABOVE 25 ms]",
        shed ? "" : "  [ADMISSION NEVER ENGAGED]");
    ok = ok && frac >= 0.70 && p99_ok && shed;
  }
  if (off_2x != nullptr && peak > 0) {
    double frac = off_2x->goodput() / peak;
    std::printf(
        "2x with stack off: %.0f%% of peak goodput (%.0f op/s), "
        "p99 %.2f ms, q-hw %llu%s\n",
        frac * 100, off_2x->goodput(), off_2x->p99_ms,
        static_cast<unsigned long long>(off_2x->queue_depth_high_water),
        frac < 0.40 ? "  [collapse, as expected]"
                    : "  [OFF BASELINE DID NOT COLLAPSE]");
    ok = ok && frac < 0.40;
  }
  if (storm != nullptr) {
    bool rows_match = storm->denied_rows == storm->denied;
    bool shed = storm->requests_shed() > 0;
    std::printf(
        "revocation storm: %llu denied rows for %llu observed denials%s, "
        "%llu shed, fence %s, chains %s\n",
        static_cast<unsigned long long>(storm->denied_rows),
        static_cast<unsigned long long>(storm->denied),
        rows_match ? " (one row per admitted attempt)"
                   : "  [ROW/ATTEMPT MISMATCH]",
        static_cast<unsigned long long>(storm->requests_shed()),
        storm->revocation_fenced ? "HELD" : "BROKEN",
        storm->all_verified ? "verified" : "BROKEN");
    ok = ok && rows_match && shed && storm->revocation_fenced &&
         storm->all_verified && storm->denied > 0;
  }

  std::string out =
      argc > 1 ? std::string(argv[1]) : std::string("BENCH_overload.json");
  WriteJson(out, cells);
  return ok ? 0 : 1;
}
