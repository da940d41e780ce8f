// Overload-robustness bench (DESIGN.md §14): the 4-shard key tier driven
// past saturation, with and without the overload machinery.
//
// Fixture: the key-tier rig (bench/harness.h) with bench_scale's cost model
// and 4 shards. Keys stay hot-resident from provisioning, so the cells
// measure the serving path at its dispatch-bound capacity, not the unwrap
// warmup. Routing is one RPC per fetch (no batching, no coalescing) so
// every demand open is exactly one wire request — the accounting the
// revocation cell's row-per-attempt gate needs.
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

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace keypad {
namespace {

using bench::Llu;
using Load = KeyService::LoadStats;

// The rig's parameters plus the cell's own knobs.
struct CellConfig : bench::KeyTierRigOptions {
  std::string scenario;
  bool protections = true;  // admission + retry budget + brownout
  // > 0: open-loop Poisson arrivals at this aggregate rate; 0: closed loop
  // at pipeline_depth per device.
  double paced_ops_per_s = 0;
  bool revoke_device0 = false;
  int pipeline_depth = 64;
};

// `failed` counts what is neither REJECTED nor denied (timeouts, breaker).
struct CellResult : CellConfig, bench::KeyTierCell {
  uint64_t rejected = 0;  // Client-observed REJECTED faults.
  uint64_t denied = 0;    // Client-observed kPermissionDenied (revoked).
  // Client-side §14 counters, summed over devices.
  uint64_t retries_budget_denied = 0;
  uint64_t budget_rejects_observed = 0;
  uint64_t brownout_signals = 0;
  uint64_t brownout_activations = 0;
  // Revocation-storm audit accounting.
  uint64_t denied_rows = 0;  // kDenied rows for the revoked device.
};

CellResult RunCell(const CellConfig& config) {
  bench::KeyTierRigOptions options = config;
  options.admission->enabled = config.protections;
  options.rpc.retry_budget.enabled = config.protections;
  options.brownout->enabled = config.protections;
  bench::KeyTierRig rig(options);
  EventQueue& queue = rig.queue;

  CellResult cell;
  static_cast<CellConfig&>(cell) = config;
  std::vector<double> latencies_ms;

  auto pick = [](bench::KeyTierRig::Device& device) -> const AuditId& {
    return device.ids[device.rng->UniformU64(device.ids.size())];
  };
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
    rig.DrivePoisson(1e6 / (config.paced_ops_per_s / config.devices), pick,
                     record);
  } else {
    // Closed loop at a deep pipeline: the capacity measurement.
    rig.DriveClosedLoop(config.pipeline_depth, pick, record);
  }

  if (config.revoke_device0) {
    // Revoke device 0 a quarter in: its in-flight grants land before the
    // kRevoke row; afterwards every admitted attempt is a denied row and
    // every shed attempt is nothing at all.
    rig.RevokeAt(rig.start + config.duration / 4, 0);
  }

  queue.RunUntilIdle();
  cell.elapsed_s = config.duration.seconds_f();

  bench::FillTail(latencies_ms, &cell.p50_ms, &cell.p99_ms);
  cell.loads = rig.Results();
  for (auto& device : rig.devices) {
    for (auto& client : device->rpcs) {
      cell.retries_budget_denied += client->retries_budget_denied();
      cell.budget_rejects_observed +=
          client->retry_budget().rejects_observed();
    }
    cell.brownout_signals += device->brownout->stats().signals;
    cell.brownout_activations += device->brownout->stats().activations;
  }
  if (config.revoke_device0) {
    bench::KeyTierRig::Trail trail = rig.TrailOf(0);
    cell.denied_rows = trail.denied_rows;
    cell.revocation_fenced = trail.fenced;
  }
  return cell;
}

void PrintCell(const CellResult& c) {
  std::printf(
      "%-18s %s  %7llu ok / %6llu rej / %5llu den / %4llu err  "
      "goodput=%8.0f op/s  p50=%6.2f ms  p99=%7.2f ms  "
      "shed=%llu  expired=%llu  q-hw=%llu  budget-denied=%llu  "
      "brownout=%llu/%llu%s%s\n",
      c.scenario.c_str(), c.protections ? "on " : "off", Llu(c.completed),
      Llu(c.rejected), Llu(c.denied), Llu(c.failed), c.goodput(), c.p50_ms,
      c.p99_ms, Llu(c.loads.shed()), Llu(c.loads.sum(&Load::deadline_expired)),
      Llu(c.loads.max(&Load::queue_depth_high_water)),
      Llu(c.retries_budget_denied), Llu(c.brownout_activations),
      Llu(c.brownout_signals),
      c.revoke_device0 ? (c.revocation_fenced ? "  [revocation fenced]"
                                              : "  [REVOCATION FENCE BROKEN]")
                       : "",
      c.loads.all_verified() ? "" : "  [CHAIN BROKEN]");
}

bench::JsonRow CellJson(const CellResult& c) {
  return bench::JsonRow()
      .Str("scenario", c.scenario).Bool("protections", c.protections)
      .Int("devices", c.devices).Num("offered_ops_per_s", c.paced_ops_per_s, 1)
      .Int("completed", c.completed).Int("rejected", c.rejected)
      .Int("denied", c.denied).Int("failed", c.failed)
      .Num("goodput_ops_per_s", c.goodput(), 1)
      .Num("p50_ms", c.p50_ms, 3).Num("p99_ms", c.p99_ms, 3)
      .Int("shed_demand", c.loads.sum(&Load::shed_demand))
      .Int("shed_prefetch", c.loads.sum(&Load::shed_prefetch))
      .Int("shed_background", c.loads.sum(&Load::shed_background))
      .Int("requests_shed", c.loads.shed())
      .Int("deadline_expired", c.loads.sum(&Load::deadline_expired))
      .Int("overload_events", c.loads.sum(&Load::overload_events))
      .Int("queue_depth_high_water",
           c.loads.max(&Load::queue_depth_high_water))
      .Int("retries_budget_denied", c.retries_budget_denied)
      .Int("budget_rejects_observed", c.budget_rejects_observed)
      .Int("brownout_signals", c.brownout_signals)
      .Int("brownout_activations", c.brownout_activations)
      .Int("denied_rows", c.denied_rows)
      .Bool("revoked_device", c.revoke_device0)
      .Bool("revocation_fenced", c.revocation_fenced)
      .Bool("all_verified", c.loads.all_verified());
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
  base.shard_seed = 0x7100;
  base.link_seed = 0x5100;
  base.pick_seed = 0x6100;
  base.id_seed = 0xF00D;
  // Admission tuned so the demand shed point (target * demand_slack =
  // 10 ms expected sojourn) sits well inside the client's 25 ms
  // per-attempt timeout: everything the server admits, the client is
  // still around to receive.
  base.admission = AdmissionOptions{};
  base.admission->target_sojourn = SimDuration::Millis(1);
  base.admission->overload_interval = SimDuration::Millis(10);
  // LAN retry ladder sized for the overload story: 25 ms attempts under a
  // 100 ms call deadline with fast backoff, so the OFF cell's retries
  // actually land inside the run instead of after it — and its backlog
  // goes stale (served after the ladder gave up) within the cell.
  base.rpc.client_overhead = SimDuration();
  base.rpc.timeout = SimDuration::Millis(25);
  base.rpc.total_deadline = SimDuration::Millis(100);
  base.rpc.retry.initial_backoff = SimDuration::Millis(2);
  base.rpc.retry.max_backoff = SimDuration::Millis(20);
  base.router.single_flight = false;
  base.router.batch_fetch = false;
  base.brownout = BrownoutOptions{};

  std::vector<CellResult> cells;
  // Runs one cell: the base config as `scenario`, changed by `tweak`.
  auto run = [&](const char* scenario, auto tweak) {
    CellConfig config = base;
    config.scenario = scenario;
    tweak(config);
    cells.push_back(RunCell(config));
    PrintCell(cells.back());
  };

  // Capacity: closed loop, full stack on. The deep pipeline occasionally
  // grazes the demand shed point (a few % REJECTED at saturation is the
  // bound working, not overload), so peak goodput is the admitted-work
  // capacity the overload cells are measured against.
  run("peak", [](CellConfig&) {});
  const double peak = cells.back().goodput();
  // 2x the measured capacity, stack on vs. off.
  for (bool on : {true, false}) {
    run(on ? "overload_2x_on" : "overload_2x_off", [&](CellConfig& c) {
      c.protections = on;
      c.paced_ops_per_s = 2.0 * peak;
    });
  }
  // Revocation storm under the same 2x overload, stack on.
  run("revocation_storm", [&](CellConfig& c) {
    c.paced_ops_per_s = 2.0 * peak;
    c.revoke_device0 = true;
  });

  const CellResult* on_2x = FindCell(cells, "overload_2x_on");
  const CellResult* off_2x = FindCell(cells, "overload_2x_off");
  const CellResult* storm = FindCell(cells, "revocation_storm");

  bool ok = true;
  if (on_2x != nullptr && peak > 0) {
    double frac = on_2x->goodput() / peak;
    bool shed = on_2x->loads.shed() > 0;
    bool p99_ok = on_2x->p99_ms <= 25.0;
    std::printf(
        "\n2x with stack on: %.0f%% of peak goodput (%.0f / %.0f op/s), "
        "p99 %.2f ms, %llu shed%s%s%s\n",
        frac * 100, on_2x->goodput(), peak, on_2x->p99_ms,
        Llu(on_2x->loads.shed()), frac >= 0.70 ? "" : "  [BELOW 70% TARGET]",
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
        Llu(off_2x->loads.max(&Load::queue_depth_high_water)),
        frac < 0.40 ? "  [collapse, as expected]"
                    : "  [OFF BASELINE DID NOT COLLAPSE]");
    ok = ok && frac < 0.40;
  }
  if (storm != nullptr) {
    bool rows_match = storm->denied_rows == storm->denied;
    bool shed = storm->loads.shed() > 0;
    std::printf(
        "revocation storm: %llu denied rows for %llu observed denials%s, "
        "%llu shed, fence %s, chains %s\n",
        Llu(storm->denied_rows), Llu(storm->denied),
        rows_match ? " (one row per admitted attempt)"
                   : "  [ROW/ATTEMPT MISMATCH]",
        Llu(storm->loads.shed()), storm->revocation_fenced ? "HELD" : "BROKEN",
        storm->loads.all_verified() ? "verified" : "BROKEN");
    ok = ok && rows_match && shed && storm->revocation_fenced &&
         storm->loads.all_verified() && storm->denied > 0;
  }

  if (!WriteBenchJson(
          JsonDoc("overload").Rows("cells", ToRows(cells, CellJson)), argc,
          argv)) {
    return 1;
  }
  return ok ? 0 : 1;
}
