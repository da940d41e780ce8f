// Resilience bench (DESIGN.md §7): goodput and op-latency tails for the
// retry/at-most-once RPC stack under injected faults.
//
// Two scenario groups, every cell run with retries on (default RpcOptions
// ladder) and off (max_attempts = 1):
//  * loss sweep — i.i.d. wire loss at {0%, 10%, 30%}, file creates issued
//    back-to-back. Each create is a two-RPC durability barrier (key.create
//    + meta.bind), so per-op success compounds the per-call success rate.
//  * outage schedule — burst loss plus a known link outage (fail-fast
//    window) and a key-service crash/restart (timeout + circuit-breaker
//    window), with ops paced once per second across the schedule.
//
// Emits BENCH_resilience.json (path = argv[1], default ./) alongside the
// printed table; run_benches.sh collects it next to BENCH_crypto.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/rpc/rpc.h"

namespace keypad {
namespace {

using bench::Llu;

struct CellResult {
  std::string scenario;
  double loss = 0;
  bool retries = false;
  int ops = 0;
  int succeeded = 0;
  double elapsed_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t attempts = 0;
  uint64_t calls = 0;
  uint64_t failed_fast = 0;
  uint64_t rejected = 0;

  double success_rate() const {
    return ops == 0 ? 0 : static_cast<double>(succeeded) / ops;
  }
  double goodput() const {
    return elapsed_s == 0 ? 0 : succeeded / elapsed_s;
  }
};

DeploymentOptions MakeDeployment(bool retries) {
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  options.seed = 42;
  options.rpc.timeout = SimDuration::Seconds(2);
  if (!retries) {
    // Pure single-attempt baseline: no retry ladder, and no breaker either
    // (otherwise it opens after a timeout streak and the cell measures
    // instant rejections instead of wire loss).
    options.rpc.retry.max_attempts = 1;
    options.rpc.breaker.enabled = false;
  }
  return options;
}

// Issues the cell's creates as `prefix`<i>, the i-th no earlier than
// pace * i after the first (back to back when pace is zero), then closes
// the cell: elapsed time, latency tail, and the laptop's RPC counters over
// both tiers.
void RunCreates(Deployment& dep, const std::string& prefix, SimDuration pace,
                CellResult* cell) {
  std::vector<double> latencies_ms;
  SimTime t0 = dep.queue().Now();
  for (int i = 0; i < cell->ops; ++i) {
    SimTime issue = t0 + pace * i;
    if (dep.queue().Now() < issue) {
      dep.queue().AdvanceBy(issue - dep.queue().Now());
    }
    SimTime op_start = dep.queue().Now();
    if (dep.fs().Create(prefix + std::to_string(i)).ok()) {
      ++cell->succeeded;
    }
    latencies_ms.push_back((dep.queue().Now() - op_start).seconds_f() * 1000);
  }
  cell->elapsed_s = (dep.queue().Now() - t0).seconds_f();
  bench::FillTail(latencies_ms, &cell->p50_ms, &cell->p99_ms);
  RpcClient& key = dep.key_rpc();
  RpcClient& meta = dep.meta_rpc();
  cell->calls = key.calls_started() + meta.calls_started();
  cell->attempts = key.attempts_started() + meta.attempts_started();
  cell->failed_fast = key.calls_failed_fast() + meta.calls_failed_fast();
  cell->rejected = key.calls_rejected() + meta.calls_rejected();
}

// Loss sweep: back-to-back creates under i.i.d. wire loss, so elapsed
// virtual time is exactly the sum of op latencies (timeouts and backoffs
// included) and goodput reflects both stalls and failures.
CellResult RunLossCell(double loss, bool retries, int ops) {
  ResetRpcClientIdsForTesting();
  Deployment dep(MakeDeployment(retries));
  dep.client_link().set_drop_probability(loss);

  CellResult cell;
  cell.scenario = "loss_sweep";
  cell.loss = loss;
  cell.retries = retries;
  cell.ops = ops;
  RunCreates(dep, "/loss", SimDuration(), &cell);
  dep.client_link().set_drop_probability(0);
  dep.queue().RunUntilIdle();
  return cell;
}

// Outage schedule: ops paced 1/s across 120 s containing a 10 s known link
// outage (Send fails locally -> fail-fast) and a 15 s key-service crash
// (requests swallowed -> per-attempt timeouts until the breaker opens).
// Burst loss runs throughout.
CellResult RunOutageCell(bool retries, int ops) {
  ResetRpcClientIdsForTesting();
  Deployment dep(MakeDeployment(retries));

  LinkChaosOptions chaos;
  chaos.burst_loss = true;
  chaos.p_enter_bad = 0.02;
  chaos.p_exit_bad = 0.20;
  chaos.loss_bad = 0.5;
  dep.client_link().set_chaos(chaos);

  SimTime t0 = dep.queue().Now();
  dep.client_link().ScheduleOutage(t0 + SimDuration::Seconds(30),
                                   SimDuration::Seconds(10));
  dep.Schedule(t0 + SimDuration::Seconds(70), Fault::Key(Fault::kCrash, 0));
  dep.Schedule(t0 + SimDuration::Seconds(85), Fault::Key(Fault::kRestart, 0));

  CellResult cell;
  cell.scenario = "outage_schedule";
  cell.retries = retries;
  cell.ops = ops;
  RunCreates(dep, "/out", SimDuration::Seconds(1), &cell);
  dep.client_link().set_chaos(LinkChaosOptions{});
  dep.queue().RunUntilIdle();
  return cell;
}

void PrintCell(const CellResult& c) {
  std::printf(
      "%-15s loss=%4.0f%%  retries=%-3s  %3d/%3d ok (%5.1f%%)  "
      "goodput=%6.2f op/s  p50=%7.1f ms  p99=%8.1f ms  "
      "attempts/calls=%llu/%llu  fast-fail=%llu  breaker-rejected=%llu\n",
      c.scenario.c_str(), c.loss * 100, c.retries ? "on" : "off", c.succeeded,
      c.ops, c.success_rate() * 100, c.goodput(), c.p50_ms, c.p99_ms,
      Llu(c.attempts), Llu(c.calls), Llu(c.failed_fast), Llu(c.rejected));
}

bench::JsonRow CellJson(const CellResult& c) {
  return bench::JsonRow()
      .Str("scenario", c.scenario).Num("loss", c.loss, 2)
      .Bool("retries", c.retries).Int("ops", c.ops)
      .Int("succeeded", c.succeeded).Num("success_rate", c.success_rate(), 4)
      .Num("goodput_ops_per_s", c.goodput(), 4)
      .Num("p50_ms", c.p50_ms, 2).Num("p99_ms", c.p99_ms, 2)
      .Int("rpc_calls", c.calls).Int("rpc_attempts", c.attempts)
      .Int("failed_fast", c.failed_fast).Int("breaker_rejected", c.rejected);
}

}  // namespace
}  // namespace keypad

int main(int argc, char** argv) {
  using namespace keypad;
  using namespace keypad::bench;
  PrintHeader("§7 resilience: goodput and latency tails under faults");

  const int loss_ops = FastMode() ? 60 : 200;
  const int outage_ops = 120;  // One per second across the fault schedule.
  std::vector<CellResult> cells;
  for (double loss : {0.0, 0.1, 0.3}) {
    for (bool retries : {false, true}) {
      cells.push_back(RunLossCell(loss, retries, loss_ops));
      PrintCell(cells.back());
    }
  }
  for (bool retries : {false, true}) {
    cells.push_back(RunOutageCell(retries, outage_ops));
    PrintCell(cells.back());
  }

  // Headline comparison (acceptance: retries must measurably beat the
  // single-attempt baseline at 30% loss). The gate is the create success
  // rate: goodput also pays the retries' waiting, so its ratio can sit
  // near 1x even when retries rescue most of the lost creates.
  auto at30 = [](bool retries) {
    return [retries](const CellResult& c) {
      return c.loss == 0.3 && c.retries == retries;
    };
  };
  const CellResult* off30 = FindCell(cells, "loss_sweep", at30(false));
  const CellResult* on30 = FindCell(cells, "loss_sweep", at30(true));
  bool ok = off30 != nullptr && on30 != nullptr &&
            on30->success_rate() > off30->success_rate();
  if (off30 != nullptr && on30 != nullptr) {
    std::printf(
        "\n30%% loss: retries lift create success %.1f%% -> %.1f%% "
        "(%.2fx goodput)%s\n",
        off30->success_rate() * 100, on30->success_rate() * 100,
        off30->goodput() > 0 ? on30->goodput() / off30->goodput() : 0.0,
        ok ? "" : "  [NO RETRY WIN]");
  }

  if (!WriteBenchJson(
          JsonDoc("resilience").Rows("cells", ToRows(cells, CellJson)), argc,
          argv)) {
    return 1;
  }
  return ok ? 0 : 1;
}
