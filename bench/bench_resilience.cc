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

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/rpc/rpc.h"

namespace keypad {
namespace {

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

RpcOptions MakeRpcOptions(bool retries) {
  RpcOptions rpc;
  rpc.timeout = SimDuration::Seconds(2);
  if (!retries) {
    // Pure single-attempt baseline: no retry ladder, and no breaker either
    // (otherwise it opens after a timeout streak and the cell measures
    // instant rejections instead of wire loss).
    rpc.retry.max_attempts = 1;
    rpc.breaker.enabled = false;
  }
  return rpc;
}

DeploymentOptions MakeDeployment(bool retries) {
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  options.seed = 42;
  options.rpc = MakeRpcOptions(retries);
  return options;
}

void Percentiles(std::vector<double>& latencies_ms, CellResult* cell) {
  if (latencies_ms.empty()) return;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  cell->p50_ms = bench::SortedQuantile(latencies_ms, 0.50);
  cell->p99_ms = bench::SortedQuantile(latencies_ms, 0.99);
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

  std::vector<double> latencies_ms;
  SimTime start = dep.queue().Now();
  for (int i = 0; i < ops; ++i) {
    SimTime t0 = dep.queue().Now();
    if (dep.fs().Create("/loss" + std::to_string(i)).ok()) {
      ++cell.succeeded;
    }
    latencies_ms.push_back((dep.queue().Now() - t0).seconds_f() * 1000);
  }
  cell.elapsed_s = (dep.queue().Now() - start).seconds_f();
  Percentiles(latencies_ms, &cell);
  cell.calls = dep.key_rpc().calls_started() + dep.meta_rpc().calls_started();
  cell.attempts =
      dep.key_rpc().attempts_started() + dep.meta_rpc().attempts_started();
  cell.failed_fast =
      dep.key_rpc().calls_failed_fast() + dep.meta_rpc().calls_failed_fast();
  cell.rejected =
      dep.key_rpc().calls_rejected() + dep.meta_rpc().calls_rejected();
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
  dep.ScheduleKeyServiceCrash(t0 + SimDuration::Seconds(70),
                              SimDuration::Seconds(15));

  CellResult cell;
  cell.scenario = "outage_schedule";
  cell.retries = retries;
  cell.ops = ops;

  std::vector<double> latencies_ms;
  for (int i = 0; i < ops; ++i) {
    SimTime issue = t0 + SimDuration::Seconds(i);
    if (dep.queue().Now() < issue) {
      dep.queue().AdvanceBy(issue - dep.queue().Now());
    }
    SimTime op_start = dep.queue().Now();
    if (dep.fs().Create("/out" + std::to_string(i)).ok()) {
      ++cell.succeeded;
    }
    latencies_ms.push_back((dep.queue().Now() - op_start).seconds_f() * 1000);
  }
  cell.elapsed_s = (dep.queue().Now() - t0).seconds_f();
  Percentiles(latencies_ms, &cell);
  cell.calls = dep.key_rpc().calls_started() + dep.meta_rpc().calls_started();
  cell.attempts =
      dep.key_rpc().attempts_started() + dep.meta_rpc().attempts_started();
  cell.failed_fast =
      dep.key_rpc().calls_failed_fast() + dep.meta_rpc().calls_failed_fast();
  cell.rejected =
      dep.key_rpc().calls_rejected() + dep.meta_rpc().calls_rejected();
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
      static_cast<unsigned long long>(c.attempts),
      static_cast<unsigned long long>(c.calls),
      static_cast<unsigned long long>(c.failed_fast),
      static_cast<unsigned long long>(c.rejected));
}

void WriteJson(const std::string& path, const std::vector<CellResult>& cells) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"resilience\",\n  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"loss\": %.2f, \"retries\": %s, "
        "\"ops\": %d, \"succeeded\": %d, \"success_rate\": %.4f, "
        "\"goodput_ops_per_s\": %.4f, \"p50_ms\": %.2f, \"p99_ms\": %.2f, "
        "\"rpc_calls\": %llu, \"rpc_attempts\": %llu, "
        "\"failed_fast\": %llu, \"breaker_rejected\": %llu}%s\n",
        c.scenario.c_str(), c.loss, c.retries ? "true" : "false", c.ops,
        c.succeeded, c.success_rate(), c.goodput(), c.p50_ms, c.p99_ms,
        static_cast<unsigned long long>(c.calls),
        static_cast<unsigned long long>(c.attempts),
        static_cast<unsigned long long>(c.failed_fast),
        static_cast<unsigned long long>(c.rejected),
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
  // single-attempt baseline at 30% loss).
  const CellResult* off30 = nullptr;
  const CellResult* on30 = nullptr;
  for (const CellResult& c : cells) {
    if (c.scenario == "loss_sweep" && c.loss == 0.3) {
      (c.retries ? on30 : off30) = &c;
    }
  }
  if (off30 != nullptr && on30 != nullptr) {
    std::printf(
        "\n30%% loss: retries lift create success %.1f%% -> %.1f%% "
        "(%.2fx goodput)\n",
        off30->success_rate() * 100, on30->success_rate() * 100,
        off30->goodput() > 0 ? on30->goodput() / off30->goodput() : 0.0);
  }

  std::string out =
      argc > 1 ? std::string(argv[1]) : std::string("BENCH_resilience.json");
  WriteJson(out, cells);
  return 0;
}
