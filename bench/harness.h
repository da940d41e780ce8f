// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints a self-contained table: the parameters swept,
// the measured (virtual-time) result, and — where the paper reports a
// number — the paper's value alongside for comparison. Absolute agreement
// is not the goal (see DESIGN.md); shape is.

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/keyservice/key_service.h"
#include "src/net/link.h"
#include "src/nfs/nfs.h"
#include "src/workload/apache.h"
#include "src/workload/trace.h"

namespace keypad {
namespace bench {

// KEYPAD_BENCH_FAST=1 shrinks sweep workloads (~5x) for quick iteration.
inline bool FastMode() {
  const char* env = std::getenv("KEYPAD_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

inline ApacheParams CompileParams() {
  ApacheParams params;
  if (FastMode()) {
    params.modules = 5;
    params.total_compute = params.total_compute / 5;
  }
  return params;
}

// Scales a paper-reported compile anchor in fast mode so comparisons stay
// meaningful.
inline double ScaleAnchor(double seconds) {
  return FastMode() ? seconds / 5 : seconds;
}

struct CompileRun {
  double seconds = 0;
  KeypadFs::Stats stats;
  uint64_t cache_hits = 0;
};

// Runs the Apache compile on a Keypad deployment: setup, drain caches,
// reset stats, measure.
inline CompileRun RunKeypadCompile(DeploymentOptions options,
                                   bool drain_with_phone_hoard = false) {
  if (options.ibe_group == nullptr) {
    options.ibe_group = &BenchPairingParams();
  }
  Deployment dep(options);
  ApacheWorkload workload = MakeApacheWorkload(CompileParams(), options.seed);
  TraceRunner runner(&dep.fs(), &dep.queue());
  TraceRunResult setup = runner.Run(workload.setup);
  if (setup.failures != 0) {
    std::fprintf(stderr, "compile setup failed: %s\n",
                 setup.first_failure.ToString().c_str());
    std::abort();
  }
  // Drain the laptop's key cache (two periods: refresh, then erase). The
  // phone's hoard (if any) survives unless asked otherwise.
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));
  if (dep.phone() != nullptr && !drain_with_phone_hoard) {
    // Cold phone too: hoards are long-lived, so for pure cold-cache runs
    // advance past the hoard TTL as well.
    dep.queue().AdvanceBy(options.phone_options.hoard_ttl * 2);
  }
  dep.fs().ResetStats();

  TraceRunResult result = runner.Run(workload.compile);
  if (result.failures != 0) {
    std::fprintf(stderr, "compile failed (%zu): %s\n", result.failures,
                 result.first_failure.ToString().c_str());
    std::abort();
  }
  CompileRun run;
  run.seconds = result.elapsed.seconds_f();
  run.stats = dep.fs().stats();
  run.cache_hits = dep.fs().key_cache().hits();
  return run;
}

// Runs the compile on a local FS baseline ("ext3" or EncFS).
inline double RunLocalCompile(bool encrypt) {
  EventQueue queue;
  BlockDevice device;
  EncFs::Options options;
  options.encrypt = encrypt;
  options.costs = encrypt ? FsCostModel::EncFs() : FsCostModel::Ext3();
  auto fs = EncFs::Format(&device, &queue, /*rng_seed=*/1, "pw", options);
  ApacheWorkload workload = MakeApacheWorkload(CompileParams(), 42);
  TraceRunner runner(fs->get(), &queue);
  runner.Run(workload.setup);
  TraceRunResult result = runner.Run(workload.compile);
  return result.elapsed.seconds_f();
}

// Runs the compile over the NFS baseline at the given network profile.
inline double RunNfsCompile(NetworkProfile profile) {
  EventQueue queue;
  NetworkLink link(&queue, profile);
  RpcServer rpc_server(&queue, SimDuration::Micros(150));
  NfsServer server(&queue, /*rng_seed=*/1);
  server.BindRpc(&rpc_server);
  RpcClient rpc(&queue, &link, &rpc_server);
  // Leaner marshalling than Keypad's XML-RPC-heavy key protocol.
  rpc.options().client_overhead = SimDuration::Micros(120);
  NfsClient client(&queue, &rpc, {});

  ApacheWorkload workload = MakeApacheWorkload(CompileParams(), 42);
  TraceRunner runner(&client, &queue);
  runner.Run(workload.setup);
  client.FlushAll().ok();
  TraceRunResult result = runner.Run(workload.compile);
  return result.elapsed.seconds_f();
}

// The q-quantile of an ascending-sorted, non-empty sample, by the
// truncated rank q * (n - 1) every latency column here reports.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  return sorted[static_cast<size_t>(q * (sorted.size() - 1))];
}

// Grant-typed ops must never follow a device's kRevoke row in any shard's
// log: once the revocation is durably recorded, the only rows the revoked
// device can earn are kDenied (and further kRevoke). This is the log-order
// fence the forensic report relies on.
inline bool RevocationFenceHolds(
    const std::vector<std::unique_ptr<KeyService>>& shards,
    const std::string& device_name) {
  for (const auto& shard : shards) {
    bool revoked = false;
    for (const auto& entry : shard->log().entries()) {
      if (entry.device_id != device_name) {
        continue;
      }
      if (entry.op == AccessOp::kRevoke) {
        revoked = true;
        continue;
      }
      if (revoked && entry.op != AccessOp::kDenied) {
        return false;
      }
    }
  }
  return true;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
  if (FastMode()) {
    std::printf("(KEYPAD_BENCH_FAST=1: workload scaled down ~5x)\n");
  }
}

}  // namespace bench
}  // namespace keypad

#endif  // BENCH_HARNESS_H_
