// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints a self-contained table: the parameters swept,
// the measured (virtual-time) result, and — where the paper reports a
// number — the paper's value alongside for comparison. Absolute agreement
// is not the goal (see DESIGN.md); shape is. The JSON benches share one
// writer (bench/json.h), one invariant gate, one cell lookup and — for the
// key-tier benches — one rig with its two load drivers (DESIGN.md §24).

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/json.h"
#include "src/keypad/deployment.h"
#include "src/keyservice/key_service.h"
#include "src/keyservice/shard_router.h"
#include "src/net/link.h"
#include "src/net/profile.h"
#include "src/nfs/nfs.h"
#include "src/rpc/brownout.h"
#include "src/rpc/rpc.h"
#include "src/sim/random.h"
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

// A deployment on `profile` with the paper's defaults (KeypadConfig: 100 s
// expiry, 3rd-miss directory prefetch, IBE on) over the 192-bit bench
// pairing group (DESIGN.md §16).
inline DeploymentOptions BenchDeployment(const NetworkProfile& profile) {
  DeploymentOptions options;
  options.profile = profile;
  options.ibe_group = &BenchPairingParams();
  return options;
}

// Runs a trace the bench depends on; any failed op is a harness bug.
inline TraceRunResult RunOrDie(TraceRunner& runner, const Trace& trace,
                               const std::string& what) {
  TraceRunResult result = runner.Run(trace);
  if (result.failures != 0) {
    std::fprintf(stderr, "%s failed (%zu): %s\n", what.c_str(),
                 result.failures, result.first_failure.ToString().c_str());
    std::abort();
  }
  return result;
}

// Runs the Apache compile on a Keypad deployment: setup, drain caches,
// reset stats, measure. Returns the compile's virtual seconds.
inline double RunKeypadCompile(const DeploymentOptions& options) {
  Deployment dep(options);
  ApacheWorkload workload = MakeApacheWorkload(CompileParams(), options.seed);
  TraceRunner runner(&dep.fs(), &dep.queue());
  RunOrDie(runner, workload.setup, "compile setup");
  // Drain the laptop's key cache (two periods: refresh, then erase).
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));
  if (dep.phone() != nullptr) {
    // Cold phone too: hoards are long-lived, so for pure cold-cache runs
    // advance past the hoard TTL as well.
    dep.queue().AdvanceBy(PhoneProxy::kHoardTtl * 2);
  }
  dep.fs().ResetStats();
  return RunOrDie(runner, workload.compile, "compile").elapsed.seconds_f();
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
  return runner.Run(workload.compile).elapsed.seconds_f();
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
  NfsClient client(&queue, &rpc);

  ApacheWorkload workload = MakeApacheWorkload(CompileParams(), 42);
  TraceRunner runner(&client, &queue);
  runner.Run(workload.setup);
  client.FlushAll().ok();
  return runner.Run(workload.compile).elapsed.seconds_f();
}

// printf's %llu takes an unsigned long long, which uint64_t need not be.
inline unsigned long long Llu(uint64_t n) { return n; }

// The q-quantile of an ascending-sorted, non-empty sample, by the
// truncated rank q * (n - 1) every latency column here reports.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  return sorted[static_cast<size_t>(q * (sorted.size() - 1))];
}

// Sorts a latency sample and fills its p50/p99 columns (left alone when
// the sample is empty).
inline void FillTail(std::vector<double>& ms, double* p50, double* p99) {
  if (ms.empty()) return;
  std::sort(ms.begin(), ms.end());
  *p50 = SortedQuantile(ms, 0.50);
  *p99 = SortedQuantile(ms, 0.99);
}

// Invariant gate for the benches that check many conditions: each miss is
// named on stderr and the bench exits non-zero at the end.
inline bool g_invariant_ok = true;

inline void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT FAILED: %s\n", what);
    g_invariant_ok = false;
  }
}

// The exit status of a bench gated by Require.
inline int InvariantExit(const char* bench) {
  if (g_invariant_ok) return 0;
  std::fprintf(stderr, "%s bench: invariant failures\n", bench);
  return 1;
}

// Writes the bench's JSON to argv[1] (default ./BENCH_<bench>.json) and
// names the file on stdout after `lead`; false when the write fails.
inline bool WriteBenchJson(const JsonDoc& doc, int argc, char** argv,
                           const char* lead = "") {
  std::string path = argc > 1 ? argv[1] : "BENCH_" + doc.bench() + ".json";
  if (!doc.Write(path)) return false;
  std::printf("%swrote %s\n", lead, path.c_str());
  return true;
}

inline double WallSeconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The n-th id of a family (`family` tells families apart).
template <typename Id>
Id NthId(size_t n, uint8_t family) {
  Id id;
  id.v[0] = static_cast<uint8_t>(n);
  id.v[1] = static_cast<uint8_t>(n >> 8);
  id.v[2] = static_cast<uint8_t>(n >> 16);
  id.v[3] = family;
  return id;
}

struct AnyCell {
  template <typename Cell>
  bool operator()(const Cell&) const { return true; }
};

// The first cell of `scenario` that also satisfies `also`, or null.
template <typename Cell, typename Pred = AnyCell>
const Cell* FindCell(const std::vector<Cell>& cells,
                     const std::string& scenario, Pred also = {}) {
  for (const Cell& c : cells) {
    if (c.scenario == scenario && also(c)) {
      return &c;
    }
  }
  return nullptr;
}

// --- The key-tier rig (bench_scale, bench_overload). ------------------------

// One shard's end-of-cell state: its load counters (the bound server's
// shed and queue counters are folded in), requests served, chain health.
struct ShardResult {
  KeyService::LoadStats load;
  uint64_t requests_handled = 0;
  bool verified = false;
};

// Tier-wide views of the per-shard results.
struct TierResult {
  using Field = uint64_t KeyService::LoadStats::*;
  std::vector<ShardResult> shards;

  uint64_t sum(Field field) const {
    uint64_t n = 0;
    for (const ShardResult& s : shards) n += s.load.*field;
    return n;
  }
  uint64_t max(Field field) const {
    uint64_t n = 0;
    for (const ShardResult& s : shards) n = std::max(n, s.load.*field);
    return n;
  }
  uint64_t shed() const {
    return sum(&KeyService::LoadStats::shed_demand) +
           sum(&KeyService::LoadStats::shed_prefetch) +
           sum(&KeyService::LoadStats::shed_background);
  }
  bool all_verified() const {
    return std::all_of(shards.begin(), shards.end(),
                       [](const ShardResult& s) { return s.verified; });
  }
};

// What every key-tier cell measures.
struct KeyTierCell {
  uint64_t completed = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  TierResult loads;
  bool revocation_fenced = true;

  double goodput() const {
    return elapsed_s == 0 ? 0 : completed / elapsed_s;
  }
};

// The rig's parameters are exactly what the two key-tier benches set
// differently; the cost model is shared: 30 us dispatch per RPC, 120 us
// unwrap per cold key, a 40 us + 2 us/entry seal billed to the shard's
// busy clock.
struct KeyTierRigOptions {
  int shards = 4;
  int devices = 8;
  // Shard s is seeded shard_seed + s; device d's link and pick stream are
  // link_seed + d and pick_seed + d; every id comes from one id_seed stream.
  uint64_t shard_seed = 0;
  uint64_t link_seed = 0;
  uint64_t pick_seed = 0;
  uint64_t id_seed = 0;
  bool group_commit = true;  // A 400 us commit window on every shard.
  bool hot_key_cache = true;
  // Unset leaves each server's default admission.
  std::optional<AdmissionOptions> admission;
  RpcOptions rpc;
  ShardRouter::Options router;
  // Set: every device's router gets its own brownout controller.
  std::optional<BrownoutOptions> brownout;
  // The drivers stop issuing this long after the rig is built.
  SimDuration duration = SimDuration::Seconds(1);
};

// K key-service shards behind their own RpcServers and M devices, each
// with its own LAN link, registered on every shard under shard 0's secret,
// with one RpcClient and stub per shard behind a ShardRouter, its own pick
// stream, and 64 keys provisioned in process.
//
// Construction order is load-bearing: RpcClient ids are process-global
// and seed the retry jitter, so the rig restarts them and builds every
// client in the order the benches always have.
class KeyTierRig {
 public:
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
  // Picks the next id a device fetches (may draw from device.rng).
  using Pick = std::function<const AuditId&(Device& device)>;
  // Sees every fetch's outcome with the virtual time it was issued at.
  using Done = std::function<void(SimTime issued, Result<Bytes> key)>;

  // Queued callbacks hold the rig's address.
  KeyTierRig(const KeyTierRig&) = delete;
  KeyTierRig& operator=(const KeyTierRig&) = delete;

  explicit KeyTierRig(const KeyTierRigOptions& options) {
    ResetRpcClientIdsForTesting();
    KeyServiceOptions service;
    if (options.group_commit) {
      service.commit_window = SimDuration::Micros(400);
    }
    // Seal CPU is the durable append (chain hash + log fsync) the paper's
    // service performs before a key leaves (§3.1).
    service.seal_cost_fixed = SimDuration::Micros(40);
    service.seal_cost_per_entry = SimDuration::Micros(2);
    service.unwrap_cost = SimDuration::Micros(120);
    service.hot_key_cache = options.hot_key_cache;
    for (int s = 0; s < options.shards; ++s) {
      shards.push_back(std::make_unique<KeyService>(
          &queue, options.shard_seed + static_cast<uint64_t>(s), service));
      servers.push_back(
          std::make_unique<RpcServer>(&queue, SimDuration::Micros(30)));
      RpcServer* server = servers.back().get();
      if (options.admission) {
        server->set_admission(*options.admission);
      }
      shards[s]->BindRpc(server);
      shards[s]->set_seal_charge(
          [server](SimDuration d) { server->ChargeBusy(d); });
    }

    SecureRandom id_rng(options.id_seed);
    for (int d = 0; d < options.devices; ++d) {
      auto device = std::make_unique<Device>();
      device->name = "dev-" + std::to_string(d);
      device->link = std::make_unique<NetworkLink>(
          &queue, LanProfile(), options.link_seed + static_cast<uint64_t>(d));
      Bytes secret;
      for (int s = 0; s < options.shards; ++s) {
        if (s == 0) {
          secret = shards[s]->RegisterDevice(device->name);
        } else {
          shards[s]->RegisterDeviceWithSecret(device->name, secret);
        }
        device->rpcs.push_back(std::make_unique<RpcClient>(
            &queue, device->link.get(), servers[s].get(), options.rpc));
        device->stubs.push_back(std::make_unique<KeyServiceClient>(
            device->rpcs.back().get(), device->name, secret));
      }
      std::vector<KeyServiceClient*> stub_ptrs;
      for (auto& stub : device->stubs) stub_ptrs.push_back(stub.get());
      ShardRouter::Options router = options.router;
      // The rig measures coalescing and batching, at one shard too.
      router.route_one_shard = true;
      if (options.brownout) {
        device->brownout =
            std::make_unique<BrownoutController>(*options.brownout);
        router.brownout = device->brownout.get();
      }
      device->router =
          std::make_unique<ShardRouter>(&queue, std::move(stub_ptrs), router);
      device->rng = std::make_unique<SimRandom>(options.pick_seed +
                                                static_cast<uint64_t>(d));
      for (int i = 0; i < 64; ++i) {
        AuditId id = AuditId::Random(id_rng);
        size_t owner = device->router->ring().ShardFor(id);
        if (!shards[owner]->CreateKey(device->name, id).ok()) {
          std::fprintf(stderr, "key-tier rig: provisioning failed\n");
          std::exit(1);
        }
        device->ids.push_back(id);
      }
      devices.push_back(std::move(device));
    }
    start = queue.Now();
    deadline = start + options.duration;
  }

  // Closed loop: every device keeps `depth` demand fetches in flight, each
  // completion issuing the next, until the deadline.
  void DriveClosedLoop(int depth, Pick pick, Done done) {
    pick_ = std::move(pick);
    done_ = std::move(done);
    for (auto& device : devices) {
      for (int p = 0; p < depth; ++p) {
        Issue(device.get());
      }
    }
  }

  // Open loop: every device issues demand fetches as a Poisson process with
  // mean gap `mean_us`, whatever completions do, until the deadline.
  void DrivePoisson(double mean_us, Pick pick, Done done) {
    mean_us_ = mean_us;
    pick_ = std::move(pick);
    done_ = std::move(done);
    for (auto& device : devices) {
      Issue(device.get());
    }
  }

  // Revokes device d on every shard at `at`.
  void RevokeAt(SimTime at, size_t d) {
    queue.Schedule(at, [this, d] {
      for (auto& shard : shards) shard->DisableDevice(devices[d]->name);
    });
  }

  // Device d's kDenied rows across the tier, and whether its revocation
  // fence holds: once its kRevoke row is durably recorded, the only rows it
  // can earn are kDenied (and further kRevoke) — the log-order fence the
  // forensic report relies on.
  struct Trail {
    uint64_t denied_rows = 0;
    bool fenced = true;
  };
  Trail TrailOf(size_t d) const {
    Trail trail;
    for (const auto& shard : shards) {
      bool revoked = false;
      for (const auto& entry : shard->log().entries()) {
        if (entry.device_id != devices[d]->name) {
          continue;
        }
        if (entry.op == AccessOp::kDenied) {
          ++trail.denied_rows;
        } else if (entry.op == AccessOp::kRevoke) {
          revoked = true;
        } else if (revoked) {
          trail.fenced = false;
        }
      }
    }
    return trail;
  }

  TierResult Results() const {
    TierResult out;
    for (size_t s = 0; s < shards.size(); ++s) {
      out.shards.push_back({shards[s]->load_stats(),
                            servers[s]->requests_handled(),
                            shards[s]->log().Verify().ok()});
    }
    return out;
  }

  EventQueue queue;
  std::vector<std::unique_ptr<KeyService>> shards;
  std::vector<std::unique_ptr<RpcServer>> servers;
  std::vector<std::unique_ptr<Device>> devices;
  SimTime start;
  SimTime deadline;

 private:
  // One fetch. Closed loop: its completion issues the next. Open loop: the
  // next arrival is scheduled now.
  void Issue(Device* device) {
    if (queue.Now() >= deadline) {
      return;
    }
    const AuditId& id = pick_(*device);
    SimTime issued = queue.Now();
    device->router->GetKeyAsync(id, AccessOp::kDemandFetch,
                                [this, device, issued](Result<Bytes> key) {
                                  done_(issued, std::move(key));
                                  if (mean_us_ == 0) {
                                    Issue(device);
                                  }
                                });
    if (mean_us_ > 0) {
      queue.ScheduleAfter(SimDuration::Micros(static_cast<int64_t>(
                              device->rng->Exponential(mean_us_))),
                          [this, device] { Issue(device); });
    }
  }

  double mean_us_ = 0;  // 0: closed loop.
  Pick pick_;
  Done done_;
};

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
  if (FastMode()) {
    std::printf("(KEYPAD_BENCH_FAST=1: workload scaled down ~5x)\n");
  }
}

}  // namespace bench
}  // namespace keypad

#endif  // BENCH_HARNESS_H_
