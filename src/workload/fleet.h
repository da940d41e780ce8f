// Fleet-scale workload engine: an entire population of Keypad users — each
// owning several theft-prone devices — driving the sharded key tier through
// the real RPC stack (marshalling, sealed channels optional, retry ladders,
// at-most-once dedup) inside one discrete-event simulation.
//
// The shapes it generates are the ones a deployment actually sees:
//  * zipfian file popularity per device (a handful of hot documents absorb
//    most opens; the tail is touched rarely);
//  * diurnal churn: users wake and sleep in staggered day phases, so load
//    rolls around the fleet instead of arriving uniformly;
//  * flash crowds: a synchronized fleet-wide burst (the "everyone opens the
//    leaked memo at 9am" shape) that spikes service queue depth;
//  * mass-revocation storms: a fraction of users is remotely disabled
//    mid-run — every subsequent open from their devices must be denied AND
//    leave a kDenied forensic row in the audit chain (paper §3.1's theft
//    response, at fleet scale).
//
// Every fetch flows through a per-device RpcClient (its own link, breaker,
// dedup sequence, pooled encode buffers) so the engine exercises
// exactly the hot paths the simulator-core overhaul optimized: the event
// queue under hundreds of thousands of timers, and the wire codecs under
// millions of marshals. bench_fleet.cc turns this into BENCH_simcore.json.

#ifndef SRC_WORKLOAD_FLEET_H_
#define SRC_WORKLOAD_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/keyservice/key_service.h"
#include "src/keyservice/key_service_client.h"
#include "src/keyservice/shard_ring.h"
#include "src/net/link.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/wire/codec.h"

namespace keypad {

struct FleetOptions {
  // Population: users × devices_per_user devices, each with its own key
  // population of files_per_device audit IDs.
  int users = 32;
  int devices_per_user = 2;
  int files_per_device = 8;
  double zipf_theta = 0.9;  // Popularity skew across a device's files.

  // Key tier.
  int shards = 2;
  SimDuration service_time = SimDuration::Micros(150);
  SimDuration commit_window = SimDuration::Micros(400);

  // Request framing for every device's RpcClient.
  WireCodec codec = WireCodec::kXml;

  // Virtual run length and diurnal shape: a device is awake for
  // awake_fraction of every (compressed) day, phase-staggered by user.
  SimDuration duration = SimDuration::Seconds(20);
  SimDuration day = SimDuration::Seconds(8);
  double awake_fraction = 0.5;
  // Mean think time between a device's opens while awake.
  SimDuration mean_think = SimDuration::Millis(500);

  // Flash crowd: at flash_at_fraction of the run, EVERY device opens its
  // hottest file within a flash_window (push-notification shape).
  bool flash_crowd = false;
  double flash_at_fraction = 0.45;
  SimDuration flash_window = SimDuration::Millis(250);

  // Mass-revocation storm: at storm_at_fraction of the run, storm_fraction
  // of users have ALL their devices disabled on every shard.
  bool revocation_storm = false;
  double storm_at_fraction = 0.7;
  double storm_fraction = 0.25;

  uint64_t seed = 0xF1EE7;
};

class FleetWorkload {
 public:
  struct Stats {
    uint64_t devices = 0;
    uint64_t keys_provisioned = 0;
    uint64_t opens_issued = 0;
    uint64_t opens_ok = 0;
    uint64_t opens_denied = 0;  // Post-revocation fetches (audited).
    uint64_t opens_failed = 0;  // Transport/timeout failures.
    uint64_t flash_opens = 0;
    uint64_t devices_revoked = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double virtual_seconds = 0;
    uint64_t log_entries = 0;          // Across all shards.
    uint64_t denied_log_entries = 0;   // kDenied rows across all shards.
    uint64_t bytes_on_wire = 0;        // All device links, both directions.
    uint64_t rpc_messages = 0;
    uint64_t encode_buffer_acquires = 0;
    uint64_t encode_buffer_reuses = 0;
    bool chains_verified = false;  // Every shard's audit chain Verify()s.
  };

  FleetWorkload(EventQueue* queue, FleetOptions options);
  ~FleetWorkload();

  FleetWorkload(const FleetWorkload&) = delete;
  FleetWorkload& operator=(const FleetWorkload&) = delete;

  // Builds shards, registers every device on every shard, and mints each
  // device's key population in process (no RPC warmup noise).
  void Provision();

  // Seeds every device's open loop plus the configured storms, pumps the
  // queue dry, and returns the collected stats. Provision() must have run.
  Stats Run();

  KeyService* shard(int i) { return shards_[i].get(); }
  RpcServer* server(int i) { return servers_[i].get(); }
  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  struct FleetDevice;

  // The device's next open: exponential think time, clipped to its user's
  // awake windows, dropped past the deadline.
  void ScheduleNextOpen(FleetDevice* device);
  void IssueOpen(FleetDevice* device, const AuditId& id, bool flash);
  // Earliest time >= t inside the user's awake window.
  SimTime ClipToAwake(uint32_t user, SimTime t) const;

  void ScheduleFlashCrowd(SimTime at);
  void ScheduleRevocationStorm(SimTime at);

  EventQueue* queue_;
  FleetOptions options_;
  ShardRing ring_;
  SimRandom rng_;
  SimTime deadline_;

  std::vector<std::unique_ptr<KeyService>> shards_;
  std::vector<std::unique_ptr<RpcServer>> servers_;
  std::vector<std::unique_ptr<FleetDevice>> devices_;

  Stats stats_;
  std::vector<float> latencies_ms_;
};

}  // namespace keypad

#endif  // SRC_WORKLOAD_FLEET_H_
