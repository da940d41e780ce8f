#include "src/workload/fleet.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/keyservice/audit_log.h"
#include "src/net/profile.h"

namespace keypad {

// One device of one user: its own link, per-shard RPC clients and stubs
// (each with independent breaker and dedup state), and its own key
// population. Kept deliberately lean — the 100k-device bench cell holds a
// few hundred bytes of engine state per device plus the RPC machinery.
struct FleetWorkload::FleetDevice {
  std::string name;
  uint32_t user = 0;
  std::unique_ptr<NetworkLink> link;
  std::vector<std::unique_ptr<RpcClient>> rpcs;
  std::vector<std::unique_ptr<KeyServiceClient>> stubs;
  std::vector<AuditId> files;  // files[0] is the zipf-hottest.
  SimRandom rng{0};
};

FleetWorkload::FleetWorkload(EventQueue* queue, FleetOptions options)
    : queue_(queue),
      options_(options),
      // One ring shared by the whole fleet: placement is a pure function,
      // so devices don't each need a router instance. Few vnodes — the
      // fleet's key population is huge, so balance comes from volume.
      ring_(static_cast<size_t>(options.shards), 0x5ead,
            /*vnodes_per_shard=*/16),
      rng_(options.seed) {}

FleetWorkload::~FleetWorkload() = default;

void FleetWorkload::Provision() {
  ResetRpcClientIdsForTesting();

  KeyServiceOptions service_options;
  service_options.commit_window = options_.commit_window;
  service_options.seal_cost_fixed = SimDuration::Micros(40);
  service_options.seal_cost_per_entry = SimDuration::Micros(2);
  for (int s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<KeyService>(
        queue_, options_.seed ^ (0x1111u + static_cast<uint64_t>(s)),
        service_options));
    servers_.push_back(
        std::make_unique<RpcServer>(queue_, options_.service_time));
    shards_[s]->BindRpc(servers_[s].get());
    RpcServer* server = servers_[s].get();
    shards_[s]->set_seal_charge(
        [server](SimDuration d) { server->ChargeBusy(d); });
  }

  // Devices model their own marshalling CPU (charging it to the shared
  // virtual clock would serialize the entire fleet); the real encode/decode
  // work still runs on the host and is what the bench's events/sec and the
  // marshal micro-cell measure. The retry ladder is LAN-snappy.
  RpcOptions rpc;
  rpc.client_overhead = SimDuration();
  rpc.client_overhead_binary = SimDuration();
  rpc.codec = options_.codec;
  rpc.timeout = SimDuration::Millis(250);
  rpc.total_deadline = SimDuration::Seconds(5);

  SecureRandom id_rng(options_.seed ^ 0xD1CE);
  const int fleet = options_.users * options_.devices_per_user;
  devices_.reserve(static_cast<size_t>(fleet));
  for (int u = 0; u < options_.users; ++u) {
    for (int d = 0; d < options_.devices_per_user; ++d) {
      auto device = std::make_unique<FleetDevice>();
      device->name =
          "u" + std::to_string(u) + "-d" + std::to_string(d);
      device->user = static_cast<uint32_t>(u);
      device->link = std::make_unique<NetworkLink>(
          queue_, LanProfile(),
          options_.seed ^ (0x2222u + static_cast<uint64_t>(devices_.size())));
      device->rng = SimRandom(options_.seed ^
                              (0x3333u + static_cast<uint64_t>(
                                             devices_.size()) *
                                             0x9E3779B97F4A7C15ull));
      Bytes secret = shards_[0]->RegisterDevice(device->name);
      for (int s = 1; s < options_.shards; ++s) {
        shards_[s]->RegisterDeviceWithSecret(device->name, secret);
      }
      // A device only ever fetches keys for its own files, which land on a
      // handful of shards — so it only gets RPC machinery for those shards.
      // This is what keeps the 100k-device cell affordable at high shard
      // counts: clients scale with files-per-device, not with the ring.
      device->rpcs.resize(static_cast<size_t>(options_.shards));
      device->stubs.resize(static_cast<size_t>(options_.shards));
      device->files.reserve(static_cast<size_t>(options_.files_per_device));
      for (int f = 0; f < options_.files_per_device; ++f) {
        AuditId id = AuditId::Random(id_rng);
        size_t owner = ring_.ShardFor(id);
        if (!shards_[owner]->CreateKey(device->name, id).ok()) {
          std::fprintf(stderr, "fleet: provisioning failed for %s\n",
                       device->name.c_str());
          std::exit(1);
        }
        if (device->stubs[owner] == nullptr) {
          device->rpcs[owner] = std::make_unique<RpcClient>(
              queue_, device->link.get(), servers_[owner].get(), rpc);
          device->stubs[owner] = std::make_unique<KeyServiceClient>(
              device->rpcs[owner].get(), device->name, secret);
        }
        device->files.push_back(id);
        ++stats_.keys_provisioned;
      }
      devices_.push_back(std::move(device));
    }
  }
  stats_.devices = static_cast<uint64_t>(devices_.size());
}

SimTime FleetWorkload::ClipToAwake(uint32_t user, SimTime t) const {
  const int64_t day = options_.day.nanos();
  if (day <= 0) {
    return t;
  }
  const int64_t awake = static_cast<int64_t>(
      static_cast<double>(day) * options_.awake_fraction);
  if (awake >= day) {
    return t;
  }
  // Users wake in staggered phases, so fleet load rolls around the day.
  const int64_t phase =
      (static_cast<int64_t>(user) * day) /
      std::max(1, options_.users);
  int64_t rel = (t.nanos() - phase) % day;
  if (rel < 0) {
    rel += day;
  }
  if (rel < awake) {
    return t;
  }
  return t + SimDuration(day - rel);  // Start of the next awake window.
}

void FleetWorkload::ScheduleNextOpen(FleetDevice* device) {
  const double think_s =
      device->rng.Exponential(options_.mean_think.seconds_f());
  SimTime at = ClipToAwake(
      device->user, queue_->Now() + SimDuration::FromSecondsF(think_s));
  if (at >= deadline_) {
    return;  // Device loop winds down at the deadline.
  }
  queue_->Schedule(at, [this, device] {
    const AuditId& id = device->files[device->rng.Zipf(
        device->files.size(), options_.zipf_theta)];
    IssueOpen(device, id, /*flash=*/false);
  });
}

void FleetWorkload::IssueOpen(FleetDevice* device, const AuditId& id,
                              bool flash) {
  ++stats_.opens_issued;
  if (flash) {
    ++stats_.flash_opens;
  }
  const size_t shard = ring_.ShardFor(id);
  const SimTime issued = queue_->Now();
  device->stubs[shard]->GetKeyAsync(
      id, AccessOp::kDemandFetch,
      [this, device, issued, flash](Result<Bytes> key) {
        if (key.ok()) {
          ++stats_.opens_ok;
          latencies_ms_.push_back(static_cast<float>(
              (queue_->Now() - issued).seconds_f() * 1e3));
        } else if (key.status().code() == StatusCode::kPermissionDenied) {
          // Revoked device: the deny itself is the product — a forensic
          // kDenied row on the shard.
          ++stats_.opens_denied;
        } else {
          ++stats_.opens_failed;
        }
        if (!flash) {
          ScheduleNextOpen(device);  // Closed per-device loop.
        }
      });
}

void FleetWorkload::ScheduleFlashCrowd(SimTime at) {
  queue_->Schedule(at, [this] {
    // Push notification lands fleet-wide: every device opens its hottest
    // file within the flash window, awake or not. These are extra opens on
    // top of the diurnal loop.
    for (auto& device : devices_) {
      SimDuration jitter = SimDuration(static_cast<int64_t>(
          device->rng.UniformDouble() * options_.flash_window.nanos()));
      FleetDevice* dev = device.get();
      queue_->ScheduleAfter(jitter, [this, dev] {
        IssueOpen(dev, dev->files[0], /*flash=*/true);
      });
    }
  });
}

void FleetWorkload::ScheduleRevocationStorm(SimTime at) {
  queue_->Schedule(at, [this] {
    // The IT console reports a batch of stolen/terminated users: every one
    // of their devices is disabled on every shard, in one administrative
    // sweep. Their devices keep trying — and every attempt must be denied
    // and audited.
    const int revoked_users = static_cast<int>(
        options_.users * options_.storm_fraction);
    for (auto& device : devices_) {
      if (device->user < static_cast<uint32_t>(revoked_users)) {
        for (auto& shard : shards_) {
          shard->DisableDevice(device->name);
        }
        ++stats_.devices_revoked;
      }
    }
  });
}

FleetWorkload::Stats FleetWorkload::Run() {
  deadline_ = queue_->Now() + options_.duration;
  latencies_ms_.reserve(1 << 16);

  for (auto& device : devices_) {
    ScheduleNextOpen(device.get());
  }
  if (options_.flash_crowd) {
    ScheduleFlashCrowd(queue_->Now() +
                       SimDuration(static_cast<int64_t>(
                           options_.duration.nanos() *
                           options_.flash_at_fraction)));
  }
  if (options_.revocation_storm) {
    ScheduleRevocationStorm(queue_->Now() +
                            SimDuration(static_cast<int64_t>(
                                options_.duration.nanos() *
                                options_.storm_at_fraction)));
  }

  const SimTime start = queue_->Now();
  queue_->RunUntilIdle();
  stats_.virtual_seconds = (queue_->Now() - start).seconds_f();

  if (!latencies_ms_.empty()) {
    std::sort(latencies_ms_.begin(), latencies_ms_.end());
    auto at = [&](double q) {
      return latencies_ms_[static_cast<size_t>(
          q * (latencies_ms_.size() - 1))];
    };
    stats_.p50_ms = at(0.50);
    stats_.p99_ms = at(0.99);
  }

  stats_.chains_verified = true;
  for (auto& shard : shards_) {
    stats_.log_entries += shard->log().size();
    for (const AuditLogEntry& entry : shard->log().entries()) {
      if (entry.op == AccessOp::kDenied) {
        ++stats_.denied_log_entries;
      }
    }
    if (!shard->log().Verify().ok()) {
      stats_.chains_verified = false;
    }
  }
  for (auto& device : devices_) {
    stats_.bytes_on_wire += device->link->bytes_sent();
    stats_.rpc_messages += device->link->messages_sent();
    for (auto& rpc : device->rpcs) {
      if (rpc == nullptr) {
        continue;  // Device owns no files on that shard.
      }
      stats_.encode_buffer_acquires += rpc->encode_buffer_stats().acquires;
      stats_.encode_buffer_reuses += rpc->encode_buffer_stats().reuses;
    }
  }
  return stats_;
}

}  // namespace keypad
