#include "src/keypad/deployment.h"

#include <cstdlib>
#include <string>

#include "src/cryptocore/hmac.h"
#include "src/util/logging.h"

namespace keypad {

namespace {
constexpr SimDuration kServiceTime = SimDuration::Micros(150);

// Stub failover budget: one full leader failover — lease lapse, staggered
// promotion across all replicas, an ack timeout of reconciliation traffic,
// and slack — before a routed call gives up. Parameterized on the tier's
// replica count (the key and metadata tiers can differ in width).
FailoverOptions FailoverFor(const DeploymentOptions& options, int replicas) {
  FailoverOptions failover;
  failover.budget = options.replica_set.lease.lease_duration +
                    options.replica_set.lease.promote_stagger *
                        static_cast<int64_t>(replicas) +
                    options.replica_set.ack_timeout + SimDuration::Seconds(2);
  return failover;
}

// One body per fault verb for both tiers: a service, its RPC server, its
// replica set (null when unreplicated) and the crash-time snapshot slot.
template <typename Service>
void CrashReplica(Service& service, RpcServer& server,
                  ServiceReplicaSet<Service>* set, size_t replica,
                  Bytes* snapshot) {
  // The open commit window dies with the process: its staged rows never
  // sealed (never durable) and its held responses are never sent — the
  // clients time out and retry (against the promoted backup, if any).
  service.AbortInFlight();
  // The snapshot models the durable log and state the crashed process
  // leaves on disk; the server swallows everything until restart.
  *snapshot = service.Snapshot();
  server.set_down(true);
  if (set != nullptr) {
    set->NoteCrashed(replica);
  }
}

template <typename Service>
void RestartReplica(Service& service, RpcServer& server,
                    ServiceReplicaSet<Service>* set, size_t replica,
                    const Bytes& snapshot, const std::string& name) {
  Status restored = service.Restore(snapshot);
  if (!restored.ok()) {
    KP_LOG(kError) << name << " restart: " << restored;
    abort();
  }
  // Completed replies are durable (written with the audit entry); requests
  // that were mid-execution at crash time will never answer — forget them
  // so client retries re-execute.
  server.reply_cache().ClearInFlight();
  server.set_down(false);
  if (set != nullptr) {
    // The ex-primary comes back with a possibly diverged chain: it rejoins
    // as a backup, reconciling against whoever leads now.
    set->NoteRestarted(replica);
  }
}

template <typename Service>
void PartitionReplica(ServiceReplicaSet<Service>* set, size_t replica,
                      bool partitioned) {
  if (set != nullptr) {
    set->SetPartitioned(replica, partitioned);
  }
}
}  // namespace

Deployment::Deployment(DeploymentOptions options)
    : options_(std::move(options)),
      client_link_(&queue_,
                   options_.paired_phone ? BluetoothProfile()
                                         : options_.profile,
                   options_.seed ^ 0x2222),
      phone_uplink_(&queue_, options_.profile, options_.seed ^ 0x3333),
      auditor_(std::vector<const KeyService*>{}, nullptr) {
  // The phone proxy and sealed channels are single-endpoint features; they
  // pin the key tier to one shard (and one replica).
  if (options_.key_shards < 1 || options_.paired_phone ||
      options_.secure_channel) {
    options_.key_shards = 1;
  }
  if (options_.key_replicas < 1 || options_.paired_phone ||
      options_.secure_channel) {
    options_.key_replicas = 1;
  }
  if (options_.meta_replicas < 1 || options_.paired_phone ||
      options_.secure_channel) {
    options_.meta_replicas = 1;
  }
  // One brownout controller per device, shared between the router (batch
  // stretching + overload signals) and the client config (prefetch
  // suppression, accounted cache-lifetime stretching). Inert unless
  // enabled.
  brownout_ = std::make_unique<BrownoutController>(options_.brownout);
  options_.router.brownout = brownout_.get();
  options_.config.brownout = brownout_.get();
  const size_t shard_count = static_cast<size_t>(options_.key_shards);
  const size_t replica_count = static_cast<size_t>(options_.key_replicas);
  const size_t meta_count = static_cast<size_t>(options_.meta_replicas);

  // Key tier: shard 0 keeps the historical seed so an unsharded deployment
  // is bit-identical to the pre-shard layout; backups fold the replica
  // index into the seed the same way shards fold theirs.
  std::vector<const KeyService*> shard_views;
  key_backup_services_.resize(shard_count);
  key_backup_servers_.resize(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    uint64_t shard_seed =
        options_.seed ^ 0x1111 ^ (static_cast<uint64_t>(i) << 32);
    key_shards_.push_back(std::make_unique<KeyService>(
        &queue_, shard_seed, options_.key_service));
    key_rpc_servers_.push_back(
        std::make_unique<RpcServer>(&queue_, kServiceTime));
    key_rpc_servers_.back()->set_admission(options_.admission);
    for (size_t r = 1; r < replica_count; ++r) {
      key_backup_services_[i].push_back(std::make_unique<KeyService>(
          &queue_, shard_seed ^ (static_cast<uint64_t>(r) << 16),
          options_.key_service));
      key_backup_servers_[i].push_back(
          std::make_unique<RpcServer>(&queue_, kServiceTime));
      key_backup_servers_[i].back()->set_admission(options_.admission);
    }
    if (replica_count > 1) {
      // The replica set installs each service's replicator and serve gate,
      // which switches its RPC surface onto the async held-response path —
      // so wire it up before BindRpc.
      ReplicaSetOptions rs_options = options_.replica_set;
      rs_options.seed ^= options_.seed ^ 0x9999 ^
                         (static_cast<uint64_t>(i) << 32);
      replica_sets_.push_back(
          std::make_unique<ReplicaSet>(&queue_, rs_options));
      replica_sets_[i]->AddReplica(key_shards_[i].get(),
                                   key_rpc_servers_[i].get());
      for (size_t r = 1; r < replica_count; ++r) {
        replica_sets_[i]->AddReplica(key_backup_services_[i][r - 1].get(),
                                     key_backup_servers_[i][r - 1].get());
      }
    }
    for (size_t r = 0; r < replica_count; ++r) {
      KeyService& service = key_replica(i, r);
      RpcServer* server = &key_replica_rpc_server(i, r);
      service.BindRpc(server);
      // Group-commit seal cost lands on the replica's own server clock, so
      // batching amortizes real (simulated) CPU, not just a counter.
      service.set_seal_charge(
          [server](SimDuration d) { server->ChargeBusy(d); });
    }
    shard_views.push_back(key_shards_[i].get());
  }
  key_replica_snapshots_.assign(shard_count,
                                std::vector<Bytes>(replica_count));
  last_crashed_replica_.assign(shard_count, 0);
  meta_replica_snapshots_.assign(meta_count, Bytes());

  const PairingParams* group = options_.ibe_group != nullptr
                                   ? options_.ibe_group
                                   : &TestPairingParams();
  // Every metadata replica is constructed from the SAME seed: the IBE
  // master secret is modelled as living in a shared HSM (it survives a
  // crash in place, and a promoted backup must mint the same unlock keys
  // replica 0 would have). Replica 0 is bit-identical to the unreplicated
  // service.
  for (size_t r = 0; r < meta_count; ++r) {
    meta_services_.push_back(std::make_unique<MetadataService>(
        &queue_, options_.seed ^ 0x4444, *group, options_.meta_log));
    meta_rpc_servers_.push_back(
        std::make_unique<RpcServer>(&queue_, kServiceTime));
    meta_rpc_servers_.back()->set_admission(options_.admission);
  }
  if (meta_count > 1) {
    // Install replicator + serve gate before BindRpc (they switch the
    // mutating RPC surface onto the async held-response path).
    ReplicaSetOptions meta_rs_options = options_.replica_set;
    meta_rs_options.seed ^= options_.seed ^ 0xAAAA;
    meta_replica_set_ =
        std::make_unique<MetaReplicaSet>(&queue_, meta_rs_options);
    for (size_t r = 0; r < meta_count; ++r) {
      meta_replica_set_->AddReplica(meta_services_[r].get(),
                                    meta_rpc_servers_[r].get());
    }
  }
  auditor_ = ForensicAuditor(shard_views, meta_services_[0].get());
  if (!replica_sets_.empty()) {
    std::vector<const ReplicaSet*> set_views;
    for (const auto& set : replica_sets_) {
      set_views.push_back(set.get());
    }
    auditor_.AttachReplicaSets(std::move(set_views));
  }
  if (meta_replica_set_ != nullptr) {
    auditor_.AttachMetaReplicaSet(meta_replica_set_.get());
  }

  for (size_t r = 0; r < meta_count; ++r) {
    meta_services_[r]->BindRpc(meta_rpc_servers_[r].get());
  }

  // One device identity across the whole tier: every shard must validate
  // the same per-device MAC secret.
  Bytes key_secret = key_shards_[0]->RegisterDevice(options_.device_id);
  for (size_t i = 1; i < shard_count; ++i) {
    key_shards_[i]->RegisterDeviceWithSecret(options_.device_id, key_secret);
  }
  for (size_t i = 0; i < shard_count; ++i) {
    for (auto& backup : key_backup_services_[i]) {
      backup->RegisterDeviceWithSecret(options_.device_id, key_secret);
    }
  }
  // Leases and replication links spin up once every replica holds the
  // device registration (registration is provisioning-time state, not an
  // audit-log mutation, so it does not travel in deltas).
  for (auto& set : replica_sets_) {
    set->Start();
  }
  Bytes meta_secret = meta_services_[0]->RegisterDevice(options_.device_id);
  for (size_t r = 1; r < meta_count; ++r) {
    meta_services_[r]->RegisterDeviceWithSecret(options_.device_id,
                                                meta_secret);
  }
  if (meta_replica_set_ != nullptr) {
    meta_replica_set_->Start();
  }

  if (options_.paired_phone) {
    // Phone -> services over the chosen profile.
    phone_key_rpc_ = std::make_unique<RpcClient>(&queue_, &phone_uplink_,
                                                 key_rpc_servers_[0].get(),
                                                 options_.rpc);
    phone_meta_rpc_ = std::make_unique<RpcClient>(&queue_, &phone_uplink_,
                                                  meta_rpc_servers_[0].get(),
                                                  options_.rpc);
    phone_key_client_ = std::make_unique<KeyServiceClient>(
        phone_key_rpc_.get(), options_.device_id, key_secret);
    phone_meta_client_ = std::make_unique<MetadataServiceClient>(
        phone_meta_rpc_.get(), options_.device_id, meta_secret);
    phone_ = std::make_unique<PhoneProxy>(
        &queue_, &phone_uplink_, phone_key_client_.get(),
        phone_meta_client_.get(), options_.device_id, key_secret, meta_secret,
        options_.phone_options);
    // Laptop -> phone over Bluetooth.
    key_rpcs_.push_back(std::make_unique<RpcClient>(
        &queue_, &client_link_, phone_->server(), options_.rpc));
    meta_rpc_ = std::make_unique<RpcClient>(&queue_, &client_link_,
                                            phone_->server(), options_.rpc);
  } else {
    key_backup_rpcs_.resize(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      key_rpcs_.push_back(std::make_unique<RpcClient>(
          &queue_, &client_link_, key_rpc_servers_[i].get(), options_.rpc));
      for (auto& backup_server : key_backup_servers_[i]) {
        key_backup_rpcs_[i].push_back(std::make_unique<RpcClient>(
            &queue_, &client_link_, backup_server.get(), options_.rpc));
      }
    }
    meta_rpc_ = std::make_unique<RpcClient>(&queue_, &client_link_,
                                            meta_rpc_servers_[0].get(),
                                            options_.rpc);
    for (size_t r = 1; r < meta_count; ++r) {
      meta_backup_rpcs_.push_back(std::make_unique<RpcClient>(
          &queue_, &client_link_, meta_rpc_servers_[r].get(), options_.rpc));
    }
  }
  for (size_t i = 0; i < key_rpcs_.size(); ++i) {
    if (replica_count > 1) {
      // Replica-aware stub: tries the last-known leader, follows NOT_LEADER
      // redirects, and rides out one full failover (lease lapse + staggered
      // promotion + reconciliation slack) before giving up.
      std::vector<RpcClient*> endpoints;
      endpoints.push_back(key_rpcs_[i].get());
      for (auto& rpc : key_backup_rpcs_[i]) {
        endpoints.push_back(rpc.get());
      }
      key_clients_.push_back(std::make_unique<KeyServiceClient>(
          &queue_, std::move(endpoints), options_.device_id, key_secret,
          FailoverFor(options_, options_.key_replicas)));
    } else {
      key_clients_.push_back(std::make_unique<KeyServiceClient>(
          key_rpcs_[i].get(), options_.device_id, key_secret));
    }
  }
  if (shard_count > 1) {
    std::vector<KeyServiceClient*> stubs;
    for (const auto& client : key_clients_) {
      stubs.push_back(client.get());
    }
    key_router_ = std::make_unique<ShardRouter>(&queue_, std::move(stubs),
                                                options_.router);
  }
  if (meta_count > 1) {
    std::vector<RpcClient*> meta_endpoints;
    meta_endpoints.push_back(meta_rpc_.get());
    for (auto& rpc : meta_backup_rpcs_) {
      meta_endpoints.push_back(rpc.get());
    }
    meta_client_ = std::make_unique<MetadataServiceClient>(
        &queue_, std::move(meta_endpoints), options_.device_id, meta_secret,
        FailoverFor(options_, options_.meta_replicas));
  } else {
    meta_client_ = std::make_unique<MetadataServiceClient>(
        meta_rpc_.get(), options_.device_id, meta_secret);
  }

  if (options_.secure_channel && !options_.paired_phone) {
    // Channel roots are derived from the per-service device secrets, so
    // both ends (and a thief holding the device) can construct them.
    SimDuration rotation = options_.config.texp;
    Bytes key_root = Hkdf(key_secret, /*salt=*/{}, "kp-channel-root", 32);
    Bytes meta_root = Hkdf(meta_secret, /*salt=*/{}, "kp-channel-root", 32);
    channel_client_rng_ =
        std::make_unique<SecureRandom>(options_.seed ^ 0x6666);
    channel_server_rng_ =
        std::make_unique<SecureRandom>(options_.seed ^ 0x7777);
    key_channel_client_ = std::make_unique<SecureChannel>(key_root, rotation);
    key_channel_server_ = std::make_unique<SecureChannel>(key_root, rotation);
    meta_channel_client_ =
        std::make_unique<SecureChannel>(meta_root, rotation);
    meta_channel_server_ =
        std::make_unique<SecureChannel>(meta_root, rotation);

    key_rpcs_[0]->EnableChannelSecurity(key_channel_client_.get(),
                                        options_.device_id,
                                        channel_client_rng_.get());
    meta_rpc_->EnableChannelSecurity(meta_channel_client_.get(),
                                     options_.device_id,
                                     channel_client_rng_.get());
    key_rpc_servers_[0]->EnableChannelSecurity(
        [this](const std::string& device_id) -> SecureChannel* {
          return device_id == options_.device_id ? key_channel_server_.get()
                                                 : nullptr;
        },
        channel_server_rng_.get());
    meta_rpc_servers_[0]->EnableChannelSecurity(
        [this](const std::string& device_id) -> SecureChannel* {
          return device_id == options_.device_id
                     ? meta_channel_server_.get()
                     : nullptr;
        },
        channel_server_rng_.get());
  }

  KeypadFs::Services services;
  services.key = key_router_ != nullptr
                     ? static_cast<KeyClient*>(key_router_.get())
                     : static_cast<KeyClient*>(key_clients_[0].get());
  services.meta = meta_client_.get();
  services.ibe = &meta_services_[0]->ibe_params();

  auto fs = KeypadFs::Format(&device_, &queue_, options_.seed ^ 0x5555,
                             options_.password, options_.fs_options,
                             options_.config, services);
  if (!fs.ok()) {
    KP_LOG(kError) << "deployment: format failed: " << fs.status();
    abort();
  }
  fs_ = std::move(*fs);

  // Persist the service credentials on-device (sealed under the volume
  // key), as the real client must to survive remounts — and as the paper's
  // threat model assumes a thief with the password can recover them.
  KeypadFs::Credentials creds;
  creds.device_id = options_.device_id;
  creds.key_secret = key_secret;
  creds.meta_secret = meta_secret;
  Status stored = fs_->StoreCredentials(creds);
  if (!stored.ok()) {
    KP_LOG(kError) << "deployment: credential store failed: " << stored;
    abort();
  }

  if (options_.cloud_backup) {
    cloud_store_ = std::make_unique<SimObjectStore>(&queue_, options_.cloud);
    write_back_ =
        std::make_unique<WriteBackQueue>(&device_, cloud_store_.get());
    // Everything Format wrote is still in the device's dirty set, so the
    // first BackupNow() captures the whole freshly-formatted volume.
  }
}

Deployment::~Deployment() = default;

void Deployment::CrashKeyReplica(size_t shard, size_t replica) {
  CrashReplica(key_replica(shard, replica),
               key_replica_rpc_server(shard, replica), replica_set(shard),
               replica, &key_replica_snapshots_[shard][replica]);
}

void Deployment::RestartKeyReplica(size_t shard, size_t replica) {
  RestartReplica(key_replica(shard, replica),
                 key_replica_rpc_server(shard, replica), replica_set(shard),
                 replica, key_replica_snapshots_[shard][replica],
                 "key shard " + std::to_string(shard) + " replica " +
                     std::to_string(replica));
}

void Deployment::CrashKeyShard(size_t i) {
  // With replication the interesting victim is whichever replica currently
  // leads; without it, replica 0 is the whole shard.
  size_t replica =
      replica_sets_.empty() ? 0 : replica_sets_[i]->current_leader();
  last_crashed_replica_[i] = replica;
  CrashKeyReplica(i, replica);
}

void Deployment::RestartKeyShard(size_t i) {
  RestartKeyReplica(i, last_crashed_replica_[i]);
}

void Deployment::CrashMetaReplica(size_t replica) {
  CrashReplica(meta_replica(replica), meta_replica_rpc_server(replica),
               meta_replica_set(), replica, &meta_replica_snapshots_[replica]);
}

void Deployment::RestartMetaReplica(size_t replica) {
  RestartReplica(meta_replica(replica), meta_replica_rpc_server(replica),
                 meta_replica_set(), replica, meta_replica_snapshots_[replica],
                 "metadata replica " + std::to_string(replica));
}

void Deployment::CrashMetadataService() {
  // With replication the interesting victim is whichever replica currently
  // leads; without it, replica 0 is the whole tier.
  size_t replica = meta_replica_set_ != nullptr
                       ? meta_replica_set_->current_leader()
                       : 0;
  last_crashed_meta_replica_ = replica;
  CrashMetaReplica(replica);
}

void Deployment::RestartMetadataService() {
  RestartMetaReplica(last_crashed_meta_replica_);
}

void Deployment::ScheduleKeyShardCrash(size_t i, SimTime at,
                                       SimDuration outage) {
  queue_.Schedule(at, [this, i] { CrashKeyShard(i); });
  queue_.Schedule(at + outage, [this, i] { RestartKeyShard(i); });
}

void Deployment::ScheduleKeyReplicaCrash(size_t shard, size_t replica,
                                         SimTime at, SimDuration outage) {
  queue_.Schedule(at,
                  [this, shard, replica] { CrashKeyReplica(shard, replica); });
  queue_.Schedule(at + outage, [this, shard, replica] {
    RestartKeyReplica(shard, replica);
  });
}

void Deployment::PartitionKeyReplica(size_t shard, size_t replica,
                                     bool partitioned) {
  PartitionReplica(replica_set(shard), replica, partitioned);
}

void Deployment::ScheduleKeyReplicaPartition(size_t shard, size_t replica,
                                             SimTime at,
                                             SimDuration duration) {
  if (!replica_sets_.empty()) {
    replica_sets_[shard]->SchedulePartition(replica, at, duration);
  }
}

void Deployment::ScheduleMetadataServiceCrash(SimTime at,
                                              SimDuration outage) {
  queue_.Schedule(at, [this] { CrashMetadataService(); });
  queue_.Schedule(at + outage, [this] { RestartMetadataService(); });
}

void Deployment::ScheduleMetaReplicaCrash(size_t replica, SimTime at,
                                          SimDuration outage) {
  queue_.Schedule(at, [this, replica] { CrashMetaReplica(replica); });
  queue_.Schedule(at + outage,
                  [this, replica] { RestartMetaReplica(replica); });
}

void Deployment::PartitionMetaReplica(size_t replica, bool partitioned) {
  PartitionReplica(meta_replica_set(), replica, partitioned);
}

void Deployment::ScheduleMetaReplicaPartition(size_t replica, SimTime at,
                                              SimDuration duration) {
  if (meta_replica_set_ != nullptr) {
    meta_replica_set_->SchedulePartition(replica, at, duration);
  }
}

void Deployment::ReportDeviceLost() {
  // Revocation must land on every shard — any single shard still serving
  // keys would defeat remote data control. With replication it goes through
  // the replica set so the backups learn it before any of them can lead.
  auto disable = [this](auto& service) {
    return service.DisableDevice(options_.device_id);
  };
  Status key_status = Status::Ok();
  for (size_t i = 0; i < key_shards_.size(); ++i) {
    Status s = OnKeyShardLeader(i, disable);
    if (!s.ok() && key_status.ok()) {
      key_status = s;
    }
  }
  Status meta_status = meta_replica_set_ != nullptr
                           ? meta_replica_set_->MutateLeader(disable)
                           : disable(*meta_services_[0]);
  if (!key_status.ok() || !meta_status.ok()) {
    KP_LOG(kWarning) << "report-lost: " << key_status << " / " << meta_status;
  }
}

Status Deployment::OnKeyShardLeader(
    size_t shard, const std::function<Status(KeyService&)>& mutate) {
  ReplicaSet* set = replica_set(shard);
  return set != nullptr ? set->MutateLeader(mutate) : mutate(key_shard(shard));
}

RawDeviceAttacker Deployment::MakeAttacker() {
  return RawDeviceAttacker(device_.Snapshot(), options_.password, &queue_);
}

Result<Deployment::AttackerClients> Deployment::MakeAttackerClients(
    const KeypadFs::Credentials& creds) {
  AttackerClients clients;
  clients.key_rpc = std::make_unique<RpcClient>(&queue_, &client_link_,
                                                key_rpc_servers_[0].get(),
                                                options_.rpc);
  clients.meta_rpc = std::make_unique<RpcClient>(&queue_, &client_link_,
                                                 meta_rpc_servers_[0].get(),
                                                 options_.rpc);
  // The stolen laptop's config names every replica endpoint; the thief's
  // stubs fail over between replicas exactly like the owner's did.
  auto make_stub = [&](size_t shard, RpcClient* primary) {
    if (key_replica_count() <= 1) {
      return std::make_unique<KeyServiceClient>(primary, creds.device_id,
                                                creds.key_secret);
    }
    std::vector<RpcClient*> endpoints;
    endpoints.push_back(primary);
    for (auto& backup_server : key_backup_servers_[shard]) {
      clients.replica_rpcs.push_back(std::make_unique<RpcClient>(
          &queue_, &client_link_, backup_server.get(), options_.rpc));
      endpoints.push_back(clients.replica_rpcs.back().get());
    }
    return std::make_unique<KeyServiceClient>(
        &queue_, std::move(endpoints), creds.device_id, creds.key_secret,
        FailoverFor(options_, options_.key_replicas));
  };
  clients.key = make_stub(0, clients.key_rpc.get());
  if (meta_replica_count() > 1) {
    std::vector<RpcClient*> meta_endpoints;
    meta_endpoints.push_back(clients.meta_rpc.get());
    for (size_t r = 1; r < meta_rpc_servers_.size(); ++r) {
      clients.replica_rpcs.push_back(std::make_unique<RpcClient>(
          &queue_, &client_link_, meta_rpc_servers_[r].get(), options_.rpc));
      meta_endpoints.push_back(clients.replica_rpcs.back().get());
    }
    clients.meta = std::make_unique<MetadataServiceClient>(
        &queue_, std::move(meta_endpoints), creds.device_id,
        creds.meta_secret, FailoverFor(options_, options_.meta_replicas));
  } else {
    clients.meta = std::make_unique<MetadataServiceClient>(
        clients.meta_rpc.get(), creds.device_id, creds.meta_secret);
  }
  if (key_shards_.size() > 1) {
    // The thief rebuilds the same router the legitimate client ran.
    std::vector<KeyServiceClient*> stubs;
    stubs.push_back(clients.key.get());
    for (size_t i = 1; i < key_shards_.size(); ++i) {
      clients.shard_rpcs.push_back(std::make_unique<RpcClient>(
          &queue_, &client_link_, key_rpc_servers_[i].get(), options_.rpc));
      clients.shard_stubs.push_back(
          make_stub(i, clients.shard_rpcs.back().get()));
      stubs.push_back(clients.shard_stubs.back().get());
    }
    // The thief's router does not share the owner's brownout controller —
    // an attacker has no reason to be polite to an overloaded tier.
    ShardRouter::Options thief_router = options_.router;
    thief_router.brownout = nullptr;
    clients.router = std::make_unique<ShardRouter>(&queue_, std::move(stubs),
                                                   thief_router);
  }
  if (options_.secure_channel && !options_.paired_phone) {
    SimDuration rotation = options_.config.texp;
    clients.channel_rng = std::make_unique<SecureRandom>(
        options_.seed ^ 0x8888);
    clients.key_channel = std::make_unique<SecureChannel>(
        Hkdf(creds.key_secret, /*salt=*/{}, "kp-channel-root", 32), rotation);
    clients.meta_channel = std::make_unique<SecureChannel>(
        Hkdf(creds.meta_secret, /*salt=*/{}, "kp-channel-root", 32),
        rotation);
    clients.key_rpc->EnableChannelSecurity(clients.key_channel.get(),
                                           creds.device_id,
                                           clients.channel_rng.get());
    clients.meta_rpc->EnableChannelSecurity(clients.meta_channel.get(),
                                            creds.device_id,
                                            clients.channel_rng.get());
  }
  clients.services.key =
      clients.router != nullptr
          ? static_cast<KeyClient*>(clients.router.get())
          : static_cast<KeyClient*>(clients.key.get());
  clients.services.meta = clients.meta.get();
  clients.services.ibe = &meta_services_[0]->ibe_params();
  return clients;
}

Status Deployment::BackupNow() {
  if (write_back_ == nullptr) {
    return FailedPreconditionError("cloud backup is not enabled");
  }
  Status result = Status::Ok();
  bool done = false;
  write_back_->FlushNow([&](Status s) {
    result = s;
    done = true;
  });
  // A replicated deployment with a crashed or partitioned replica keeps
  // explicit lease renewals on the queue, so drive time in bounded steps
  // instead of draining to idle.
  for (int i = 0; i < 256 && !done; ++i) {
    queue_.AdvanceBy(SimDuration::Millis(50));
  }
  if (!done) {
    return UnavailableError("cloud backup flush did not settle");
  }
  cloud_store_->SettleNow();
  return result;
}

Result<Deployment::ReplacementDevice> Deployment::EnrollReplacementDevice(
    const std::string& new_device_id) {
  if (cloud_store_ == nullptr) {
    return FailedPreconditionError("cloud backup is not enabled");
  }
  if (new_device_id == options_.device_id) {
    return InvalidArgumentError("replacement needs a fresh device id");
  }
  if (options_.secure_channel) {
    // Channel roots are provisioned per device id at construction; minting
    // a server-side channel for the replacement is out of scope here.
    return FailedPreconditionError(
        "replacement enrollment is not supported with sealed channels");
  }

  // Provision the new identity everywhere the old one lived: one MAC
  // secret per tier, shared across all shards and replicas (registration
  // is provisioning-time state, not an audit-log mutation).
  Bytes key_secret = key_shards_[0]->RegisterDevice(new_device_id);
  for (size_t i = 1; i < key_shards_.size(); ++i) {
    key_shards_[i]->RegisterDeviceWithSecret(new_device_id, key_secret);
  }
  for (auto& backups : key_backup_services_) {
    for (auto& backup : backups) {
      backup->RegisterDeviceWithSecret(new_device_id, key_secret);
    }
  }
  Bytes meta_secret = meta_services_[0]->RegisterDevice(new_device_id);
  for (size_t r = 1; r < meta_services_.size(); ++r) {
    meta_services_[r]->RegisterDeviceWithSecret(new_device_id, meta_secret);
  }

  // Re-bind the stolen device's keys to the new identity. The transfer
  // refuses unless the old device is already disabled (ReportDeviceLost
  // first), so a premature "restore" can never widen access while the
  // stolen laptop's identity is still live.
  for (size_t i = 0; i < key_shards_.size(); ++i) {
    KP_RETURN_IF_ERROR(OnKeyShardLeader(i, [&](KeyService& service) {
      return service.TransferDeviceKeys(options_.device_id, new_device_id);
    }));
  }

  ReplacementDevice replacement;
  replacement.device_id = new_device_id;
  replacement.device = std::make_unique<BlockDevice>();
  KP_ASSIGN_OR_RETURN(
      replacement.restore,
      RestoreVolumeFromCloud(*cloud_store_, *replacement.device, queue_));

  // Stub wiring is identity-driven, so the attacker-clients builder serves
  // the rightful owner's new hardware just as well.
  KeypadFs::Credentials creds;
  creds.device_id = new_device_id;
  creds.key_secret = key_secret;
  creds.meta_secret = meta_secret;
  KP_ASSIGN_OR_RETURN(replacement.clients, MakeAttackerClients(creds));

  KP_ASSIGN_OR_RETURN(
      replacement.fs,
      KeypadFs::Mount(replacement.device.get(), &queue_,
                      options_.seed ^ 0xBBBB, options_.password,
                      options_.fs_options, options_.config,
                      replacement.clients.services));
  // The replacement persists its own credentials, like first setup did.
  KP_RETURN_IF_ERROR(replacement.fs->StoreCredentials(creds));
  return replacement;
}

}  // namespace keypad
