#include "src/keypad/deployment.h"

#include <cstdlib>
#include <string>

#include "src/cryptocore/hmac.h"
#include "src/util/logging.h"

namespace keypad {

namespace {
constexpr SimDuration kServiceTime = SimDuration::Micros(150);

std::vector<RpcClient*> Endpoints(
    const std::vector<std::unique_ptr<RpcClient>>& rpcs) {
  std::vector<RpcClient*> endpoints;
  for (const auto& rpc : rpcs) {
    endpoints.push_back(rpc.get());
  }
  return endpoints;
}
}  // namespace

template <typename Service, typename Make>
void Deployment::AddGroup(ReplicaGroup<Service>& group, size_t replicas,
                          uint64_t set_seed, Make make_service) {
  for (size_t r = 0; r < replicas; ++r) {
    group.services.push_back(make_service(r));
    group.servers.push_back(std::make_unique<RpcServer>(&queue_, kServiceTime));
    group.servers.back()->set_admission(options_.admission);
  }
  if (replicas > 1) {
    // The replica set installs each service's replicator and serve gate,
    // which switches its RPC surface onto the async held-response path —
    // so wire it up before BindRpc.
    group.set = std::make_unique<ServiceReplicaSet<Service>>(&queue_, set_seed);
    for (size_t r = 0; r < replicas; ++r) {
      group.set->AddReplica(group.services[r].get(), group.servers[r].get());
    }
  }
  for (size_t r = 0; r < replicas; ++r) {
    group.services[r]->BindRpc(group.servers[r].get());
  }
  group.snapshots.assign(replicas, Bytes());
}

KeypadFs::Credentials Deployment::RegisterEverywhere(
    const std::string& device_id) {
  // Registration is provisioning-time state, not an audit-log mutation, so
  // every replica learns it directly rather than through deltas.
  auto register_group = [&](auto& group, const Bytes& secret) {
    for (auto& service : group.services) {
      service->RegisterDeviceWithSecret(device_id, secret);
    }
  };
  KeypadFs::Credentials creds;
  creds.device_id = device_id;
  creds.key_secret = key_tier_[0].services[0]->RegisterDevice(device_id);
  for (auto& group : key_tier_) {
    register_group(group, creds.key_secret);
  }
  creds.meta_secret = meta_tier_.services[0]->RegisterDevice(device_id);
  register_group(meta_tier_, creds.meta_secret);
  return creds;
}

template <typename Stub>
std::unique_ptr<Stub> Deployment::MakeStub(std::vector<RpcClient*> rpcs,
                                           const std::string& device_id,
                                           const Bytes& secret) {
  if (rpcs.size() == 1) {
    return std::make_unique<Stub>(rpcs[0], device_id, secret);
  }
  // Replica-aware stub: tries the last-known leader, follows NOT_LEADER
  // redirects, and rides out one full failover before giving up.
  return std::make_unique<Stub>(&queue_, std::move(rpcs), device_id, secret);
}

template <typename Service, typename Mutate>
Status Deployment::OnLeader(ReplicaGroup<Service>& group, Mutate mutate) {
  return group.set != nullptr ? group.set->MutateLeader(mutate)
                              : mutate(*group.services[0]);
}

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
  const bool single_endpoint =
      options_.paired_phone || options_.secure_channel;
  for (int* width : {&options_.key_shards, &options_.key_replicas,
                     &options_.meta_replicas}) {
    if (*width < 1 || single_endpoint) {
      *width = 1;
    }
  }
  // One brownout controller per device, shared between the router (batch
  // stretching + overload signals) and the client config (prefetch
  // suppression). Inert unless enabled.
  brownout_ = std::make_unique<BrownoutController>(options_.brownout);
  options_.router.brownout = brownout_.get();
  options_.config.brownout = brownout_.get();
  const size_t shard_count = static_cast<size_t>(options_.key_shards);

  // Key tier: shard 0 keeps the historical seed so an unsharded deployment
  // is bit-identical to the pre-shard layout; replicas fold their index
  // into the seed the same way shards fold theirs.
  std::vector<const KeyService*> shard_views;
  std::vector<const ReplicaSet*> set_views;
  key_tier_.resize(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    const uint64_t shard_seed =
        options_.seed ^ 0x1111 ^ (static_cast<uint64_t>(i) << 32);
    AddGroup(key_tier_[i], key_replica_count(),
             options_.seed ^ 0x9999 ^ (static_cast<uint64_t>(i) << 32),
             [&](size_t r) {
               return std::make_unique<KeyService>(
                   &queue_, shard_seed ^ (static_cast<uint64_t>(r) << 16),
                   options_.key_service);
             });
    for (size_t r = 0; r < key_replica_count(); ++r) {
      // Group-commit seal cost lands on the replica's own server clock, so
      // batching amortizes real (simulated) CPU, not just a counter.
      RpcServer* server = key_tier_[i].servers[r].get();
      key_tier_[i].services[r]->set_seal_charge(
          [server](SimDuration d) { server->ChargeBusy(d); });
    }
    shard_views.push_back(key_tier_[i].services[0].get());
    set_views.push_back(key_tier_[i].set.get());
  }

  const PairingParams* group = options_.ibe_group != nullptr
                                   ? options_.ibe_group
                                   : &TestPairingParams();
  // Every metadata replica is constructed from the SAME seed: the IBE
  // master secret is modelled as living in a shared HSM (it survives a
  // crash in place, and a promoted backup must mint the same unlock keys
  // replica 0 would have). Replica 0 is bit-identical to the unreplicated
  // service.
  AddGroup(meta_tier_, meta_replica_count(), options_.seed ^ 0xAAAA,
           [&](size_t) {
             return std::make_unique<MetadataService>(
                 &queue_, options_.seed ^ 0x4444, *group, options_.meta_log);
           });
  auditor_ = ForensicAuditor(shard_views, meta_tier_.services[0].get());
  if (key_replica_count() > 1) {
    auditor_.AttachReplicaSets(std::move(set_views));
  }
  if (meta_tier_.set != nullptr) {
    auditor_.AttachMetaReplicaSet(meta_tier_.set.get());
  }

  // One device identity across the whole tier: every shard and replica
  // validates the same per-device MAC secret. Leases and replication links
  // spin up once every replica holds the registration.
  KeypadFs::Credentials creds = RegisterEverywhere(options_.device_id);
  for (auto& shard : key_tier_) {
    if (shard.set != nullptr) {
      shard.set->Start();
    }
  }
  if (meta_tier_.set != nullptr) {
    meta_tier_.set->Start();
  }

  auto connect = [&](NetworkLink* link, RpcServer* server) {
    return std::make_unique<RpcClient>(&queue_, link, server, options_.rpc);
  };
  key_rpcs_.resize(shard_count);
  if (options_.paired_phone) {
    // Phone -> services over the chosen profile.
    phone_key_rpc_ = connect(&phone_uplink_, key_tier_[0].servers[0].get());
    phone_meta_rpc_ = connect(&phone_uplink_, meta_tier_.servers[0].get());
    phone_key_client_ = MakeStub<KeyServiceClient>(
        {phone_key_rpc_.get()}, creds.device_id, creds.key_secret);
    phone_meta_client_ = MakeStub<MetadataServiceClient>(
        {phone_meta_rpc_.get()}, creds.device_id, creds.meta_secret);
    phone_ = std::make_unique<PhoneProxy>(
        &queue_, &phone_uplink_, phone_key_client_.get(),
        phone_meta_client_.get(), creds.device_id, creds.key_secret,
        creds.meta_secret);
    // Laptop -> phone over Bluetooth.
    key_rpcs_[0].push_back(connect(&client_link_, phone_->server()));
    meta_rpcs_.push_back(connect(&client_link_, phone_->server()));
  } else {
    for (size_t i = 0; i < shard_count; ++i) {
      for (auto& server : key_tier_[i].servers) {
        key_rpcs_[i].push_back(connect(&client_link_, server.get()));
      }
    }
    for (auto& server : meta_tier_.servers) {
      meta_rpcs_.push_back(connect(&client_link_, server.get()));
    }
  }
  for (const auto& rpcs : key_rpcs_) {
    key_clients_.push_back(MakeStub<KeyServiceClient>(
        Endpoints(rpcs), creds.device_id, creds.key_secret));
  }
  if (shard_count > 1) {
    std::vector<KeyServiceClient*> stubs;
    for (const auto& client : key_clients_) {
      stubs.push_back(client.get());
    }
    key_router_ = std::make_unique<ShardRouter>(&queue_, std::move(stubs),
                                                options_.router);
  }
  meta_client_ = MakeStub<MetadataServiceClient>(
      Endpoints(meta_rpcs_), creds.device_id, creds.meta_secret);

  if (options_.secure_channel && !options_.paired_phone) {
    // Channel roots are derived from the per-service device secrets, so
    // both ends (and a thief holding the device) can construct them.
    SimDuration rotation = options_.config.texp;
    Bytes key_root = Hkdf(creds.key_secret, /*salt=*/{}, "kp-channel-root", 32);
    Bytes meta_root =
        Hkdf(creds.meta_secret, /*salt=*/{}, "kp-channel-root", 32);
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

    key_rpc().EnableChannelSecurity(key_channel_client_.get(),
                                    options_.device_id,
                                    channel_client_rng_.get());
    meta_rpc().EnableChannelSecurity(meta_channel_client_.get(),
                                     options_.device_id,
                                     channel_client_rng_.get());
    key_replica_rpc_server(0, 0).EnableChannelSecurity(
        [this](const std::string& device_id) -> SecureChannel* {
          return device_id == options_.device_id ? key_channel_server_.get()
                                                 : nullptr;
        },
        channel_server_rng_.get());
    meta_replica_rpc_server(0).EnableChannelSecurity(
        [this](const std::string& device_id) -> SecureChannel* {
          return device_id == options_.device_id
                     ? meta_channel_server_.get()
                     : nullptr;
        },
        channel_server_rng_.get());
  }

  KeypadFs::Services services;
  services.key = &key_client();
  services.meta = meta_client_.get();
  services.ibe = &metadata_service().ibe_params();

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
  Status stored = fs_->StoreCredentials(creds);
  if (!stored.ok()) {
    KP_LOG(kError) << "deployment: credential store failed: " << stored;
    abort();
  }

  if (options_.cloud_backup) {
    cloud_store_ = std::make_unique<SimObjectStore>(&queue_);
    write_back_ =
        std::make_unique<WriteBackQueue>(&device_, cloud_store_.get());
    // Everything Format wrote is still in the device's dirty set, so the
    // first BackupNow() captures the whole freshly-formatted volume.
  }
}

Deployment::~Deployment() = default;

template <typename Service>
Status Deployment::Apply(ReplicaGroup<Service>& group, const Fault& fault) {
  const size_t size = group.services.size();
  const bool partition =
      fault.verb == Fault::kPartition || fault.verb == Fault::kHeal;
  if (fault.replica == Fault::kLeader && partition) {
    return InvalidArgumentError("a partition or heal names its replica");
  }
  if (fault.replica != Fault::kLeader && fault.replica >= size) {
    return InvalidArgumentError("fault names replica " +
                                std::to_string(fault.replica) + " of " +
                                std::to_string(size));
  }
  ServiceReplicaSet<Service>* set = group.set.get();
  if (partition && set == nullptr) {
    return FailedPreconditionError("partition of an unreplicated tier");
  }
  size_t replica = fault.replica;
  if (replica == Fault::kLeader && fault.verb == Fault::kRestart) {
    replica = group.leader_crashed;
  } else if (replica == Fault::kLeader) {
    replica = set != nullptr ? set->current_leader() : 0;
  }
  Service& service = *group.services[replica];
  RpcServer& server = *group.servers[replica];
  Bytes& snapshot = group.snapshots[replica];
  switch (fault.verb) {
    case Fault::kCrash:
      if (!snapshot.empty()) {
        return FailedPreconditionError("replica " + std::to_string(replica) +
                                       " is already down");
      }
      // The open commit window dies with the process: its staged rows never
      // sealed (never durable) and its held responses are never sent — the
      // clients time out and retry (against the promoted backup, if any).
      service.AbortInFlight();
      // The snapshot models the durable log and state the crashed process
      // leaves on disk; the server swallows everything until restart.
      snapshot = service.Snapshot();
      server.set_down(true);
      if (set != nullptr) {
        set->NoteCrashed(replica);
      }
      if (fault.replica == Fault::kLeader) {
        group.leader_crashed = replica;
      }
      break;
    case Fault::kRestart: {
      if (snapshot.empty()) {
        return FailedPreconditionError("replica " + std::to_string(replica) +
                                       " is up");
      }
      Status restored = service.Restore(snapshot);
      if (!restored.ok()) {
        KP_LOG(kError) << "replica " << replica << " restart: " << restored;
        abort();
      }
      snapshot.clear();
      // Completed replies are durable (written with the audit entry);
      // requests that were mid-execution at crash time will never answer —
      // forget them so client retries re-execute.
      server.reply_cache().ClearInFlight();
      server.set_down(false);
      if (set != nullptr) {
        // The ex-primary comes back with a possibly diverged chain: it
        // rejoins as a backup, reconciling against whoever leads now.
        set->NoteRestarted(replica);
      }
      break;
    }
    case Fault::kPartition:
    case Fault::kHeal:
      set->SetPartitioned(replica, fault.verb == Fault::kPartition);
      break;
  }
  return Status::Ok();
}

Status Deployment::Inject(const Fault& fault) {
  if (fault.tier == Fault::kMeta) {
    return fault.shard == 0
               ? Apply(meta_tier_, fault)
               : InvalidArgumentError("the metadata tier has no shards");
  }
  if (fault.shard >= key_tier_.size()) {
    return InvalidArgumentError("fault names key shard " +
                                std::to_string(fault.shard) + " of " +
                                std::to_string(key_tier_.size()));
  }
  return Apply(key_tier_[fault.shard], fault);
}

void Deployment::Schedule(SimTime at, const Fault& fault) {
  queue_.Schedule(at, [this, fault] {
    Status status = Inject(fault);
    if (!status.ok()) {
      KP_LOG(kWarning) << "scheduled fault dropped: " << status;
    }
  });
}

void Deployment::ReportDeviceLost() {
  // Revocation must land on every shard — any single shard still serving
  // keys would defeat remote data control. With replication it goes through
  // the replica set so the backups learn it before any of them can lead.
  auto disable = [this](auto& service) {
    return service.DisableDevice(options_.device_id);
  };
  Status key_status = Status::Ok();
  for (auto& shard : key_tier_) {
    Status s = OnLeader(shard, disable);
    if (!s.ok() && key_status.ok()) {
      key_status = s;
    }
  }
  Status meta_status = OnLeader(meta_tier_, disable);
  if (!key_status.ok() || !meta_status.ok()) {
    KP_LOG(kWarning) << "report-lost: " << key_status << " / " << meta_status;
  }
}

RawDeviceAttacker Deployment::MakeAttacker() {
  return RawDeviceAttacker(device_.Snapshot(), options_.password, &queue_);
}

Result<Deployment::AttackerClients> Deployment::MakeAttackerClients(
    const KeypadFs::Credentials& creds) {
  AttackerClients clients;
  auto connect = [&](RpcServer* server) {
    return std::make_unique<RpcClient>(&queue_, &client_link_, server,
                                       options_.rpc);
  };
  // The stolen laptop's config names every replica endpoint; the thief's
  // stubs fail over between replicas exactly like the owner's did.
  auto endpoints = [&](auto& group, RpcClient* primary) {
    std::vector<RpcClient*> rpcs{primary};
    for (size_t r = 1; r < group.servers.size(); ++r) {
      clients.replica_rpcs.push_back(connect(group.servers[r].get()));
      rpcs.push_back(clients.replica_rpcs.back().get());
    }
    return rpcs;
  };
  clients.key_rpc = connect(key_tier_[0].servers[0].get());
  clients.meta_rpc = connect(meta_tier_.servers[0].get());
  clients.key = MakeStub<KeyServiceClient>(
      endpoints(key_tier_[0], clients.key_rpc.get()), creds.device_id,
      creds.key_secret);
  clients.meta = MakeStub<MetadataServiceClient>(
      endpoints(meta_tier_, clients.meta_rpc.get()), creds.device_id,
      creds.meta_secret);
  if (key_tier_.size() > 1) {
    // The thief rebuilds the same router the legitimate client ran.
    std::vector<KeyServiceClient*> stubs{clients.key.get()};
    for (size_t i = 1; i < key_tier_.size(); ++i) {
      clients.shard_rpcs.push_back(connect(key_tier_[i].servers[0].get()));
      clients.shard_stubs.push_back(MakeStub<KeyServiceClient>(
          endpoints(key_tier_[i], clients.shard_rpcs.back().get()),
          creds.device_id, creds.key_secret));
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
  clients.services.ibe = &metadata_service().ibe_params();
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
  // secret per tier, shared across all shards and replicas.
  KeypadFs::Credentials creds = RegisterEverywhere(new_device_id);

  // Re-bind the stolen device's keys to the new identity. The transfer
  // refuses unless the old device is already disabled (ReportDeviceLost
  // first), so a premature "restore" can never widen access while the
  // stolen laptop's identity is still live.
  for (auto& shard : key_tier_) {
    KP_RETURN_IF_ERROR(OnLeader(shard, [&](KeyService& service) {
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
