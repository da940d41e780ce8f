#include "src/keypad/deployment.h"

#include <cstdlib>
#include <string>

#include "src/cryptocore/hmac.h"
#include "src/util/logging.h"

namespace keypad {

namespace {
constexpr SimDuration kServiceTime = SimDuration::Micros(150);

template <typename T>
std::vector<T*> Pointers(const std::vector<std::unique_ptr<T>>& owned) {
  std::vector<T*> pointers;
  for (const auto& p : owned) {
    pointers.push_back(p.get());
  }
  return pointers;
}
template <typename T>
std::vector<T*> Pointers(
    const std::vector<std::vector<std::unique_ptr<T>>>& groups) {
  std::vector<T*> pointers;
  for (const auto& group : groups) {
    for (const auto& p : group) {
      pointers.push_back(p.get());
    }
  }
  return pointers;
}

// A tier's channel root, derived from its device secret so both ends (and
// a thief holding the device) can construct it.
Bytes ChannelRoot(const Bytes& secret, const char* label = "kp-channel-root") {
  return Hkdf(secret, /*salt=*/{}, label, 32);
}

// Seals every client in `clients` under a channel from `root` and installs,
// on every server in `servers`, a lookup that opens `device_id`'s frames
// under another (DESIGN.md §29). A SecureChannel keeps no per-message
// state, so one channel per side serves every endpoint; the channels go to
// `owner`.
void SealChannel(const Bytes& root, SimDuration rotation,
                 const std::string& device_id,
                 const std::vector<RpcClient*>& clients,
                 SecureRandom* client_rng,
                 const std::vector<RpcServer*>& servers,
                 SecureRandom* server_rng,
                 std::vector<std::unique_ptr<SecureChannel>>& owner) {
  SecureChannel* client =
      owner.emplace_back(std::make_unique<SecureChannel>(root, rotation)).get();
  for (RpcClient* rpc : clients) {
    rpc->EnableChannelSecurity(client, device_id, client_rng);
  }
  if (servers.empty()) {
    return;
  }
  SecureChannel* server =
      owner.emplace_back(std::make_unique<SecureChannel>(root, rotation)).get();
  for (RpcServer* rpc : servers) {
    rpc->EnableChannelSecurity(
        [server, device_id](const std::string& id) -> SecureChannel* {
          return id == device_id ? server : nullptr;
        },
        server_rng);
  }
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

void Deployment::BuildStack(
    ClientStack& stack, NetworkLink* link,
    const std::vector<std::vector<RpcServer*>>& key_servers,
    const std::vector<RpcServer*>& meta_servers,
    const KeypadFs::Credentials& creds, ShardRouter::Options router) {
  auto connect = [&](RpcServer* server) {
    return std::make_unique<RpcClient>(&queue_, link, server, options_.rpc);
  };
  for (const auto& group : key_servers) {
    auto& rpcs = stack.key_rpcs.emplace_back();
    for (RpcServer* server : group) {
      rpcs.push_back(connect(server));
    }
  }
  for (RpcServer* server : meta_servers) {
    stack.meta_rpcs.push_back(connect(server));
  }
  for (const auto& rpcs : stack.key_rpcs) {
    stack.key_stubs.push_back(MakeStub<KeyServiceClient>(
        Pointers(rpcs), creds.device_id, creds.key_secret));
  }
  stack.key_router = std::make_unique<ShardRouter>(
      &queue_, Pointers(stack.key_stubs), router);
  stack.meta = MakeStub<MetadataServiceClient>(
      Pointers(stack.meta_rpcs), creds.device_id, creds.meta_secret);
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
  // A tier narrower than one replica is a caller bug, never rewritten.
  for (int width : {options_.key_shards, options_.key_replicas,
                    options_.meta_replicas}) {
    if (width < 1) {
      KP_LOG(kError) << "deployment: tier width " << width << " is below 1";
      abort();
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

  // One client stack per side (DESIGN.md §29). Paired, the phone's stack
  // reaches every shard and replica over its uplink and the laptop's one
  // endpoint is the phone; otherwise the laptop's stack reaches them over
  // its own link.
  std::vector<std::vector<RpcServer*>> key_servers;
  std::vector<RpcServer*> all_key_servers;
  for (const auto& shard : key_tier_) {
    key_servers.push_back(Pointers(shard.servers));
    all_key_servers.insert(all_key_servers.end(), key_servers.back().begin(),
                           key_servers.back().end());
  }
  const std::vector<RpcServer*> meta_servers = Pointers(meta_tier_.servers);
  ClientStack* service_stack = &laptop_;
  if (options_.paired_phone) {
    // The phone relays REJECTED replies to the laptop, whose router feeds
    // them to the brownout controller once; the phone's router does not.
    ShardRouter::Options phone_router = options_.router;
    phone_router.brownout = nullptr;
    BuildStack(phone_stack_, &phone_uplink_, key_servers, meta_servers, creds,
               phone_router);
    phone_ = std::make_unique<PhoneProxy>(
        &queue_, &phone_uplink_, phone_stack_.key_router.get(),
        phone_stack_.meta.get(), creds.device_id, creds.key_secret,
        creds.meta_secret);
    BuildStack(laptop_, &client_link_, {{phone_->server()}}, {phone_->server()},
               creds, options_.router);
    service_stack = &phone_stack_;
  } else {
    BuildStack(laptop_, &client_link_, key_servers, meta_servers, creds,
               options_.router);
  }

  if (options_.secure_channel) {
    // One root per tier, derived from its device secret; paired, the
    // phone's one server answers both tiers over Bluetooth, so that hop
    // gets a root of its own from both secrets.
    const SimDuration rotation = options_.config.texp;
    channel_client_rng_ =
        std::make_unique<SecureRandom>(options_.seed ^ 0x6666);
    channel_server_rng_ =
        std::make_unique<SecureRandom>(options_.seed ^ 0x7777);
    auto seal = [&](const Bytes& root, const std::vector<RpcClient*>& clients,
                    const std::vector<RpcServer*>& servers) {
      SealChannel(root, rotation, creds.device_id, clients,
                  channel_client_rng_.get(), servers,
                  channel_server_rng_.get(), channels_);
    };
    seal(ChannelRoot(creds.key_secret), Pointers(service_stack->key_rpcs),
         all_key_servers);
    seal(ChannelRoot(creds.meta_secret), Pointers(service_stack->meta_rpcs),
         meta_servers);
    if (options_.paired_phone) {
      Bytes secrets = creds.key_secret;
      Append(secrets, creds.meta_secret);
      seal(ChannelRoot(secrets, "kp-pair-channel-root"),
           {&key_rpc(), &meta_rpc()}, {phone_->server()});
    }
  }

  KeypadFs::Services services;
  services.key = &key_client();
  services.meta = laptop_.meta.get();
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
  NetworkLink* link = &client_link_;
  if (options_.paired_phone) {
    clients.link = std::make_unique<NetworkLink>(&queue_, options_.profile,
                                                 options_.seed ^ 0xCCCC);
    link = clients.link.get();
  }
  auto connect = [&](RpcServer* server) {
    return std::make_unique<RpcClient>(&queue_, link, server, options_.rpc);
  };
  // Every client in the order the thief has always built them (RpcClient
  // ids seed the retry jitter): shard 0's and the metadata tier's replica
  // 0 and backups, then each further shard's.
  std::vector<RpcClient*> key_rpcs;
  std::vector<RpcClient*> meta_rpcs;
  auto endpoints = [&](auto& group, RpcClient* primary,
                       std::vector<RpcClient*>& tier) {
    std::vector<RpcClient*> rpcs{primary};
    for (size_t r = 1; r < group.servers.size(); ++r) {
      clients.replica_rpcs.push_back(connect(group.servers[r].get()));
      rpcs.push_back(clients.replica_rpcs.back().get());
    }
    tier.insert(tier.end(), rpcs.begin(), rpcs.end());
    return rpcs;
  };
  clients.key_rpc = connect(key_tier_[0].servers[0].get());
  clients.meta_rpc = connect(meta_tier_.servers[0].get());
  clients.key = MakeStub<KeyServiceClient>(
      endpoints(key_tier_[0], clients.key_rpc.get(), key_rpcs),
      creds.device_id, creds.key_secret);
  clients.meta = MakeStub<MetadataServiceClient>(
      endpoints(meta_tier_, clients.meta_rpc.get(), meta_rpcs),
      creds.device_id, creds.meta_secret);
  for (size_t i = 1; i < key_tier_.size(); ++i) {
    clients.shard_rpcs.push_back(connect(key_tier_[i].servers[0].get()));
    clients.shard_stubs.push_back(MakeStub<KeyServiceClient>(
        endpoints(key_tier_[i], clients.shard_rpcs.back().get(), key_rpcs),
        creds.device_id, creds.key_secret));
  }
  std::vector<KeyServiceClient*> stubs = Pointers(clients.shard_stubs);
  stubs.insert(stubs.begin(), clients.key.get());
  // The thief's router does not share the owner's brownout controller —
  // an attacker has no reason to be polite to an overloaded tier.
  ShardRouter::Options thief_router = options_.router;
  thief_router.brownout = nullptr;
  clients.router =
      std::make_unique<ShardRouter>(&queue_, std::move(stubs), thief_router);
  if (options_.secure_channel) {
    const SimDuration rotation = options_.config.texp;
    clients.channel_rng = std::make_unique<SecureRandom>(
        options_.seed ^ 0x8888);
    SealChannel(ChannelRoot(creds.key_secret), rotation, creds.device_id,
                key_rpcs, clients.channel_rng.get(), {}, nullptr,
                clients.channels);
    SealChannel(ChannelRoot(creds.meta_secret), rotation, creds.device_id,
                meta_rpcs, clients.channel_rng.get(), {}, nullptr,
                clients.channels);
  }
  clients.services.key = clients.router.get();
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
