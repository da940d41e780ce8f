// Deployment: one-stop wiring of a complete Keypad installation inside the
// simulation — client device, EncFS/Keypad volume, both audit services with
// their RPC servers, network links, optional paired phone, and the forensic
// auditor. Tests, benches, and examples all build on this.
//
// Topology (matching Figure 2 / Figure 4 of the paper):
//
//   KeypadFs ──rpc──> [link: LAN/.../3G] ──> KeyService
//            ──rpc──> [same link]        ──> MetadataService
//   or, paired:
//   KeypadFs ──rpc──> [Bluetooth] ──> PhoneProxy ──rpc──> [cellular] ──> services
//
// Every shape runs one client stack (DESIGN.md §29): a ShardRouter over one
// replica-aware stub per key shard, plus a replica-aware metadata stub.
// The laptop runs it over its link; paired, the phone runs it over its
// uplink, and the laptop's one endpoint is the phone. Sealed channels cover
// every client and server the deployment builds.

#ifndef SRC_KEYPAD_DEPLOYMENT_H_
#define SRC_KEYPAD_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/blockdev/cloud_store.h"
#include "src/blockdev/write_back.h"
#include "src/keypad/attacker.h"
#include "src/keypad/forensics.h"
#include "src/keypad/keypad_fs.h"
#include "src/keypad/paired_device.h"
#include "src/keyservice/key_service.h"
#include "src/keyservice/key_service_client.h"
#include "src/keyservice/shard_router.h"
#include "src/metaservice/metadata_service.h"
#include "src/net/link.h"
#include "src/net/profile.h"

namespace keypad {

struct DeploymentOptions {
  NetworkProfile profile = CellularProfile();
  KeypadConfig config;
  EncFs::Options fs_options;  // Defaults to EncFS costs, encryption on.
  // Pairing group for IBE. Benches and tests default to the fast 256-bit
  // test group; pass &DefaultPairingParams() for 512-bit strength.
  const PairingParams* ibe_group = nullptr;
  uint64_t seed = 42;
  std::string device_id = "laptop-1";
  std::string password = "correct horse battery staple";
  // Adds a paired phone: the laptop talks to it over Bluetooth and the
  // phone reaches every shard and replica over `profile`.
  bool paired_phone = false;
  // Transport encryption (§6): every client↔server pair sealed under
  // per-device session keys that ratchet every Texp — one root per tier,
  // and paired, one more for the Bluetooth hop.
  bool secure_channel = false;
  // Resilience knobs (retry ladder, per-attempt timeout, circuit breaker)
  // applied to every RpcClient this deployment constructs.
  RpcOptions rpc;
  // Overload robustness (DESIGN.md §14): admission control applied to
  // every service-tier RpcServer this deployment constructs (bounded
  // queue, CoDel-style shedding by priority class, deadline expiry).
  // Off by default; KEYPAD_ADMISSION overrides either way.
  AdmissionOptions admission;
  // Client brownout policy. When enabled the deployment builds one
  // BrownoutController for the device and shares it between the
  // ShardRouter (batch-window stretching, overload signals) and the
  // KeypadFs config (prefetch suppression).
  BrownoutOptions brownout;
  // Key-service tier width (DESIGN.md §8): N independent KeyService shards
  // behind a client-side ShardRouter. This and both replica widths must be
  // at least 1; a smaller one is a caller bug, and the constructor aborts.
  int key_shards = 1;
  // Per-shard service knobs: group-commit window and seal CPU costs.
  KeyServiceOptions key_service;
  // Router knobs (single-flight coalescing, batched fetch, brownout).
  ShardRouter::Options router;
  // Replication width per shard (DESIGN.md §9). With R > 1 every shard runs
  // R replicas (primary + R−1 backups) under a lease-based ReplicaSet; the
  // client stubs fail over between them and sealed audit groups stream to
  // the backups before client responses release.
  int key_replicas = 1;
  // Replication width of the metadata tier (DESIGN.md §10). With R > 1 the
  // metadata service runs R replicas on the same generic substrate as the
  // key tier: hash-chained log suffixes stream to the backups before
  // responses (and the IBE unlock keys inside them) release, and the
  // client stub fails over across the group. Every replica shares the
  // IBE master secret (the PKG is modelled as a shared HSM), so a promoted
  // backup mints the same unlock keys.
  int meta_replicas = 1;
  // Audit-log lifecycle of every metadata replica (DESIGN.md §15); the
  // key tier's is key_service.log.
  SegmentedLogOptions meta_log;
  // Write-back cloud replication (DESIGN.md §12): attaches a simulated
  // object store plus a WriteBackQueue over the laptop's block device.
  // BackupNow() uploads the dirty set and commits a manifest generation;
  // EnrollReplacementDevice() rebuilds a stolen laptop's volume from it.
  bool cloud_backup = false;
};

// One service fault (DESIGN.md §23): a crash, restart, partition or heal of
// one replica of one audit tier. Faults are plain values, so a schedule of
// them is data; Deployment::Inject applies one now, Deployment::Schedule at
// a virtual instant.
struct Fault {
  enum Verb { kCrash, kRestart, kPartition, kHeal };
  enum Tier { kKey, kMeta };
  // Crashes and restarts may name the leader instead of a replica: kCrash
  // resolves it to the replica leading at injection time and records the
  // victim, kRestart to the replica the group's last leader crash took
  // down. Partitions and heals name their replica.
  static constexpr size_t kLeader = static_cast<size_t>(-1);

  Verb verb = kCrash;
  Tier tier = kKey;
  size_t shard = 0;  // Key tier only; the metadata tier is one group.
  size_t replica = kLeader;

  static Fault Key(Verb verb, size_t shard, size_t replica = kLeader) {
    return {verb, kKey, shard, replica};
  }
  static Fault Meta(Verb verb, size_t replica = kLeader) {
    return {verb, kMeta, 0, replica};
  }
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options);
  ~Deployment();

  EventQueue& queue() { return queue_; }
  KeypadFs& fs() { return *fs_; }
  // Shard 0's replica 0 — the whole tier when unsharded and unreplicated.
  // With replication it may no longer lead after a failover; see
  // replica_set().
  KeyService& key_service() { return key_replica(0, 0); }
  size_t key_shard_count() const { return key_tier_.size(); }
  size_t key_replica_count() const {
    return static_cast<size_t>(options_.key_replicas);
  }
  KeyService& key_replica(size_t shard, size_t replica) {
    return *key_tier_[shard].services[replica];
  }
  RpcServer& key_replica_rpc_server(size_t shard, size_t replica) {
    return *key_tier_[shard].servers[replica];
  }
  // Null when key_replicas == 1.
  ReplicaSet* replica_set(size_t shard) { return key_tier_[shard].set.get(); }
  // The laptop's replica-aware stub for shard i (what its router routes
  // to). Paired, the laptop has one stub, to the phone, and only i = 0
  // exists.
  KeyServiceClient& key_stub(size_t i) { return *laptop_.key_stubs.at(i); }
  // The laptop's router, never null: what KeypadFs talks to. At one shard
  // (and paired) it passes every call straight to its stub.
  ShardRouter* key_router() { return laptop_.key_router.get(); }
  KeyClient& key_client() { return *laptop_.key_router; }
  // Replica 0 — the whole metadata tier when meta_replicas == 1. With
  // replication this is the initial primary, which may no longer lead
  // after a failover; see meta_replica_set().
  MetadataService& metadata_service() { return meta_replica(0); }
  size_t meta_replica_count() const {
    return static_cast<size_t>(options_.meta_replicas);
  }
  MetadataService& meta_replica(size_t r) { return *meta_tier_.services[r]; }
  RpcServer& meta_replica_rpc_server(size_t r) {
    return *meta_tier_.servers[r];
  }
  // Null when meta_replicas == 1.
  MetaReplicaSet* meta_replica_set() { return meta_tier_.set.get(); }
  // The laptop's (replica-aware) metadata stub.
  MetadataServiceClient& meta_client() { return *laptop_.meta; }
  ForensicAuditor& auditor() { return auditor_; }
  // The device's brownout controller (never null; inert unless enabled).
  BrownoutController& brownout() { return *brownout_; }
  PhoneProxy* phone() { return phone_.get(); }
  BlockDevice& device() { return device_; }
  const std::string& device_id() const { return options_.device_id; }
  const DeploymentOptions& options() const { return options_; }

  // The laptop's network link (to the services, or to the phone when
  // paired). Disconnect it to model offline operation or theft isolation.
  NetworkLink& client_link() { return client_link_; }

  // The laptop's RpcClient to replica 0 of key shard i and of the metadata
  // tier, exposed for benches. Paired, both tiers' client is the phone's
  // and only shard i = 0 exists.
  RpcClient& key_rpc() { return key_shard_rpc(0); }
  RpcClient& key_shard_rpc(size_t i) { return *laptop_.key_rpcs.at(i)[0]; }
  RpcClient& meta_rpc() { return *laptop_.meta_rpcs[0]; }

  // --- Service faults (DESIGN.md §23). --------------------------------------
  //
  // A crash marks the replica's RPC server down (requests are swallowed),
  // drops its open group-commit window with the unsent responses (rows
  // that never sealed were never durable — clients retry), and snapshots
  // the durable state as of the crash instant. A restart rebuilds the
  // service in place from that snapshot and brings the server back; with
  // replication it rejoins as a backup and reconciles. The reply cache's
  // completed window is durable (DESIGN.md §7), so only in-flight dedup
  // marks are cleared. A partition silently cuts one replica off the
  // replication mesh while its client link stays up (split brain).
  //
  // Inject returns InvalidArgument for a shard or replica outside the
  // deployment or a partition or heal of kLeader, and FailedPrecondition —
  // changing nothing — for a crash of a down replica, a restart of an up
  // one, or a partition or heal on an unreplicated tier.
  Status Inject(const Fault& fault);
  // Injects `fault` at `at`; a fault that fails when it fires is logged and
  // dropped. A crash with an outage is two calls: kCrash, then kRestart.
  void Schedule(SimTime at, const Fault& fault);

  // Total bytes Keypad moved over the client link (bandwidth accounting).
  uint64_t ClientBytesSent() const { return client_link_.bytes_sent(); }

  // --- Theft workflow helpers. ----------------------------------------------

  // Owner-side response to a reported loss: disables the device at both
  // services (remote data control).
  void ReportDeviceLost();
  // Disk image for an attacker.
  RawDeviceAttacker MakeAttacker();
  // Builds the attacker's own service clients (stolen credentials) so an
  // online attack can run against this deployment's services.
  // The stolen laptop's config names every shard and replica endpoint, so
  // the thief runs the same client stack the owner's laptop did.
  struct AttackerClients {
    // Paired only: the clients' own link to the datacenter at
    // options.profile (the laptop's link is its Bluetooth hop to the
    // phone). Null unpaired, where they share the laptop's link.
    std::unique_ptr<NetworkLink> link;
    // Replica 0 of key shard 0 and of the metadata tier.
    std::unique_ptr<RpcClient> key_rpc;
    std::unique_ptr<RpcClient> meta_rpc;
    // Replica 0 of every further key shard.
    std::vector<std::unique_ptr<RpcClient>> shard_rpcs;
    // Backup-replica endpoints: the thief's stubs fail over exactly like
    // the owner's did.
    std::vector<std::unique_ptr<RpcClient>> replica_rpcs;
    // Shard 0's stub, every further shard's, and the router over them
    // (never null).
    std::unique_ptr<KeyServiceClient> key;
    std::vector<std::unique_ptr<KeyServiceClient>> shard_stubs;
    std::unique_ptr<ShardRouter> router;
    std::unique_ptr<MetadataServiceClient> meta;
    // When the deployment runs sealed channels, the thief derives the same
    // channel roots from the stolen secrets.
    std::unique_ptr<SecureRandom> channel_rng;
    std::vector<std::unique_ptr<SecureChannel>> channels;
    KeypadFs::Services services;
  };
  Result<AttackerClients> MakeAttackerClients(
      const KeypadFs::Credentials& creds);

  // --- Cloud backup + restore-after-theft (cloud_backup mode). --------------

  // Null unless options.cloud_backup.
  SimObjectStore* cloud_store() { return cloud_store_.get(); }
  WriteBackQueue* write_back() { return write_back_.get(); }

  // Synchronously drains the laptop's dirty set to the cloud and commits a
  // new manifest generation, pumping the event queue until the upload batch
  // settles past the eventual-consistency window.
  Status BackupNow();

  // A replacement laptop enrolled after theft: its own block device
  // (rebuilt from the cloud), its own service identity, and a mounted
  // KeypadFs. The clients field reuses the credential-derived stub wiring
  // (MakeAttackerClients builds stubs for WHOEVER holds the credentials —
  // here the rightful owner's new hardware).
  struct ReplacementDevice {
    std::string device_id;
    std::unique_ptr<BlockDevice> device;
    AttackerClients clients;
    std::unique_ptr<KeypadFs> fs;
    RestoreReport restore;
  };
  // Restore-after-theft workflow (DESIGN.md §12): registers a fresh device
  // identity with every key shard/replica and the metadata tier, re-binds
  // the stolen device's keys to it (TransferDeviceKeys — requires the old
  // device to already be disabled via ReportDeviceLost), rebuilds the
  // volume byte-for-byte from the last committed cloud generation, and
  // mounts it with the owner's password. Fails unless cloud_backup is on.
  Result<ReplacementDevice> EnrollReplacementDevice(
      const std::string& new_device_id);

 private:
  // One audit tier's replica group: a key shard, or the metadata tier.
  // Replica 0 is the initial primary (the whole group when unreplicated);
  // `set` coordinates the group and is null when it has one replica.
  template <typename Service>
  struct ReplicaGroup {
    std::vector<std::unique_ptr<Service>> services;
    std::vector<std::unique_ptr<RpcServer>> servers;
    std::unique_ptr<ServiceReplicaSet<Service>> set;
    // Durable state each replica left at its crash; empty while it is up.
    std::vector<Bytes> snapshots;
    // The replica the last leader crash took down.
    size_t leader_crashed = 0;
  };

  // Builds `replicas` services (make_service(r)) and their RPC servers,
  // the replica set when replicas > 1 (seeded with set_seed), and binds
  // each service's RPC surface.
  template <typename Service, typename Make>
  void AddGroup(ReplicaGroup<Service>& group, size_t replicas,
                uint64_t set_seed, Make make_service);
  // Registers `device_id` with every replica of both tiers under one MAC
  // secret per tier, minted by the tier's first service.
  KeypadFs::Credentials RegisterEverywhere(const std::string& device_id);
  // A tier stub over one RpcClient per replica: plain with one endpoint,
  // replica-aware (leader hint, redirects, failover budget) otherwise.
  template <typename Stub>
  std::unique_ptr<Stub> MakeStub(std::vector<RpcClient*> rpcs,
                                 const std::string& device_id,
                                 const Bytes& secret);

  // One client stack (DESIGN.md §29): key_rpcs[shard][replica] and
  // meta_rpcs[replica] over one link, one stub per key shard routing across
  // its group, the router over those stubs, and the metadata stub.
  struct ClientStack {
    std::vector<std::vector<std::unique_ptr<RpcClient>>> key_rpcs;
    std::vector<std::unique_ptr<RpcClient>> meta_rpcs;
    std::vector<std::unique_ptr<KeyServiceClient>> key_stubs;
    std::unique_ptr<ShardRouter> key_router;
    std::unique_ptr<MetadataServiceClient> meta;
  };
  // Builds `stack` over `link`, to key_servers[shard][replica] and
  // meta_servers[replica], in that order (RpcClient ids are allocated in
  // construction order and seed the retry jitter).
  void BuildStack(ClientStack& stack, NetworkLink* link,
                  const std::vector<std::vector<RpcServer*>>& key_servers,
                  const std::vector<RpcServer*>& meta_servers,
                  const KeypadFs::Credentials& creds,
                  ShardRouter::Options router);
  // Runs an admin mutation through the group's leader (which ships it to
  // the backups at once) when replicated, on replica 0 otherwise.
  template <typename Service, typename Mutate>
  static Status OnLeader(ReplicaGroup<Service>& group, Mutate mutate);
  template <typename Service>
  static Status Apply(ReplicaGroup<Service>& group, const Fault& fault);

  DeploymentOptions options_;
  EventQueue queue_;
  BlockDevice device_;

  // Services and their RPC servers: one group per key shard (one shard
  // reproduces the historical single-service layout exactly) and one for
  // the metadata tier.
  std::vector<ReplicaGroup<KeyService>> key_tier_;
  ReplicaGroup<MetadataService> meta_tier_;

  // Links.
  NetworkLink client_link_;   // Laptop -> services (or -> phone).
  NetworkLink phone_uplink_;  // Phone -> services.

  // Transport-encryption state (secure_channel mode): each side's nonce
  // source and the channels they seal under.
  std::unique_ptr<SecureRandom> channel_client_rng_;
  std::unique_ptr<SecureRandom> channel_server_rng_;
  std::vector<std::unique_ptr<SecureChannel>> channels_;

  // Paired mode: the phone's client stack over phone_uplink_, and the
  // proxy it backs.
  ClientStack phone_stack_;
  std::unique_ptr<PhoneProxy> phone_;

  // The laptop's client stack over client_link_ (to the phone when paired).
  std::unique_ptr<BrownoutController> brownout_;
  ClientStack laptop_;
  std::unique_ptr<KeypadFs> fs_;

  // Cloud backup tier (cloud_backup mode; both null otherwise).
  std::unique_ptr<SimObjectStore> cloud_store_;
  std::unique_ptr<WriteBackQueue> write_back_;

  ForensicAuditor auditor_;
};

}  // namespace keypad

#endif  // SRC_KEYPAD_DEPLOYMENT_H_
