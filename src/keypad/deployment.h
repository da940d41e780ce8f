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
#include "src/keyservice/replica_set.h"
#include "src/keyservice/shard_router.h"
#include "src/metaservice/meta_replica_set.h"
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
  // phone reaches the services over `profile`.
  bool paired_phone = false;
  PhoneProxy::Options phone_options;
  // Transport encryption (§6): client↔service traffic sealed under
  // per-device session keys that ratchet every Texp. Not supported
  // together with the phone proxy (the phone would need to re-seal).
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
  // KeypadFs config (prefetch suppression, accounted cache-lifetime
  // stretching).
  BrownoutOptions brownout;
  // Key-service tier width (DESIGN.md §8). With N > 1 the deployment runs N
  // independent KeyService shards behind a client-side ShardRouter; the
  // paired phone and sealed channels are single-endpoint features and force
  // N = 1.
  int key_shards = 1;
  // Per-shard service knobs: group-commit window and seal CPU costs.
  KeyServiceOptions key_service;
  // Router knobs (ring seed, vnodes, single-flight coalescing, batched
  // fetch).
  ShardRouter::Options router;
  // Replication width per shard (DESIGN.md §9). With R > 1 every shard runs
  // R replicas (primary + R−1 backups) under a lease-based ReplicaSet; the
  // laptop's stubs fail over between them and sealed audit groups stream to
  // the backups before client responses release. Like sharding, this is a
  // datacenter-side feature: the phone proxy and sealed channels force 1.
  int key_replicas = 1;
  // Lease/replication knobs applied to every shard's replica set (and to
  // the metadata tier's, when replicated).
  ReplicaSetOptions replica_set;
  // Replication width of the metadata tier (DESIGN.md §10). With R > 1 the
  // metadata service runs R replicas on the same generic substrate as the
  // key tier: hash-chained log suffixes stream to the backups before
  // responses (and the IBE unlock keys inside them) release, and the
  // laptop's stub fails over across the group. Every replica shares the
  // IBE master secret (the PKG is modelled as a shared HSM), so a promoted
  // backup mints the same unlock keys. Phone proxy and sealed channels
  // force 1, as with the key tier.
  int meta_replicas = 1;
  // Audit-log lifecycle of every metadata replica (DESIGN.md §15); the
  // key tier's is key_service.log.
  SegmentedLogOptions meta_log;
  // Write-back cloud replication (DESIGN.md §12): attaches a simulated
  // object store plus a WriteBackQueue over the laptop's block device.
  // BackupNow() uploads the dirty set and commits a manifest generation;
  // EnrollReplacementDevice() rebuilds a stolen laptop's volume from it.
  bool cloud_backup = false;
  CloudStoreOptions cloud;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options);
  ~Deployment();

  EventQueue& queue() { return queue_; }
  KeypadFs& fs() { return *fs_; }
  // Shard 0 — the whole tier when key_shards == 1 (the historical layout).
  // With replication this is the shard's replica 0 (the initial primary),
  // which may no longer lead after a failover; see replica_set().
  KeyService& key_service() { return *key_shards_[0]; }
  size_t key_shard_count() const { return key_shards_.size(); }
  KeyService& key_shard(size_t i) { return *key_shards_[i]; }
  // Replication accessors. replica 0 of shard i is key_shard(i) itself;
  // replicas 1..R−1 are the backups. replica_set(i) is null when R == 1.
  size_t key_replica_count() const {
    return static_cast<size_t>(options_.key_replicas);
  }
  KeyService& key_replica(size_t shard, size_t replica) {
    return replica == 0 ? *key_shards_[shard]
                        : *key_backup_services_[shard][replica - 1];
  }
  RpcServer& key_replica_rpc_server(size_t shard, size_t replica) {
    return replica == 0 ? *key_rpc_servers_[shard]
                        : *key_backup_servers_[shard][replica - 1];
  }
  ReplicaSet* replica_set(size_t shard) {
    return replica_sets_.empty() ? nullptr : replica_sets_[shard].get();
  }
  // The replica-aware stub for shard i (what the router routes to).
  KeyServiceClient& key_stub(size_t i) { return *key_clients_[i]; }
  // Null when unsharded (KeypadFs talks straight to the shard-0 stub).
  ShardRouter* key_router() { return key_router_.get(); }
  // What KeypadFs actually talks to: the router when sharded, the shard-0
  // stub otherwise.
  KeyClient& key_client() {
    return key_router_ != nullptr
               ? static_cast<KeyClient&>(*key_router_)
               : static_cast<KeyClient&>(*key_clients_[0]);
  }
  // Replica 0 — the whole metadata tier when meta_replicas == 1. With
  // replication this is the initial primary, which may no longer lead
  // after a failover; see meta_replica_set().
  MetadataService& metadata_service() { return *meta_services_[0]; }
  size_t meta_replica_count() const {
    return static_cast<size_t>(options_.meta_replicas);
  }
  MetadataService& meta_replica(size_t r) { return *meta_services_[r]; }
  RpcServer& meta_replica_rpc_server(size_t r) {
    return *meta_rpc_servers_[r];
  }
  // Null when meta_replicas == 1.
  MetaReplicaSet* meta_replica_set() { return meta_replica_set_.get(); }
  // The laptop's (replica-aware) metadata stub.
  MetadataServiceClient& meta_client() { return *meta_client_; }
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
  // The phone's uplink (only meaningful when paired).
  NetworkLink& phone_uplink() { return phone_uplink_; }

  // RPC plumbing, exposed for fault-injection tests and benches. The
  // unqualified key accessors mean shard 0.
  RpcServer& key_rpc_server() { return *key_rpc_servers_[0]; }
  RpcServer& key_shard_rpc_server(size_t i) { return *key_rpc_servers_[i]; }
  RpcServer& meta_rpc_server() { return *meta_rpc_servers_[0]; }
  RpcClient& key_rpc() { return *key_rpcs_[0]; }
  RpcClient& key_shard_rpc(size_t i) { return *key_rpcs_[i]; }
  RpcClient& meta_rpc() { return *meta_rpc_; }

  // --- Crash/restart simulation. --------------------------------------------
  //
  // CrashXxx marks the service's RPC server down (requests are swallowed)
  // and snapshots the durable state as of the crash instant; RestartXxx
  // rebuilds the service in place from that snapshot and brings the server
  // back up. In-flight requests that had not reached the durable log are
  // lost, exactly as a process crash loses them; the reply cache's
  // completed window is durable (DESIGN.md §7) so only in-flight dedup
  // marks are cleared. ScheduleXxx wires both onto the event queue.
  // Per-shard crash/restart; the legacy names mean shard 0. A crash drops
  // any group-commit window still staged (entries that never sealed were
  // never durable — clients retry) along with its unsent responses.
  // With replication, CrashKeyShard kills the shard's *current leader*
  // (whichever replica that is at crash time) and RestartKeyShard brings
  // that same replica back; CrashKeyReplica targets a specific replica.
  void CrashKeyShard(size_t i);
  void RestartKeyShard(size_t i);
  void CrashKeyService() { CrashKeyShard(0); }
  void RestartKeyService() { RestartKeyShard(0); }
  void CrashKeyReplica(size_t shard, size_t replica);
  void RestartKeyReplica(size_t shard, size_t replica);
  // With replication, CrashMetadataService kills the metadata tier's
  // *current leader* and RestartMetadataService brings that same replica
  // back; CrashMetaReplica targets a specific replica.
  void CrashMetadataService();
  void RestartMetadataService();
  void CrashMetaReplica(size_t replica);
  void RestartMetaReplica(size_t replica);
  void ScheduleKeyShardCrash(size_t i, SimTime at, SimDuration outage);
  void ScheduleKeyServiceCrash(SimTime at, SimDuration outage) {
    ScheduleKeyShardCrash(0, at, outage);
  }
  void ScheduleKeyReplicaCrash(size_t shard, size_t replica, SimTime at,
                               SimDuration outage);
  // Silently partitions one replica off the replication mesh (its client
  // link stays up — the split-brain scenario). No-op when unreplicated.
  void PartitionKeyReplica(size_t shard, size_t replica, bool partitioned);
  void ScheduleKeyReplicaPartition(size_t shard, size_t replica, SimTime at,
                                   SimDuration duration);
  void ScheduleMetadataServiceCrash(SimTime at, SimDuration outage);
  void ScheduleMetaReplicaCrash(size_t replica, SimTime at,
                                SimDuration outage);
  void PartitionMetaReplica(size_t replica, bool partitioned);
  void ScheduleMetaReplicaPartition(size_t replica, SimTime at,
                                    SimDuration duration);

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
  struct AttackerClients {
    // Shard-0 plumbing (the whole tier when unsharded).
    std::unique_ptr<RpcClient> key_rpc;
    std::unique_ptr<RpcClient> meta_rpc;
    std::unique_ptr<KeyServiceClient> key;
    std::unique_ptr<MetadataServiceClient> meta;
    // Remaining shards plus the thief's own router (sharded deployments:
    // the stolen laptop's config names every shard endpoint).
    std::vector<std::unique_ptr<RpcClient>> shard_rpcs;
    std::vector<std::unique_ptr<KeyServiceClient>> shard_stubs;
    std::unique_ptr<ShardRouter> router;
    // Backup-replica endpoints (replicated deployments: the thief's stubs
    // fail over exactly like the owner's did).
    std::vector<std::unique_ptr<RpcClient>> replica_rpcs;
    // When the deployment runs sealed channels, the thief derives the same
    // channel roots from the stolen secrets.
    std::unique_ptr<SecureRandom> channel_rng;
    std::unique_ptr<SecureChannel> key_channel;
    std::unique_ptr<SecureChannel> meta_channel;
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
  DeploymentOptions options_;
  EventQueue queue_;
  BlockDevice device_;

  // Services and their RPC servers. The key tier is a vector of shards
  // (size 1 reproduces the historical single-service layout exactly).
  // key_shards_[i] is shard i's replica 0; with key_replicas R > 1 the
  // backups live in key_backup_services_[i][0..R−2] and one ReplicaSet per
  // shard coordinates the whole group.
  std::vector<std::unique_ptr<KeyService>> key_shards_;
  std::vector<std::unique_ptr<RpcServer>> key_rpc_servers_;
  std::vector<std::vector<std::unique_ptr<KeyService>>> key_backup_services_;
  std::vector<std::vector<std::unique_ptr<RpcServer>>> key_backup_servers_;
  std::vector<std::unique_ptr<ReplicaSet>> replica_sets_;
  // Metadata tier: meta_services_[0] is the initial primary (the whole
  // tier when unreplicated); with meta_replicas R > 1 the backups follow
  // and one MetaReplicaSet coordinates the group.
  std::vector<std::unique_ptr<MetadataService>> meta_services_;
  std::vector<std::unique_ptr<RpcServer>> meta_rpc_servers_;
  std::unique_ptr<MetaReplicaSet> meta_replica_set_;

  // Links.
  NetworkLink client_link_;   // Laptop -> services (or -> phone).
  NetworkLink phone_uplink_;  // Phone -> services.

  // Phone-side plumbing (paired mode).
  std::unique_ptr<RpcClient> phone_key_rpc_;
  std::unique_ptr<RpcClient> phone_meta_rpc_;
  std::unique_ptr<KeyServiceClient> phone_key_client_;
  std::unique_ptr<MetadataServiceClient> phone_meta_client_;
  std::unique_ptr<PhoneProxy> phone_;

  // Transport-encryption state (secure_channel mode): per-service channel
  // pairs plus the RNGs that supply nonces.
  std::unique_ptr<SecureRandom> channel_client_rng_;
  std::unique_ptr<SecureRandom> channel_server_rng_;
  std::unique_ptr<SecureChannel> key_channel_client_;
  std::unique_ptr<SecureChannel> key_channel_server_;
  std::unique_ptr<SecureChannel> meta_channel_client_;
  std::unique_ptr<SecureChannel> meta_channel_server_;

  // Laptop-side plumbing: one RpcClient + stub per key shard, and the
  // router over them when sharded. key_rpcs_[i] reaches shard i's replica
  // 0; key_backup_rpcs_[i] reach its backups (all over client_link_), and
  // the shard's stub routes across the whole group.
  std::vector<std::unique_ptr<RpcClient>> key_rpcs_;
  std::vector<std::vector<std::unique_ptr<RpcClient>>> key_backup_rpcs_;
  std::unique_ptr<RpcClient> meta_rpc_;
  std::vector<std::unique_ptr<RpcClient>> meta_backup_rpcs_;
  std::vector<std::unique_ptr<KeyServiceClient>> key_clients_;
  std::unique_ptr<BrownoutController> brownout_;
  std::unique_ptr<ShardRouter> key_router_;
  std::unique_ptr<MetadataServiceClient> meta_client_;
  std::unique_ptr<KeypadFs> fs_;

  // Cloud backup tier (cloud_backup mode; both null otherwise).
  std::unique_ptr<SimObjectStore> cloud_store_;
  std::unique_ptr<WriteBackQueue> write_back_;

  ForensicAuditor auditor_;

  // Crash-time snapshots of the services' durable state, per replica
  // ([shard][replica]; column 0 is the unreplicated case), plus which
  // replica the last CrashKeyShard(i) actually took down.
  std::vector<std::vector<Bytes>> key_replica_snapshots_;
  std::vector<size_t> last_crashed_replica_;
  std::vector<Bytes> meta_replica_snapshots_;
  size_t last_crashed_meta_replica_ = 0;
};

}  // namespace keypad

#endif  // SRC_KEYPAD_DEPLOYMENT_H_
