// The remote key service (Figure 2 of the paper).
//
// Maintains the mapping audit-ID → remote key K_R_F, durably logging every
// key operation before responding — the core mechanism that entangles file
// access with audit logging. Also implements remote data control: disabling
// a device (or a single key) makes every subsequent fetch fail, and
// destroying a key erases it permanently (assured delete).
//
// The service sees only opaque IDs and keys, never pathnames — the privacy
// split between the key and metadata services (§3.1).

#ifndef SRC_KEYSERVICE_KEY_SERVICE_H_
#define SRC_KEYSERVICE_KEY_SERVICE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/auditlog/log_options.h"
#include "src/auditlog/segment_store.h"
#include "src/blockdev/cloud_store.h"
#include "src/cryptocore/secure_random.h"
#include "src/keyservice/audit_log.h"
#include "src/keyservice/hot_key_cache.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

// Replication delta (DESIGN.md §9): the sealed audit-log suffix a leader
// streams to its backups before releasing the responses held on the seal,
// plus the key-store and device mutations those entries describe. A backup
// applies a delta atomically: chain-continuity is verified before any
// state changes.
struct KeyReplDelta {
  std::vector<AuditLogEntry> entries;
  struct KeyChange {
    std::string device_id;
    AuditId audit_id;
    Bytes key;            // Empty for flag-only changes (disable).
    bool disabled = false;
    bool erased = false;  // Assured delete: remove (and zero) the record.
  };
  std::vector<KeyChange> key_changes;
  struct DeviceChange {
    std::string device_id;
    bool disabled = false;
  };
  std::vector<DeviceChange> device_changes;

  bool empty() const {
    return entries.empty() && key_changes.empty() && device_changes.empty();
  }
  WireValue ToWire() const;
  static Result<KeyReplDelta> FromWire(const WireValue& value);
};

// Tuning for one key-service shard (DESIGN.md §8).
struct KeyServiceOptions {
  // Group-commit window. Zero (the default) seals every RPC's appends when
  // the request completes — the classic "durably log, then respond" path.
  // Positive: appends from RPCs arriving within one window are staged and
  // sealed together as one commit group, and every staged RPC's response is
  // withheld until the group seal lands (keys still never leave the service
  // before their log entry is durable).
  SimDuration commit_window;
  // Virtual CPU charged to the shard per seal (the fsync + chain step) and
  // per entry sealed. Zero by default so existing deployments are
  // cost-identical to the unsharded service.
  SimDuration seal_cost_fixed;
  SimDuration seal_cost_per_entry;
  // Virtual CPU to unwrap one key record into releasable form (the HSM /
  // unseal work of a cold release). Charged through the seal-charge hook
  // per key released; a hot-key-cache hit skips it. Zero by default, so
  // existing deployments are cost-identical.
  SimDuration unwrap_cost;
  // Server-side hot-key cache (DESIGN.md §13): tracks unwrapped-resident
  // key records so repeat fetches skip the unwrap charge. Hits still
  // append their audit entry — the cache is audit-preserving, never
  // audit-bypassing. Holds KeyService::kHotKeyCapacity records.
  bool hot_key_cache = true;
  // Audit-log lifecycle (DESIGN.md §15): segment size, cold shipping, and
  // checkpoint-anchored truncation.
  SegmentedLogOptions log;
};

class KeyService {
 public:
  static constexpr size_t kRemoteKeyLen = 32;
  // Records the server-side hot-key cache holds when enabled.
  static constexpr size_t kHotKeyCapacity = 4096;

  KeyService(EventQueue* queue, uint64_t rng_seed,
             KeyServiceOptions options = {});

  // --- Administrative API (runs over a trusted path, e.g. the IT
  //     department's console or the drive maker's web service). ------------

  // Registers a device and returns its authentication secret.
  Bytes RegisterDevice(const std::string& device_id);
  // Registers a device under a secret minted elsewhere — how a sharded
  // deployment gives every shard the same per-device credential.
  void RegisterDeviceWithSecret(const std::string& device_id,
                                const Bytes& secret);
  // Remote data control: every key fetch for this device now fails.
  Status DisableDevice(const std::string& device_id);
  Status EnableDevice(const std::string& device_id);
  bool IsDeviceDisabled(const std::string& device_id) const;
  // Restore-after-theft (DESIGN.md §12): re-binds every key of a disabled
  // (stolen) device to a freshly registered replacement. The stolen
  // device's bindings stay in place — and stay fenced — so its audit trail
  // remains intact; each re-binding is logged kRestore under the new
  // device. Fails unless `from_id` is disabled and `to_id` is an enabled
  // registered device.
  Status TransferDeviceKeys(const std::string& from_id,
                            const std::string& to_id);

  // --- Client API (exposed over RPC; see BindRpc). ------------------------

  // Creates and stores a fresh remote key bound to `audit_id`; logs kCreate.
  // Fails kAlreadyExists if the ID is taken.
  Result<Bytes> CreateKey(const std::string& device_id,
                          const AuditId& audit_id);
  // Logs the access, then returns the key. `op` distinguishes demand
  // fetches, prefetches, and cache-refreshes in the log.
  Result<Bytes> GetKey(const std::string& device_id, const AuditId& audit_id,
                       AccessOp op = AccessOp::kDemandFetch);
  // Batch fetch for directory prefetching: one network round trip, one log
  // entry per ID. IDs that don't exist are skipped (no error).
  Result<std::vector<std::pair<AuditId, Bytes>>> GetKeys(
      const std::string& device_id, const std::vector<AuditId>& audit_ids,
      AccessOp op = AccessOp::kPrefetch);
  // Combined demand fetch + directory prefetch in one round trip: the
  // demand ID is logged kDemandFetch, the rest kPrefetch. The demand key
  // must exist; missing prefetch IDs are skipped.
  struct GroupFetchResult {
    Bytes demand_key;
    std::vector<std::pair<AuditId, Bytes>> prefetched;
  };
  Result<GroupFetchResult> FetchGroup(const std::string& device_id,
                                      const AuditId& demand_id,
                                      const std::vector<AuditId>& prefetch_ids);

  // Typed multi-key fetch (DESIGN.md §13): one RPC carries N ids, each with
  // its own access op, so a demand fetch and its prefetch batch — or many
  // coalesced demand fetches — amortize one auth frame, one unwrap pass,
  // and one commit-group seal. Every released key appends exactly one entry
  // typed with its item's op. Missing or disabled ids come back as per-id
  // misses (with the status a lone fetch would have returned) instead of
  // failing their batch siblings. A disabled device gets one kDenied entry
  // per attempted id — the storm of attempts is forensically valuable —
  // and the whole call fails kPermissionDenied.
  struct MultiGetItem {
    AuditId audit_id;
    AccessOp op = AccessOp::kDemandFetch;
  };
  struct MultiGetMiss {
    AuditId audit_id;
    Status status;
  };
  struct MultiGetResult {
    // Granted keys, in request order (duplicates allowed: each request
    // item that hits contributes its own pair and its own audit entry).
    std::vector<std::pair<AuditId, Bytes>> keys;
    std::vector<MultiGetMiss> misses;
  };
  Result<MultiGetResult> GetKeysTyped(const std::string& device_id,
                                      const std::vector<MultiGetItem>& items);

  // Paired-device support: a journaled access/creation uploaded after the
  // fact. For kCreate entries `key` carries the phone-generated remote key
  // (stored if the ID is new). Entries are appended with the original
  // client timestamps.
  struct JournalEntry {
    AuditId audit_id;
    AccessOp op = AccessOp::kDemandFetch;
    SimTime client_time;
    Bytes key;  // Only for kCreate.
  };
  Status UploadJournal(const std::string& device_id,
                       const std::vector<JournalEntry>& entries);

  // Client reports that it securely erased a cached key (e.g. hibernation).
  Status NoteEviction(const std::string& device_id, const AuditId& audit_id);
  // Disables a single file's key.
  Status DisableKey(const std::string& device_id, const AuditId& audit_id);
  // Permanently destroys key material (assured delete).
  Status DestroyKey(const std::string& device_id, const AuditId& audit_id);

  // --- Audit API. ---------------------------------------------------------

  const AuditLog& log() const { return log_; }
  // Every committed entry with timestamp >= since, oldest first — including
  // checkpointed prefixes the log truncated from memory (fetched back from
  // the cold tier, bit-rot repaired if needed). The forensic full-history
  // view.
  std::vector<AuditLogEntry> LogSince(SimTime since) const;
  // Incremental audit: the committed tail with seq >= next_seq.
  std::vector<AuditLogEntry> LogAfterSeq(uint64_t next_seq) const {
    return log_.EntriesAfterSeq(next_seq);
  }

  // Per-device secret lookup (used by client stubs inside the simulation
  // at registration time).
  Result<Bytes> DeviceSecret(const std::string& device_id) const;

  // Registers RPC handlers (key.create, key.get, key.get_batch, key.evict)
  // on `server`. Handlers authenticate the device tag before acting.
  void BindRpc(RpcServer* server);

  // Durable backup (§6: the services "routinely back up their state").
  // The snapshot carries devices, keys, and the full audit log; Restore
  // verifies the log's hash chain before accepting it.
  Bytes Snapshot() const;
  Status Restore(const Bytes& snapshot);

  // Number of keys currently stored (destroyed keys excluded).
  size_t key_count() const { return keys_.size(); }

  // --- Group commit + crash plumbing (DESIGN.md §8). ----------------------

  // Bills seal CPU somewhere (a sharded deployment wires this to the
  // shard's RpcServer::ChargeBusy so group-commit amortization shows up in
  // the shard's service capacity).
  void set_seal_charge(std::function<void(SimDuration)> charge) {
    seal_charge_ = std::move(charge);
  }

  // Seals the open commit window now (if any) and releases the responses
  // waiting on it. Test/bench hook; the scheduled flush does this normally.
  void FlushCommitWindow();

  // Drops every hot-key cache line (test/bench hook: benches pre-provision
  // keys in process, which marks them resident — measuring the serving
  // path's warmup requires starting it cold). Counters are untouched.
  void DropHotKeysForTesting() { hot_keys_.Clear(); }

  // Crash semantics: staged-but-unsealed log entries and the responses
  // waiting on the window seal are lost — correct, because those responses
  // were never sent, so no key left the service unlogged. Call before
  // Snapshot-on-crash and before Restore.
  void AbortStaged();

  // --- Replication hooks (DESIGN.md §9). ----------------------------------

  // Wires this service into a replica set as a potential leader. After each
  // seal the service hands the un-shipped delta to `replicator`, which must
  // call `done` exactly once when every in-sync backup acknowledged it —
  // only then do the held responses (and the keys inside them) leave the
  // service, extending the "durably log, then respond" barrier across the
  // replica set. Installing a replicator forces the RPC surface onto the
  // async held-response path even with a zero commit window; call before
  // BindRpc.
  using Replicator =
      std::function<void(KeyReplDelta, std::function<void()> done)>;
  void set_replicator(Replicator replicator) {
    replicator_ = std::move(replicator);
    // A replicated log must not truncate past what every peer holds. Block
    // truncation entirely until the replication engine installs its durable
    // watermark (set_durable_watermark).
    log_.set_truncate_anchor([] { return uint64_t{0}; });
  }
  bool replicated() const { return replicator_ != nullptr; }

  // Leadership gate for the client-facing key.* RPC surface: when set and
  // returning non-OK (kFailedPrecondition "NOT_LEADER:<i>"), the call is
  // rejected before executing. audit.* methods stay served by any replica.
  void set_serve_gate(std::function<Status()> gate) {
    serve_gate_ = std::move(gate);
  }

  // Backup-side apply: verifies the delta continues the local chain
  // (kDataLoss on divergence — the sender marks this backup out-of-sync),
  // then applies the key/device mutations.
  Status ApplyReplicated(const KeyReplDelta& delta);

  // Drains everything sealed since the last ship into one delta and
  // advances the shipped watermark.
  KeyReplDelta TakeUnshippedDelta();
  uint64_t shipped_seq() const { return shipped_seq_; }

  // Ships any sealed-but-unshipped suffix immediately — the admin path
  // (device disable) and a freshly promoted leader use this; RPC-driven
  // seals ship from FlushCommitWindow.
  void ReplicateNow(std::function<void()> done = {});

  // Bumps every time Restore() adopts a snapshot. Served alongside
  // audit.key_log_tail so a remote auditor can tell "the log under my
  // cursor was replaced" from "the log merely grew" (cursor re-sync).
  uint64_t restore_epoch() const { return restore_epoch_; }

  // The replication engine's truncation anchor: the prefix length known
  // durable on every replica. The log never truncates beyond it, so a
  // crashed peer's unacknowledged suffix is always reconcilable.
  void set_durable_watermark(std::function<uint64_t()> watermark) {
    log_.set_truncate_anchor(std::move(watermark));
  }

  // Cold tier for sealed audit segments (present iff cold shipping is on).
  SegmentStore* segment_store() { return segment_store_.get(); }
  SimObjectStore* cold_cloud() { return cold_cloud_.get(); }

  // Per-shard load metrics for BENCH_scale.json: how well group commit is
  // amortizing the chain.
  struct LoadStats {
    uint64_t log_entries = 0;
    uint64_t commit_groups = 0;
    uint64_t max_group_size = 0;
    double avg_group_size = 0;
    uint64_t seal_ns = 0;  // Host CPU spent sealing (real, not virtual).
    uint64_t window_flushes = 0;
    // Hot-key cache observability (DESIGN.md §13). Hits skipped the unwrap
    // charge; every hit still appended an audit entry.
    uint64_t hot_hits = 0;
    uint64_t hot_misses = 0;
    uint64_t hot_invalidations = 0;
    uint64_t hot_size = 0;
    // Denials short-circuited by the negative (revoked-device) cache.
    uint64_t negative_hits = 0;
    // Overload observability (DESIGN.md §14), merged from the bound
    // RpcServer: admission sheds by class, deadline-expired rejections,
    // the deepest the service queue ever got, and transitions into the
    // CoDel overloaded state (the brownout signal). Zero until BindRpc.
    uint64_t shed_demand = 0;
    uint64_t shed_prefetch = 0;
    uint64_t shed_background = 0;
    uint64_t deadline_expired = 0;
    uint64_t queue_depth_high_water = 0;
    uint64_t overload_events = 0;
  };
  LoadStats load_stats() const;

  const KeyServiceOptions& options() const { return options_; }

 private:
  struct DeviceRecord {
    Bytes secret;
    bool disabled = false;
  };
  struct KeyRecord {
    Bytes key;
    bool disabled = false;
  };
  using KeyMapKey = std::pair<std::string, AuditId>;

  // RAII commit group: appends inside the outermost scope seal together.
  // Nested scopes (a batched RPC inside an open commit window) collapse
  // into the enclosing group.
  class BatchScope {
   public:
    explicit BatchScope(KeyService* service) : service_(service) {
      service_->log_.BeginBatch();
    }
    ~BatchScope() { service_->NoteSealed(service_->log_.CommitBatch()); }

   private:
    KeyService* service_;
  };

  // Checks registration + revocation; logs denied attempts. Revoked
  // devices hit the negative cache so revocation storms fail fast.
  Status CheckDevice(const std::string& device_id, const AuditId& audit_id);

  // Bills the unwrap work for releasing (device, id): a hot-cache hit
  // skips the charge, a miss pays options_.unwrap_cost and marks the
  // record resident. Audit logging is the caller's job either way.
  void ChargeUnwrap(const KeyMapKey& map_key);
  // Coherence: drops the record's hot-cache line (key mutated or erased).
  void InvalidateHotKey(const KeyMapKey& map_key);
  void InvalidateHotDevice(const std::string& device_id);

  // All audit appends funnel through here: one entry = one commit group
  // unless an enclosing BatchScope or open commit window groups it.
  uint64_t LogAppend(SimTime timestamp, SimTime client_time,
                     const std::string& device_id, const AuditId& audit_id,
                     AccessOp op);
  uint64_t LogAppend(SimTime timestamp, const std::string& device_id,
                     const AuditId& audit_id, AccessOp op) {
    return LogAppend(timestamp, timestamp, device_id, audit_id, op);
  }

  // Bills a completed seal to the shard's CPU.
  void NoteSealed(size_t sealed);

  // Opens the commit window on the first staged RPC and schedules its
  // flush.
  void OpenCommitWindow();

  // Records a key/device mutation for the next replication delta (no-op
  // without a replicator).
  void NoteKeyChange(const std::string& device_id, const AuditId& audit_id,
                     const Bytes& key, bool disabled, bool erased);
  void NoteDeviceChange(const std::string& device_id, bool disabled);

  EventQueue* queue_;
  SecureRandom rng_;
  KeyServiceOptions options_;
  std::function<void(SimDuration)> seal_charge_;
  std::map<std::string, DeviceRecord> devices_;
  std::map<KeyMapKey, KeyRecord> keys_;
  AuditLog log_;
  // Cold tier (cold_ship only): sealed segments land in a storage backend,
  // mirrored to a simulated cloud store for bit-rot repair.
  std::unique_ptr<SimObjectStore> cold_cloud_;
  std::unique_ptr<SegmentStore> segment_store_;

  // Read-path fast caches (DESIGN.md §13).
  HotKeyCache hot_keys_;
  std::set<std::string> negative_devices_;  // Known-revoked device ids.
  uint64_t hot_hits_ = 0;
  uint64_t hot_misses_ = 0;
  uint64_t hot_invalidations_ = 0;
  uint64_t negative_hits_ = 0;

  // Replication state (replica sets only).
  Replicator replicator_;
  std::function<Status()> serve_gate_;
  uint64_t shipped_seq_ = 0;  // Log prefix already streamed to backups.
  std::vector<KeyReplDelta::KeyChange> pending_key_changes_;
  std::vector<KeyReplDelta::DeviceChange> pending_device_changes_;
  uint64_t restore_epoch_ = 0;

  // Open commit window state (commit_window > 0 only).
  struct PendingResponse {
    RpcServer::Responder respond;
    Result<WireValue> result;
  };
  bool window_open_ = false;
  EventQueue::EventId flush_event_ = EventQueue::kInvalidEvent;
  std::vector<PendingResponse> pending_responses_;
  uint64_t window_flushes_ = 0;

  // The server this service is bound to, so load_stats() can fold the
  // transport-level overload counters (sheds, expiries, queue depth)
  // into one per-shard view. Borrowed; set by BindRpc.
  RpcServer* rpc_server_ = nullptr;
};

}  // namespace keypad

#endif  // SRC_KEYSERVICE_KEY_SERVICE_H_
