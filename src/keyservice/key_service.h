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

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/auditlog/log_options.h"
#include "src/keyservice/audit_log.h"
#include "src/keyservice/hot_key_cache.h"
#include "src/keyservice/key_client.h"
#include "src/replication/service_replica_set.h"
#include "src/replication/service_shell.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

// One key-store mutation in a replication delta: a new or re-bound key, a
// per-key disable, or an assured delete.
struct KeyChange {
  std::string device_id;
  AuditId audit_id;
  Bytes key;            // Empty for flag-only changes (disable).
  bool disabled = false;
  bool erased = false;  // Assured delete: remove (and zero) the record.

  WireValue ToWire() const;
  static Result<KeyChange> FromWire(const WireValue& value);
};

// The key tier as the service shell sees it (DESIGN.md §21).
struct KeyTier {
  using Log = AuditLog;
  using Change = KeyChange;
  static constexpr const char* kService = "key service";
  static constexpr const char* kName = "key";
  static constexpr const char* kRowsField = "entries";
  static constexpr const char* kChangesField = "keys";
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

// The device table, held-response window, replication hooks, snapshot and
// audit.key_* surface come from the shell (DESIGN.md §21); this class adds
// the key store, the read-path caches and group-commit sealing.
class KeyService : public ServiceShell<KeyTier> {
 public:
  static constexpr size_t kRemoteKeyLen = 32;
  // Records the server-side hot-key cache holds when enabled.
  static constexpr size_t kHotKeyCapacity = 4096;

  KeyService(EventQueue* queue, uint64_t rng_seed,
             KeyServiceOptions options = {});

  // --- Administrative API (runs over a trusted path, e.g. the IT
  //     department's console or the drive maker's web service). ------------

  // Remote data control: every key fetch for this device now fails, and
  // one kRevoke row marks the control action in the audit trail.
  Status DisableDevice(const std::string& device_id);
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
  // fetches, prefetches, and cache-refreshes in the log. A one-item
  // Release.
  Result<Bytes> GetKey(const std::string& device_id, const AuditId& audit_id,
                       AccessOp op = AccessOp::kDemandFetch);

  // Typed multi-key fetch (DESIGN.md §13): one RPC carries N ids, each with
  // its own access op, so a demand fetch and its prefetch batch — or many
  // coalesced demand fetches — amortize one auth frame, one unwrap pass,
  // and one commit-group seal. A Release whose outcomes are split into
  // granted keys and per-id misses.
  using MultiGetItem = KeyClient::MultiGetItem;
  using MultiGetMiss = KeyClient::MultiGetMiss;
  using MultiGetResult = KeyClient::MultiGetResult;
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

  // Every committed entry with timestamp >= since, oldest first — including
  // checkpointed prefixes the log truncated from memory (fetched back from
  // the cold tier, bit-rot repaired if needed). The forensic full-history
  // view.
  std::vector<AuditLogEntry> LogSince(SimTime since) const;
  // Incremental audit: the committed tail with seq >= next_seq.
  std::vector<AuditLogEntry> LogAfterSeq(uint64_t next_seq) const {
    return log_.EntriesAfterSeq(next_seq);
  }

  // Registers the key.* methods and the shell's audit.key_* methods on
  // `server`. Handlers authenticate the device tag before acting.
  void BindRpc(RpcServer* server);

  // Number of keys currently stored (destroyed keys excluded).
  size_t key_count() const { return keys_.size(); }

  // --- Group commit (DESIGN.md §8). ---------------------------------------

  // Bills seal CPU somewhere (a sharded deployment wires this to the
  // shard's RpcServer::ChargeBusy so group-commit amortization shows up in
  // the shard's service capacity).
  void set_seal_charge(std::function<void(SimDuration)> charge) {
    seal_charge_ = std::move(charge);
  }

  // Drops every hot-key cache line (test/bench hook: benches pre-provision
  // keys in process, which marks them resident — measuring the serving
  // path's warmup requires starting it cold). Counters are untouched.
  void DropHotKeysForTesting() { hot_keys_.Clear(); }

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
    // kDenied rows served by the negative (revoked-device) cache: one per
    // attempted id, whichever verb carried it.
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

 protected:
  // Shell hooks: the commit window is one commit group (appends staged
  // while it is open seal together at the flush), and a crash drops the
  // staged rows with it.
  void OnWindowOpen() override { log_.BeginBatch(); }
  void OnWindowFlush() override;
  void OnAbort() override { log_.DiscardStaged(); }
  void OnDeviceFlag(const std::string& device_id, bool disabled) override;
  void ApplyChanges(const std::vector<KeyChange>& changes) override;
  void SnapshotState(WireValue::Struct& snapshot) const override;
  Result<std::function<void()>> ParseState(const WireValue& snapshot) override;

 private:
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

  // The one release routine (DESIGN.md §26): every key that leaves the
  // service, and every kDenied row for a fetch, comes from here. Each
  // released key appends exactly one entry typed with its item's op before
  // it is returned (paper §3.1). Missing or disabled ids come back as
  // per-item failures (the status a lone fetch would have returned) instead
  // of failing their siblings; a disabled key logs kDenied. A disabled
  // device gets one kDenied entry per attempted id — the storm of attempts
  // is forensically valuable — and the whole call fails
  // kPermissionDenied. All of a call's appends seal as one commit group.
  // Outcomes are in request order.
  Result<std::vector<Result<Bytes>>> Release(
      const std::string& device_id, const std::vector<MultiGetItem>& items);

  // Checks registration + revocation for a create or an eviction notice;
  // logs denied attempts. Revoked devices hit the negative cache so
  // revocation storms fail fast.
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

  KeyServiceOptions options_;
  std::function<void(SimDuration)> seal_charge_;
  std::map<KeyMapKey, KeyRecord> keys_;

  // Read-path fast caches (DESIGN.md §13).
  HotKeyCache hot_keys_;
  std::set<std::string> negative_devices_;  // Known-revoked device ids.
  uint64_t hot_hits_ = 0;
  uint64_t hot_misses_ = 0;
  uint64_t hot_invalidations_ = 0;
  uint64_t negative_hits_ = 0;
  uint64_t window_flushes_ = 0;

  // The server this service is bound to, so load_stats() can fold the
  // transport-level overload counters (sheds, expiries, queue depth)
  // into one per-shard view. Borrowed; set by BindRpc.
  RpcServer* rpc_server_ = nullptr;
};

// One key-service shard's replica set (DESIGN.md §9).
using ReplicaSet = ServiceReplicaSet<KeyService>;

}  // namespace keypad

#endif  // SRC_KEYSERVICE_KEY_SERVICE_H_
