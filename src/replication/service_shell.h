// The service half of the replication seam (DESIGN.md §21): everything the
// key service and the metadata service share, written once.
//
// Both audit services enforce one rule — log durably, then release — and
// host it on the same machinery: a device table with per-device MAC
// secrets, an authenticated RPC binder whose responses can be held until
// the log (and, replicated, every in-sync backup) has the rows that
// justify them, delta staging for the replica set, a snapshot/restore of
// the log lifecycle, the <tier>.upload_journal verb, and the three
// audit.<tier>_* handlers a remote auditor reads. ServiceShell<Tier> owns
// all of it; a tier derives from it and adds its own state (keys, or roots
// and the PKG) through a few hooks. The shell never branches on which tier
// it serves: tier text (error prefixes, the segment/audit-method tier
// name, delta field names) comes from Tier's constants.
//
// A Tier provides:
//   using Log = ...;     // a SegmentedLog adapter
//   using Change = ...;  // one tier-state mutation, with ToWire/FromWire
//   using JournalEntry = ...;  // with ToJournalWire/FromJournalWire
//   static constexpr const char* kService;       // "key service"
//   static constexpr const char* kName;          // "key" (segments, audit.*)
//   static constexpr const char* kRowsField;     // delta field for log rows
//   static constexpr const char* kChangesField;  // delta field for Changes

#ifndef SRC_REPLICATION_SERVICE_SHELL_H_
#define SRC_REPLICATION_SERVICE_SHELL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/auditlog/log_options.h"
#include "src/auditlog/seal.h"
#include "src/auditlog/segment_store.h"
#include "src/blockdev/cloud_store.h"
#include "src/cryptocore/secure_random.h"
#include "src/keyservice/auth.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/result.h"
#include "src/wire/binary_codec.h"

namespace keypad {

// One wire element per item (each item's own ToWire), and back.
template <typename T>
WireValue ToWireList(const std::vector<T>& items) {
  WireValue::Array out;
  out.reserve(items.size());
  for (const T& item : items) {
    out.push_back(item.ToWire());
  }
  return WireValue(std::move(out));
}

template <typename T>
Result<std::vector<T>> FromWireList(const WireValue& value,
                                    const std::string& field) {
  KP_ASSIGN_OR_RETURN(WireValue list, value.Field(field));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw, list.AsArray());
  std::vector<T> out;
  for (const auto& item : raw) {
    KP_ASSIGN_OR_RETURN(T parsed, T::FromWire(item));
    out.push_back(std::move(parsed));
  }
  return out;
}

// A device-control flip (disable or re-enable) carried in a delta.
struct DeviceChange {
  std::string device_id;
  bool disabled = false;

  WireValue ToWire() const {
    WireValue::Struct d;
    d.emplace("device", WireValue(device_id));
    d.emplace("disabled", WireValue(disabled));
    return WireValue(std::move(d));
  }
  static Result<DeviceChange> FromWire(const WireValue& value) {
    DeviceChange change;
    KP_ASSIGN_OR_RETURN(WireValue device_v, value.Field("device"));
    KP_ASSIGN_OR_RETURN(change.device_id, device_v.AsString());
    KP_ASSIGN_OR_RETURN(WireValue disabled_v, value.Field("disabled"));
    KP_ASSIGN_OR_RETURN(change.disabled, disabled_v.AsBool());
    return change;
  }
};

// Replication delta (DESIGN.md §9–§10): the sealed log suffix a leader
// streams to its backups before releasing the responses held on it, plus
// the tier-state and device mutations those rows describe. A backup
// applies a delta atomically: chain continuity is verified before any
// state changes.
template <typename Tier>
struct ReplDelta {
  using Row = typename Tier::Log::Entry;
  using Change = typename Tier::Change;

  std::vector<Row> rows;
  std::vector<Change> changes;
  std::vector<DeviceChange> device_changes;

  bool empty() const {
    return rows.empty() && changes.empty() && device_changes.empty();
  }
  WireValue ToWire() const {
    WireValue::Struct s;
    s.emplace(Tier::kRowsField, ToWireList(rows));
    s.emplace(Tier::kChangesField, ToWireList(changes));
    s.emplace("devices", ToWireList(device_changes));
    return WireValue(std::move(s));
  }
  static Result<ReplDelta> FromWire(const WireValue& value) {
    ReplDelta delta;
    KP_ASSIGN_OR_RETURN(delta.rows, FromWireList<Row>(value, Tier::kRowsField));
    KP_ASSIGN_OR_RETURN(delta.changes,
                        FromWireList<Change>(value, Tier::kChangesField));
    KP_ASSIGN_OR_RETURN(delta.device_changes,
                        FromWireList<DeviceChange>(value, "devices"));
    return delta;
  }
};

template <typename Tier>
class ServiceShell {
 public:
  using Log = typename Tier::Log;
  using Row = typename Log::Entry;
  using Change = typename Tier::Change;
  using JournalEntry = typename Tier::JournalEntry;
  using Delta = ReplDelta<Tier>;
  // Hands a sealed delta to the replica set; `done` releases the held
  // responses once every in-sync backup acknowledged it.
  using Replicator = std::function<void(Delta, std::function<void()> done)>;

  virtual ~ServiceShell() = default;
  ServiceShell(const ServiceShell&) = delete;
  ServiceShell& operator=(const ServiceShell&) = delete;

  // --- Device table (administrative path: the IT console or the drive
  //     maker's web service). ----------------------------------------------

  // Registers a device and returns its authentication secret, drawn from
  // the service's own random stream.
  Bytes RegisterDevice(const std::string& device_id) {
    Bytes secret = rng_.NextBytes(32);
    RegisterDeviceWithSecret(device_id, secret);
    return secret;
  }
  // Registers a device under a secret minted elsewhere — how a sharded or
  // replicated tier gives every service the same per-device credential.
  // (Re-)registration enables the device, so the tier forgets any refusal
  // it cached while the device was disabled.
  void RegisterDeviceWithSecret(const std::string& device_id,
                                const Bytes& secret) {
    devices_[device_id] = DeviceRecord{secret, false};
    OnDeviceFlag(device_id, false);
  }
  // Per-device secret lookup (client stubs inside the simulation use it at
  // registration time).
  Result<Bytes> DeviceSecret(const std::string& device_id) const {
    auto it = devices_.find(device_id);
    if (it == devices_.end()) {
      return NotFoundError(Error("unknown device ") + device_id);
    }
    return it->second.secret;
  }
  // Remote data control: a disabled device is refused whatever the tier
  // releases (keys, IBE unlock keys). Both flips replicate.
  Status DisableDevice(const std::string& device_id) {
    return FlagDevice(device_id, true);
  }
  Status EnableDevice(const std::string& device_id) {
    return FlagDevice(device_id, false);
  }
  bool IsDeviceDisabled(const std::string& device_id) const {
    auto it = devices_.find(device_id);
    return it != devices_.end() && it->second.disabled;
  }

  // --- Audit log and its lifecycle (DESIGN.md §15). ------------------------

  const Log& log() const { return log_; }
  // Cold tier for sealed segments (present iff cold shipping is on).
  SegmentStore* segment_store() { return segment_store_.get(); }

  // Durable backup (§6: the services "routinely back up their state"). The
  // snapshot carries devices, the tier's state and the log with its
  // lifecycle fields; Restore verifies the log's hash chain (checkpoint
  // signatures included) before swapping anything in.
  Bytes Snapshot() const;
  Status Restore(const Bytes& snapshot);

  // Crash semantics: the open commit window dies with the process. Its
  // held responses are never sent — the clients' timeouts and retries take
  // over, exactly as with any crashed server — and whatever the tier
  // staged but never sealed is dropped (OnAbort). Call before
  // Snapshot-on-crash; Restore calls it too.
  void AbortInFlight();

  // --- Replication hooks (DESIGN.md §9–§10). -------------------------------

  // Wires this service into a replica set as a potential leader. After
  // each window flush the service hands the un-shipped delta to
  // `replicator`, which must call `done` exactly once when every in-sync
  // backup acknowledged it — only then do the held responses (and the keys
  // inside them) leave the service, extending the "durably log, then
  // respond" barrier across the replica set. Installing a replicator puts
  // the RPC surface on the held-response path; call before BindRpc.
  void set_replicator(Replicator replicator) {
    replicator_ = std::move(replicator);
    // A replicated log must not truncate past what every peer holds. Block
    // truncation entirely until the replication engine installs its durable
    // watermark (set_durable_watermark).
    log_.set_truncate_anchor([] { return uint64_t{0}; });
  }
  bool replicated() const { return replicator_ != nullptr; }

  // Leadership gate for the tier's client-facing methods: when set and
  // returning non-OK (kFailedPrecondition "NOT_LEADER:<i>"), a gated call is
  // rejected before executing. audit.* stays served by any replica.
  void set_serve_gate(std::function<Status()> gate) {
    serve_gate_ = std::move(gate);
  }

  // The replication engine's truncation anchor: the prefix length known
  // durable on every replica. The log never truncates beyond it, so a
  // crashed peer's unacknowledged suffix is always reconcilable.
  void set_durable_watermark(std::function<uint64_t()> watermark) {
    log_.set_truncate_anchor(std::move(watermark));
  }

  // Backup-side apply: verifies the delta continues the local chain
  // (kDataLoss on divergence — the sender marks this backup out-of-sync),
  // then applies the tier and device mutations.
  Status ApplyReplicated(const Delta& delta);

  uint64_t shipped_seq() const { return shipped_seq_; }

  // Ships any sealed-but-unshipped suffix now (then runs `done`, at once
  // when there is nothing to ship) — the admin path, a freshly promoted
  // leader and every window flush use this.
  void ReplicateNow(std::function<void()> done = {});

 protected:
  struct DeviceRecord {
    Bytes secret;
    bool disabled = false;
  };

  // `commit_window` is how long a held response may wait for the rows of
  // later requests to join its seal; zero holds responses only while the
  // instant's requests finish (and, replicated, until backups ack).
  ServiceShell(EventQueue* queue, uint64_t rng_seed,
               SegmentedLogOptions log_options, SimDuration commit_window);

  // "<service>: <what>" — the tier's status-message prefix.
  static std::string Error(const std::string& what) {
    return std::string(Tier::kService) + ": " + what;
  }

  // Registers one authenticated RPC method. The handler runs
  // `fn(device_id, payload)` once the frame's device is registered, its
  // tag verifies and its payload holds `arity` values (InvalidArgument
  // otherwise). With a commit window or a replicator the response is held
  // until the window flushes and its delta is acknowledged; the handler
  // itself (and its appends) runs at once. `gated` methods are leader-only
  // under a serve gate, and a refused call answers at once, appending
  // nothing.
  template <typename Fn>
  void Install(RpcServer* server, const std::string& method, bool gated,
               size_t arity, Fn fn);
  // The methods every tier serves alike: <tier>.upload_journal and the
  // audit.<tier>_log_tail / _checkpoints / _log_segment methods.
  void InstallSharedRpc(RpcServer* server);

  // kPermissionDenied unless `device_id` is registered and enabled.
  Status RequireEnabledDevice(const std::string& device_id) const {
    auto it = devices_.find(device_id);
    if (it == devices_.end()) {
      return PermissionDeniedError(Error("unregistered device"));
    }
    if (it->second.disabled) {
      return PermissionDeniedError(Error("device disabled"));
    }
    return Status::Ok();
  }

  // Records a mutation for the next delta (no-op, and no copy, without a
  // replicator). `fields` initialize one Change.
  template <typename... Fields>
  void NoteChange(Fields&&... fields) {
    if (replicator_) {
      pending_changes_.push_back(Change{std::forward<Fields>(fields)...});
    }
  }

  // --- Tier hooks. ----------------------------------------------------------

  // The commit window opened / is about to release its responses.
  virtual void OnWindowOpen() {}
  virtual void OnWindowFlush() {}
  // The process died (AbortInFlight).
  virtual void OnAbort() {}
  // A device was disabled or re-enabled (admin path or replicated delta).
  virtual void OnDeviceFlag(const std::string& /*device_id*/,
                            bool /*disabled*/) {}
  // Logs an uploaded journal (<tier>.upload_journal, DESIGN.md §32) with
  // its original client times, in the tier's own commit grouping.
  virtual Status UploadJournal(const std::string& device_id,
                               const std::vector<JournalEntry>& entries) = 0;
  // Backup side of NoteChange.
  virtual void ApplyChanges(const std::vector<Change>& changes) = 0;
  // Adds the tier's fields to a snapshot, and parses them back: ParseState
  // may complete `log`, the snapshot's verified log that is to replace
  // log_, and fails without side effects or returns the step that adopts
  // the rest.
  virtual void SnapshotState(WireValue::Struct& snapshot) const = 0;
  virtual Result<std::function<void()>> ParseState(const WireValue& snapshot,
                                                   Log& log) = 0;

  EventQueue* queue_;
  SecureRandom rng_;
  std::map<std::string, DeviceRecord> devices_;
  Log log_;

 private:
  struct PendingResponse {
    RpcServer::Responder respond;
    Result<WireValue> result;
  };

  Status FlagDevice(const std::string& device_id, bool disabled);
  // Drains everything sealed since the last ship into one delta and
  // advances the shipped watermark.
  Delta TakeUnshippedDelta();
  // Opens the commit window on the first held request and schedules its
  // flush, which seals the window's rows (OnWindowFlush) and releases its
  // responses once they are shipped.
  void OpenCommitWindow();
  void FlushCommitWindow();

  SimDuration commit_window_;
  // Cold tier (cold_ship only): sealed segments land in a storage backend,
  // mirrored to a simulated cloud store for bit-rot repair.
  std::unique_ptr<SimObjectStore> cold_cloud_;
  std::unique_ptr<SegmentStore> segment_store_;

  // Replication state (replica sets only).
  Replicator replicator_;
  std::function<Status()> serve_gate_;
  uint64_t shipped_seq_ = 0;  // Log prefix already streamed to backups.
  std::vector<Change> pending_changes_;
  std::vector<DeviceChange> pending_device_changes_;
  // Bumps every time Restore() adopts a snapshot. Served alongside
  // audit.<tier>_log_tail so a remote auditor can tell "the log under my
  // cursor was replaced" from "the log merely grew" (cursor re-sync).
  uint64_t restore_epoch_ = 0;

  // Open commit window (held-response path only).
  bool window_open_ = false;
  EventQueue::EventId flush_event_ = EventQueue::kInvalidEvent;
  std::vector<PendingResponse> pending_responses_;
};

template <typename Tier>
ServiceShell<Tier>::ServiceShell(EventQueue* queue, uint64_t rng_seed,
                                 SegmentedLogOptions log_options,
                                 SimDuration commit_window)
    : queue_(queue), rng_(rng_seed), commit_window_(commit_window) {
  log_.Configure(std::move(log_options));
  if (log_.log_options().cold_ship) {
    cold_cloud_ = std::make_unique<SimObjectStore>(queue_);
    segment_store_ = std::make_unique<SegmentStore>(MakeMemoryBackend(),
                                                    cold_cloud_.get());
    log_.set_segment_store(segment_store_.get(), Tier::kName);
  }
}

template <typename Tier>
Status ServiceShell<Tier>::FlagDevice(const std::string& device_id,
                                      bool disabled) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return NotFoundError(Error("unknown device ") + device_id);
  }
  it->second.disabled = disabled;
  OnDeviceFlag(device_id, disabled);
  if (replicator_) {
    pending_device_changes_.push_back({device_id, disabled});
  }
  return Status::Ok();
}

template <typename Tier>
void ServiceShell<Tier>::OpenCommitWindow() {
  if (window_open_) {
    return;
  }
  window_open_ = true;
  OnWindowOpen();
  flush_event_ = queue_->ScheduleAfter(commit_window_,
                                       [this] { FlushCommitWindow(); });
}

template <typename Tier>
void ServiceShell<Tier>::FlushCommitWindow() {
  if (!window_open_) {
    return;
  }
  window_open_ = false;
  if (flush_event_ != EventQueue::kInvalidEvent) {
    queue_->Cancel(flush_event_);
    flush_event_ = EventQueue::kInvalidEvent;
  }
  OnWindowFlush();
  // Only now that the window's rows are durable may the responses (and the
  // keys inside them) leave the service (§3.1). With a replica set the
  // barrier extends further: the rows must land on every in-sync backup
  // before release, so a client-acknowledged record can never be lost to a
  // single-replica crash (DESIGN.md §9).
  auto responses = std::make_shared<std::vector<PendingResponse>>(
      std::move(pending_responses_));
  pending_responses_.clear();
  auto release = [responses] {
    for (auto& pending : *responses) {
      pending.respond(std::move(pending.result));
    }
  };
  if (replicated()) {
    ReplicateNow(std::move(release));
  } else {
    release();
  }
}

template <typename Tier>
void ServiceShell<Tier>::AbortInFlight() {
  if (flush_event_ != EventQueue::kInvalidEvent) {
    queue_->Cancel(flush_event_);
    flush_event_ = EventQueue::kInvalidEvent;
  }
  window_open_ = false;
  OnAbort();
  pending_responses_.clear();
}

template <typename Tier>
typename ServiceShell<Tier>::Delta ServiceShell<Tier>::TakeUnshippedDelta() {
  Delta delta;
  delta.rows = log_.EntriesAfterSeq(shipped_seq_);
  shipped_seq_ = log_.size();
  delta.changes = std::move(pending_changes_);
  pending_changes_.clear();
  delta.device_changes = std::move(pending_device_changes_);
  pending_device_changes_.clear();
  return delta;
}

template <typename Tier>
void ServiceShell<Tier>::ReplicateNow(std::function<void()> done) {
  Delta delta;
  if (replicator_) {
    delta = TakeUnshippedDelta();
  }
  if (delta.empty()) {
    if (done) {
      done();
    }
    return;
  }
  if (!done) {
    done = [] {};
  }
  replicator_(std::move(delta), std::move(done));
}

template <typename Tier>
Status ServiceShell<Tier>::ApplyReplicated(const Delta& delta) {
  // Chain continuity first: a diverged backup must reject the whole delta
  // untouched so the leader can mark it out-of-sync and reconciliation can
  // sort out the fork later.
  KP_RETURN_IF_ERROR(log_.AppendReplicated(delta.rows));
  ApplyChanges(delta.changes);
  for (const auto& change : delta.device_changes) {
    auto it = devices_.find(change.device_id);
    if (it != devices_.end()) {
      it->second.disabled = change.disabled;
    }
    OnDeviceFlag(change.device_id, change.disabled);
  }
  // Everything applied is, by definition, shipped state: if this backup is
  // later promoted it must not re-stream records the old leader already
  // distributed.
  shipped_seq_ = log_.size();
  return Status::Ok();
}

template <typename Tier>
Bytes ServiceShell<Tier>::Snapshot() const {
  WireValue::Struct snapshot;
  WireValue::Array devices;
  for (const auto& [id, record] : devices_) {
    WireValue::Struct d;
    d.emplace("id", WireValue(id));
    d.emplace("secret", WireValue(record.secret));
    d.emplace("disabled", WireValue(record.disabled));
    devices.push_back(WireValue(std::move(d)));
  }
  snapshot.emplace("devices", WireValue(std::move(devices)));
  snapshot.emplace("log", ToWireList(log_.entries()));
  // Lifecycle state (DESIGN.md §15): the truncation base and the signed
  // checkpoint chain. Every snapshot carries them; Restore requires them.
  snapshot.emplace("log_base",
                   WireValue(static_cast<int64_t>(log_.base_seq())));
  snapshot.emplace("log_base_seal", WireValue(log_.base_seal().ToBytes()));
  snapshot.emplace("ckpts", ToWireList(log_.checkpoints()));
  SnapshotState(snapshot);
  return BinaryEncode(WireValue(std::move(snapshot)));
}

template <typename Tier>
Status ServiceShell<Tier>::Restore(const Bytes& snapshot) {
  KP_ASSIGN_OR_RETURN(WireValue value, BinaryDecode(snapshot));

  // Rebuild the log first and verify its full chain (group seals and
  // checkpoint signatures included) before touching anything. The loader
  // keeps the snapshotted commit-group boundaries, so a restored log hashes
  // exactly as the original — re-appending would re-derive single-entry
  // groups and break every multi-entry seal.
  if (!value.HasField("log_base")) {
    return DataLossError(Error("snapshot has no log base"));
  }
  KP_ASSIGN_OR_RETURN(std::vector<Row> rows, FromWireList<Row>(value, "log"));
  KP_ASSIGN_OR_RETURN(WireValue base_v, value.Field("log_base"));
  KP_ASSIGN_OR_RETURN(int64_t base_seq, base_v.AsInt());
  KP_ASSIGN_OR_RETURN(WireValue seal_v, value.Field("log_base_seal"));
  KP_ASSIGN_OR_RETURN(Bytes seal_bytes, seal_v.AsBytes());
  KP_ASSIGN_OR_RETURN(Seal base_seal, Seal::FromBytes(seal_bytes));
  KP_ASSIGN_OR_RETURN(std::vector<LogCheckpoint> ckpts,
                      FromWireList<LogCheckpoint>(value, "ckpts"));
  Log restored_log;
  restored_log.Configure(log_.log_options());
  if (segment_store_) {
    restored_log.set_segment_store(segment_store_.get(), Tier::kName);
  }
  restored_log.set_truncate_anchor(log_.truncate_anchor());
  Status log_status = restored_log.LoadVerifiedWithBase(
      static_cast<uint64_t>(base_seq), base_seal, std::move(ckpts),
      std::move(rows));
  if (!log_status.ok()) {
    return DataLossError(Error("snapshot log chain mismatch"));
  }

  std::map<std::string, DeviceRecord> devices;
  KP_ASSIGN_OR_RETURN(WireValue devices_value, value.Field("devices"));
  KP_ASSIGN_OR_RETURN(WireValue::Array raw_devices, devices_value.AsArray());
  for (const auto& raw : raw_devices) {
    KP_ASSIGN_OR_RETURN(WireValue id_v, raw.Field("id"));
    KP_ASSIGN_OR_RETURN(std::string id, id_v.AsString());
    DeviceRecord record;
    KP_ASSIGN_OR_RETURN(WireValue secret_v, raw.Field("secret"));
    KP_ASSIGN_OR_RETURN(record.secret, secret_v.AsBytes());
    KP_ASSIGN_OR_RETURN(WireValue disabled_v, raw.Field("disabled"));
    KP_ASSIGN_OR_RETURN(record.disabled, disabled_v.AsBool());
    devices.emplace(std::move(id), std::move(record));
  }
  KP_ASSIGN_OR_RETURN(std::function<void()> adopt_state,
                      ParseState(value, restored_log));

  // Anything staged or held belongs to the pre-crash incarnation and is
  // lost with it.
  AbortInFlight();
  devices_ = std::move(devices);
  log_ = std::move(restored_log);
  adopt_state();
  // The log under any remote cursor may just have been replaced by an
  // older one; the epoch bump is how auditors notice. Pending replication
  // state described the pre-restore log, so it is meaningless now — a
  // rejoining replica reconciles via its replica set instead, and the
  // whole adopted log counts as shipped.
  ++restore_epoch_;
  shipped_seq_ = log_.size();
  pending_changes_.clear();
  pending_device_changes_.clear();
  return Status::Ok();
}

template <typename Tier>
template <typename Fn>
void ServiceShell<Tier>::Install(RpcServer* server, const std::string& method,
                                 bool gated, size_t arity, Fn fn) {
  RpcServer::Handler body = [this, method, arity,
                             fn](const WireValue::Array& params)
      -> Result<WireValue> {
    KP_ASSIGN_OR_RETURN(
        AuthedCall call,
        CheckAuthedCall(params, method, arity,
                        [this](const std::string& device_id)
                            -> Result<const Bytes*> {
                          auto it = devices_.find(device_id);
                          if (it == devices_.end()) {
                            return PermissionDeniedError(
                                Error("unregistered device"));
                          }
                          return &it->second.secret;
                        }));
    return fn(call.device_id, call.payload);
  };
  if (commit_window_ > SimDuration() || replicated()) {
    server->RegisterAsyncMethod(
        method, [this, gated, body](const WireValue::Array& params,
                                    RpcServer::Responder respond) {
          if (gated && serve_gate_) {
            Status gate = serve_gate_();
            if (!gate.ok()) {
              // Rejected before any append: nothing to seal, nothing to
              // hold — tell the client who leads, right away.
              respond(std::move(gate));
              return;
            }
          }
          OpenCommitWindow();
          Result<WireValue> result = body(params);
          pending_responses_.push_back(
              {std::move(respond), std::move(result)});
        });
  } else {
    server->RegisterMethod(
        method, [this, gated, body](const WireValue::Array& params)
                    -> Result<WireValue> {
          if (gated && serve_gate_) {
            KP_RETURN_IF_ERROR(serve_gate_());
          }
          return body(params);
        });
  }
}

template <typename Tier>
void ServiceShell<Tier>::InstallSharedRpc(RpcServer* server) {
  // The paired phone's journal (DESIGN.md §32): every entry is decoded, so
  // one bad op or id refuses the upload, before the tier logs any.
  Install(server, std::string(Tier::kName) + ".upload_journal", true, 1,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(WireValue::Array raw, payload[0].AsArray());
            std::vector<JournalEntry> entries;
            for (const auto& item : raw) {
              KP_ASSIGN_OR_RETURN(JournalEntry entry,
                                  JournalEntry::FromJournalWire(item));
              entries.push_back(std::move(entry));
            }
            KP_RETURN_IF_ERROR(UploadJournal(device, entries));
            return WireValue(true);
          });

  // Authenticated with the device secret: whoever can audit a device can
  // already act for it administratively in this model.
  const std::string prefix = std::string("audit.") + Tier::kName;

  // Incremental audit: the committed rows with seq >= the caller's cursor,
  // so a repeat auditor transfers (and the service scans) only what's new.
  // Cursors below the truncation base are served from the cold tier, each
  // segment re-verified against its signed checkpoint before any row
  // leaves the service.
  const std::string tail = prefix + "_log_tail";
  Install(server, tail, false, 1,
          [this](const std::string& device,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(int64_t next_seq, payload[0].AsInt());
            // Checkpoints vouch for the sealed prefix; only the tail after
            // the latest checkpoint is replayed per request.
            KP_RETURN_IF_ERROR(log_.VerifyTail());
            // Only the caller's rows are copied: cold rows are decoded
            // (and so copied) anyway, hot rows are picked out in place.
            uint64_t from = static_cast<uint64_t>(next_seq);
            std::vector<Row> rows;
            if (from < log_.base_seq()) {
              KP_ASSIGN_OR_RETURN(rows,
                                  log_.ColdEntries(from, log_.base_seq()));
              std::erase_if(rows, [&](const Row& row) {
                return row.device_id != device;
              });
            }
            const std::vector<Row>& hot = log_.entries();
            uint64_t skip = from > log_.base_seq() ? from - log_.base_seq() : 0;
            for (uint64_t i = skip; i < hot.size(); ++i) {
              if (hot[i].device_id == device) {
                rows.push_back(hot[i]);
              }
            }
            // "next" covers the whole committed log, not just this device's
            // rows, so the cursor advances past other devices' rows too.
            // The rows travel as one flat blob (DESIGN.md §19).
            WireValue::Struct out;
            out.emplace("next", WireValue(static_cast<int64_t>(log_.size())));
            out.emplace("entries", WireValue(EncodeFlatRows(rows)));
            // Restore epoch: lets a remote cursor tell "restored from an
            // older snapshot" (epoch bump, possibly next < cursor) from a
            // plain short read, and trigger an overlap-verified resync.
            out.emplace("epoch",
                        WireValue(static_cast<int64_t>(restore_epoch_)));
            // Checkpoint fingerprint: count plus latest hash, so an auditor
            // can tell "server truncated a prefix I already hold" (cursor
            // clamp, benign) from "server restored an older log" (full
            // resync) by comparing checkpoint chains.
            const auto& ckpts = log_.checkpoints();
            out.emplace("ckpt_count",
                        WireValue(static_cast<int64_t>(ckpts.size())));
            out.emplace("ckpt_hash", WireValue(ckpts.empty()
                                                   ? Bytes()
                                                   : ckpts.back().hash));
            out.emplace("base",
                        WireValue(static_cast<int64_t>(log_.base_seq())));
            return WireValue(std::move(out));
          });

  // The signed checkpoint chain (all of it — checkpoints are tiny). The
  // auditor verifies hashes and signatures client-side and uses the chain
  // to anchor catch-up and to tell truncation from restore.
  const std::string checkpoints = prefix + "_checkpoints";
  Install(server, checkpoints, false, 0,
          [this](const std::string&,
                 const WireValue::Array&) -> Result<WireValue> {
            return ToWireList(log_.checkpoints());
          });

  // One sealed cold segment by checkpoint id, for forensic replay of a
  // truncated prefix. Served from the local medium only (no cloud blocking
  // inside an RPC); integrity is the caller's job via the signed
  // checkpoint.
  const std::string segment = prefix + "_log_segment";
  Install(server, segment, false, 1,
          [this](const std::string&,
                 const WireValue::Array& payload) -> Result<WireValue> {
            KP_ASSIGN_OR_RETURN(int64_t index, payload[0].AsInt());
            if (segment_store_ == nullptr) {
              return UnavailableError(Error("no cold segment tier"));
            }
            KP_ASSIGN_OR_RETURN(
                SealedSegment sealed,
                segment_store_->Get(Tier::kName, static_cast<uint64_t>(index)));
            return sealed.ToWire();
          });
}

}  // namespace keypad

#endif  // SRC_REPLICATION_SERVICE_SHELL_H_
