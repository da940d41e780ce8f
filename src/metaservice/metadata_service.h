// The metadata service (Figure 2) — the second, independently-operable
// audit service. It keeps file metadata current so that post-theft audit
// logs can be interpreted ("directoryID/filename" tuples, §4), and it acts
// as the IBE private key generator (PKG) for the metadata-locking
// optimization (§3.4): the private key that unlocks an IBE-locked file is
// released only after the pathname binding has been durably logged, which
// forces even a thief to register truthful metadata before reading.
//
// Privacy split: this service learns the namespace structure but never the
// access patterns; the key service sees accesses to opaque IDs but no
// names (§3.1).

#ifndef SRC_METASERVICE_METADATA_SERVICE_H_
#define SRC_METASERVICE_METADATA_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/auditlog/log_options.h"
#include "src/auditlog/segment_store.h"
#include "src/blockdev/cloud_store.h"
#include "src/ibe/bf_ibe.h"
#include "src/metaservice/metadata_log.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

// The IBE public-key string for a file binding: "<dir-id>/<name>|<audit-id>".
// Embedding the audit ID binds the path and ID together at the PKG (§4).
std::string IbeIdentityFor(const DirId& dir_id, const std::string& name,
                           const AuditId& audit_id);

// Replication delta (DESIGN.md §10): the hash-chained metadata-log suffix
// a leader streams to its backups before releasing the responses (and the
// IBE unlock keys inside them) held on it, plus the root registrations and
// device-control flips those records describe. A backup applies a delta
// atomically: chain continuity is verified before any state changes.
struct MetaReplDelta {
  std::vector<MetadataRecord> records;
  struct RootChange {
    std::string device_id;
    DirId root_id;
  };
  std::vector<RootChange> root_changes;
  struct DeviceChange {
    std::string device_id;
    bool disabled = false;
  };
  std::vector<DeviceChange> device_changes;

  bool empty() const {
    return records.empty() && root_changes.empty() && device_changes.empty();
  }
  WireValue ToWire() const;
  static Result<MetaReplDelta> FromWire(const WireValue& value);
};

// The metadata service's reading of one audit id for a post-loss report
// (DESIGN.md §19).
struct FileAnnotation {
  // The latest path registered by Tloss; empty if the file had no
  // resolvable binding then.
  std::string path_at_loss;
  // Every binding registered at or after Tloss (kSetAttr excluded), each
  // resolved as of its own client time, consecutive duplicates dropped. A
  // binding under a directory the log never saw reads
  // "<unresolvable dir XXXXXXXX>/name".
  std::vector<std::string> post_loss_paths;

  // Flat row for the audit.annotate response.
  void AppendFlat(Bytes* out) const;
  static bool ReadFlat(ByteReader& in, FileAnnotation* file);
};

class MetadataService {
 public:
  // `group` selects the pairing parameter set (production or test-sized).
  MetadataService(EventQueue* queue, uint64_t rng_seed,
                  const PairingParams& group);

  // --- Administrative API. -------------------------------------------------
  Bytes RegisterDevice(const std::string& device_id);
  // Registers a device under a secret minted elsewhere — how a replicated
  // deployment gives every replica the same per-device credential.
  void RegisterDeviceWithSecret(const std::string& device_id,
                                const Bytes& secret);
  Result<Bytes> DeviceSecret(const std::string& device_id) const;
  // Remote data control at the PKG: a disabled device receives no IBE
  // unlock keys, so IBE-locked files stay sealed even if the thief is
  // willing to register truthful metadata.
  Status DisableDevice(const std::string& device_id);
  Status EnableDevice(const std::string& device_id);
  bool IsDeviceDisabled(const std::string& device_id) const;

  // IBE public parameters for client-side locking.
  const IbePublicParams& ibe_params() const { return pkg_.public_params(); }

  // --- Client API (also bound over RPC). -----------------------------------

  // Registers the volume root directory (name "", its own parent).
  Status RegisterRoot(const std::string& device_id, const DirId& root_id);
  // Logs a file create/rename binding and returns the IBE private key for
  // the new identity (the "unlock" key).
  Result<Bytes> RegisterFileBinding(const std::string& device_id,
                                    const AuditId& audit_id,
                                    const DirId& dir_id,
                                    const std::string& name, bool is_rename);
  Status RegisterMkdir(const std::string& device_id, const DirId& dir_id,
                       const DirId& parent_id, const std::string& name);
  Status RegisterDirRename(const std::string& device_id, const DirId& dir_id,
                           const DirId& new_parent_id,
                           const std::string& new_name);
  Status RegisterAttr(const std::string& device_id, const AuditId& audit_id,
                      const std::string& attr);

  // Paired-device journal upload: namespace events recorded on the phone
  // while disconnected, appended with original client timestamps. No IBE
  // keys are returned (the binding is already in the past).
  struct JournalRecord {
    MetadataOp op = MetadataOp::kCreateFile;
    AuditId audit_id;
    DirId dir_id;
    DirId parent_dir_id;
    std::string name;
    SimTime client_time;
  };
  Status UploadJournal(const std::string& device_id,
                       const std::vector<JournalRecord>& records);

  // --- Audit API. -----------------------------------------------------------

  const MetadataLog& log() const { return log_; }

  // Reconstructs the full pathname of a file as of `as_of` by walking the
  // directory records. kNotFound if the file has no binding by then.
  Result<std::string> ResolvePath(const std::string& device_id,
                                  const AuditId& audit_id,
                                  SimTime as_of) const;

  std::vector<MetadataRecord> HistoryOf(const std::string& device_id,
                                        const AuditId& audit_id) const {
    return log_.HistoryOf(device_id, audit_id);
  }

  // One FileAnnotation per id, in order — what both forensic auditors put
  // in the report (the remote one over audit.annotate). The caller is
  // responsible for having verified the chain.
  std::vector<FileAnnotation> Annotate(const std::string& device_id,
                                       const std::vector<AuditId>& ids,
                                       SimTime t_loss) const;

  void BindRpc(RpcServer* server);

  // Crash/restart simulation: the snapshot carries devices, roots, and the
  // full metadata log (modelling the service's durable state); Restore
  // verifies the log's hash chain before swapping anything in. The IBE
  // master key is deliberately NOT serialized — the PKG master secret is
  // modelled as HSM-held, surviving a process crash in place.
  Bytes Snapshot() const;
  Status Restore(const Bytes& snapshot);

  // --- Audit-log lifecycle (DESIGN.md §15). -------------------------------

  // Applies segment/truncation/cold-ship options to the metadata log and
  // stands up the cold segment tier if shipping is on. The constructor
  // applies the KEYPAD_LOG_* environment knobs by default; call this to
  // override in-process (before the first append).
  void ConfigureLog(SegmentedLogOptions options);

  // The replication engine's truncation anchor (see KeyService).
  void set_durable_watermark(std::function<uint64_t()> watermark) {
    log_.set_truncate_anchor(std::move(watermark));
  }

  // Cold tier for sealed metadata segments (present iff cold shipping on).
  SegmentStore* segment_store() { return segment_store_.get(); }
  SimObjectStore* cold_cloud() { return cold_cloud_.get(); }

  // --- Replication hooks (DESIGN.md §10). ---------------------------------

  // Wires this service into a replica set as a potential leader. After a
  // mutation's release point the service hands the un-shipped delta to
  // `replicator`, which must call `done` exactly once when every in-sync
  // backup acknowledged it — only then do the held responses (and the IBE
  // unlock keys inside them) leave the service, extending the "durably
  // log, then respond" barrier across the replica set. Installing a
  // replicator switches the mutating RPC surface onto the async
  // held-response path; call before BindRpc.
  using Replicator =
      std::function<void(MetaReplDelta, std::function<void()> done)>;
  void set_replicator(Replicator replicator) {
    replicator_ = std::move(replicator);
    // Block truncation until the replication engine installs its durable
    // watermark: a replicated log must not drop what a peer still needs.
    log_.set_truncate_anchor([] { return uint64_t{0}; });
  }
  bool replicated() const { return replicator_ != nullptr; }

  // Leadership gate for the mutating meta.* RPC surface: when set and
  // returning non-OK (kFailedPrecondition "NOT_LEADER:<i>"), the call is
  // rejected before executing. audit.* methods stay served by any replica.
  void set_serve_gate(std::function<Status()> gate) {
    serve_gate_ = std::move(gate);
  }

  // Backup-side apply: verifies the record suffix continues the local
  // chain (kDataLoss on divergence — the sender marks this backup
  // out-of-sync), then applies the root/device mutations.
  Status ApplyReplicated(const MetaReplDelta& delta);

  // Drains everything logged since the last ship into one delta and
  // advances the shipped watermark.
  MetaReplDelta TakeUnshippedDelta();
  uint64_t shipped_seq() const { return shipped_seq_; }

  // Ships any logged-but-unshipped suffix immediately — the admin path
  // (device disable) and a freshly promoted leader use this; RPC-driven
  // mutations ship from the release-window flush.
  void ReplicateNow(std::function<void()> done = {});

  // Crash semantics: held responses are never sent — the clients' retries
  // take over against whichever replica leads next. Unlike the key tier's
  // group-commit window, metadata records are durable the moment they are
  // appended, so nothing is discarded here. Call before Snapshot-on-crash.
  void AbortPending();

  // Bumps every time Restore() adopts a snapshot. Served alongside
  // audit.meta_log_tail so a remote auditor can tell "the log under my
  // cursor was replaced" from "the log merely grew" (cursor re-sync).
  uint64_t restore_epoch() const { return restore_epoch_; }

 private:
  struct DeviceRecord {
    Bytes secret;
    bool disabled = false;
  };

  Status CheckDevice(const std::string& device_id) const;

  // Opens the response-release window on the first held RPC of this
  // instant and schedules its flush (same-timestamp event, so mutations
  // arriving together ship as one delta).
  void OpenReleaseWindow();
  void FlushReleaseWindow();

  // Records a root/device mutation for the next replication delta (no-op
  // without a replicator).
  void NoteRootChange(const std::string& device_id, const DirId& root_id);
  void NoteDeviceChange(const std::string& device_id, bool disabled);

  EventQueue* queue_;
  SecureRandom rng_;
  IbePkg pkg_;
  std::map<std::string, DeviceRecord> devices_;
  std::map<std::string, DirId> roots_;  // device -> root dir id.
  MetadataLog log_;
  // Cold tier (cold_ship only): sealed segments land in a storage backend,
  // mirrored to a simulated cloud store for bit-rot repair.
  std::unique_ptr<SimObjectStore> cold_cloud_;
  std::unique_ptr<SegmentStore> segment_store_;

  // Replication state (replica sets only).
  Replicator replicator_;
  std::function<Status()> serve_gate_;
  uint64_t shipped_seq_ = 0;  // Log prefix already streamed to backups.
  std::vector<MetaReplDelta::RootChange> pending_root_changes_;
  std::vector<MetaReplDelta::DeviceChange> pending_device_changes_;
  uint64_t restore_epoch_ = 0;

  // Open release-window state (replicated services only).
  struct PendingResponse {
    RpcServer::Responder respond;
    Result<WireValue> result;
  };
  bool window_open_ = false;
  EventQueue::EventId flush_event_ = EventQueue::kInvalidEvent;
  std::vector<PendingResponse> pending_responses_;
};

}  // namespace keypad

#endif  // SRC_METASERVICE_METADATA_SERVICE_H_
