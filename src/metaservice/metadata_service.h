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

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/auditlog/log_options.h"
#include "src/ibe/bf_ibe.h"
#include "src/metaservice/metadata_log.h"
#include "src/metaservice/metadata_service_client.h"
#include "src/replication/service_replica_set.h"
#include "src/replication/service_shell.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

// The IBE public-key string for a file binding: "<dir-id>/<name>|<audit-id>".
// Embedding the audit ID binds the path and ID together at the PKG (§4).
std::string IbeIdentityFor(const DirId& dir_id, const std::string& name,
                           const AuditId& audit_id);

// One root registration in a replication delta.
struct RootChange {
  std::string device_id;
  DirId root_id;

  WireValue ToWire() const;
  static Result<RootChange> FromWire(const WireValue& value);
};

// The metadata tier as the service shell sees it (DESIGN.md §21).
struct MetaTier {
  using Log = MetadataLog;
  using Change = RootChange;
  using JournalEntry = MetadataRecord;
  static constexpr const char* kService = "metadata service";
  static constexpr const char* kName = "meta";
  static constexpr const char* kRowsField = "records";
  static constexpr const char* kChangesField = "roots";
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

// The device table, held-response window, replication hooks, snapshot and
// audit.meta_* surface come from the shell (DESIGN.md §21), with a commit
// window fixed at zero: records are hashed and durable the moment they
// append, so responses wait only for the instant's other requests and,
// replicated, for the backups' acknowledgement. This class adds the roots,
// the namespace queries and the PKG.
class MetadataService : public ServiceShell<MetaTier> {
 public:
  // `group` selects the pairing parameter set (production or test-sized);
  // `log` is the metadata log's lifecycle (DESIGN.md §15).
  MetadataService(EventQueue* queue, uint64_t rng_seed,
                  const PairingParams& group, SegmentedLogOptions log = {});

  // IBE public parameters for client-side locking.
  const IbePublicParams& ibe_params() const { return pkg_.public_params(); }

  // --- Client API (also bound over RPC). -----------------------------------
  //
  // Every call is refused for an unregistered device and, as remote data
  // control at the PKG, for a disabled one: a disabled device receives no
  // IBE unlock keys, so IBE-locked files stay sealed even if the thief is
  // willing to register truthful metadata.

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

  // Paired-device journal upload (meta.upload_journal): namespace events
  // recorded on the phone while disconnected, appended row by row with
  // original client timestamps. Each is stamped with `device_id`, and only
  // the fields a journal carries (op, ids, name, client time) reach the
  // log. No IBE keys are returned (the binding is already in the past).
  using JournalRecord = MetadataServiceClient::JournalRecord;
  Status UploadJournal(const std::string& device_id,
                       const std::vector<JournalRecord>& records) override;

  // --- Audit API. -----------------------------------------------------------

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

  // Registers the meta.* methods, audit.annotate and the shell's
  // meta.upload_journal and audit.meta_* methods on `server`.
  void BindRpc(RpcServer* server);

 protected:
  // Shell hooks. The snapshot adds the roots and the records truncation
  // dropped from the chain (namespace state the log still holds); the IBE
  // master key is deliberately NOT serialized — the PKG master secret is
  // modelled as HSM-held, surviving a process crash in place.
  void ApplyChanges(const std::vector<RootChange>& changes) override;
  void SnapshotState(WireValue::Struct& snapshot) const override;
  Result<std::function<void()>> ParseState(const WireValue& snapshot,
                                           MetadataLog& log) override;

 private:
  IbePkg pkg_;
  std::map<std::string, DirId> roots_;  // device -> root dir id.
};

// The metadata tier's replica set (DESIGN.md §10).
using MetaReplicaSet = ServiceReplicaSet<MetadataService>;

}  // namespace keypad

#endif  // SRC_METASERVICE_METADATA_SERVICE_H_
