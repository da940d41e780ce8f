// KeypadFs — the paper's primary contribution: an auditing file system that
// entangles every protected file access with logging on remote audit
// services.
//
// Built as an extension of EncFs (as the prototype extends EncFS):
//  * every protected file gets a random 192-bit audit ID and its content is
//    encrypted with a per-file data key K_D, which is stored in the file's
//    header wrapped under a remote key K_R held only by the key service;
//  * reading or writing requires K_R: from the local cache (expires after
//    Texp, refreshed while in use) or from the key service — which durably
//    logs the access before answering;
//  * namespace changes are registered with the metadata service so the
//    audit log can be interpreted with up-to-date pathnames;
//  * with IBE enabled (§3.4), creates and renames do not block on the
//    network: the key blob is locked under an identity derived from the new
//    pathname + audit ID, a 1-second grace key keeps the file usable, and
//    the metadata service (acting as PKG) releases the unlock key only
//    after durably logging the binding — so even a thief who severs the
//    registration must later supply the true pathname to read the file;
//  * directory-scan detection triggers whole-directory key prefetching in
//    the same round trip as the demand fetch (§3.3);
//  * partial coverage (§3.6) leaves designated non-sensitive paths on the
//    plain EncFS path (no remote keys, no audit records).

#ifndef SRC_KEYPAD_KEYPAD_FS_H_
#define SRC_KEYPAD_KEYPAD_FS_H_

#include <map>
#include <memory>
#include <string>

#include "src/encfs/encfs.h"
#include "src/ibe/bf_ibe.h"
#include "src/keypad/config.h"
#include "src/keypad/key_cache.h"
#include "src/keypad/prefetcher.h"
#include "src/keyservice/key_client.h"
#include "src/keyservice/key_service_client.h"
#include "src/metaservice/metadata_service_client.h"

namespace keypad {

class KeypadFs : public EncFs {
 public:
  struct Services {
    KeyClient* key = nullptr;               // Not owned.
    MetadataServiceClient* meta = nullptr;  // Not owned.
    const IbePublicParams* ibe = nullptr;   // Not owned.
  };

  struct Stats {
    uint64_t cache_hits = 0;
    uint64_t demand_fetches = 0;      // Blocking key-service fetches.
    uint64_t keys_prefetched = 0;     // Keys pulled by prefetch batches.
    uint64_t creates_blocking = 0;    // Non-IBE creation barriers.
    uint64_t metadata_blocking = 0;   // Blocking metadata registrations.
    uint64_t metadata_async = 0;      // IBE-overlapped registrations.
    uint64_t ibe_locks = 0;
    uint64_t ibe_background_unlocks = 0;
    uint64_t ibe_blocking_unlocks = 0;
    uint64_t grace_hits = 0;
    uint64_t uncovered_ops = 0;       // Ops on files outside the coverage.
  };

  // Formats a fresh Keypad volume and registers its root directory with the
  // metadata service (blocking).
  static Result<std::unique_ptr<KeypadFs>> Format(
      BlockDevice* device, EventQueue* queue, uint64_t rng_seed,
      std::string_view password, EncFs::Options fs_options,
      KeypadConfig config, Services services);
  // Mounts an existing Keypad volume (the thief's path too: anyone with the
  // password and the device can mount; auditing happens server-side).
  static Result<std::unique_ptr<KeypadFs>> Mount(
      BlockDevice* device, EventQueue* queue, uint64_t rng_seed,
      std::string_view password, EncFs::Options fs_options,
      KeypadConfig config, Services services);

  ~KeypadFs() override;

  KeypadConfig& config() { return config_; }
  KeyCache& key_cache() { return cache_; }
  Prefetcher& prefetcher() { return prefetcher_; }
  const Stats& stats() const { return stats_; }
  void ResetStats();

  // Securely erases all cached keys and notifies the key service (device
  // hibernation / shutdown, §6).
  void Hibernate();

  // On-device service-credential store (sealed under the volume key): lets
  // a later mount — by the owner or by whoever holds the device and
  // password — reconstruct authenticated service clients.
  struct Credentials {
    std::string device_id;
    Bytes key_secret;
    Bytes meta_secret;
  };
  Status StoreCredentials(const Credentials& creds);
  static Result<Credentials> LoadCredentials(EncFs* fs);

 protected:
  Result<Bytes> ProvisionNewFile(const std::string& path, const DirId& dir_id,
                                 FileHeader* header) override;
  Result<Bytes> UnlockDataKey(const std::string& path, const DirId& dir_id,
                              FileHeader* header,
                              bool* header_dirty) override;
  Status OnRenameFile(const std::string& from, const std::string& to,
                      const DirId& old_dir_id, const DirId& new_dir_id,
                      const std::string& new_name, FileHeader* header,
                      bool* header_dirty) override;
  Status OnMkdir(const std::string& path, const DirId& dir_id,
                 const DirId& parent_id, const std::string& name) override;
  Status OnRenameDir(const DirId& dir_id, const DirId& new_parent_id,
                     const std::string& new_name) override;
  Status OnUnlink(const std::string& path, const FileHeader& header) override;

 private:
  KeypadFs(BlockDevice* device, EventQueue* queue, uint64_t rng_seed,
           EncFs::Options fs_options, KeypadConfig config, Services services);

  bool Covered(const std::string& path) const {
    return !config_.coverage || config_.coverage(path);
  }

  // Blocking demand fetch of K_R (consulting the prefetch policy); inserts
  // all fetched keys into the cache.
  Result<Bytes> FetchRemoteKey(const AuditId& id, const std::string& dir_path);
  // Non-blocking refresh of an in-use key (logs kRefresh).
  void RefreshKeyAsync(const AuditId& id,
                       std::function<void(Result<Bytes>)> done);
  // Audit IDs of all protected files in a directory (local header reads).
  std::vector<AuditId> ListDirAuditIds(const std::string& dir_path);

  // --- Grace cache: cleartext K_D for files with in-flight metadata. ------
  void GraceInsert(const AuditId& id, Bytes kd);
  std::optional<Bytes> GraceLookup(const AuditId& id);
  void GraceErase(const AuditId& id);

  // --- Pending registrations for IBE-mode creations. -----------------------
  struct PendingCreate {
    std::string current_path;
    DirId dir_id;
    std::string name;
    Bytes kd;
    std::optional<Bytes> kr;
    bool meta_done = false;
    int key_retries_left = 0;
    int meta_retries_left = 0;
  };
  void SendPendingKeyCreate(const AuditId& id);
  void SendPendingMetaBind(const AuditId& id);
  void MaybeCompletePending(const AuditId& id);

  // IBE helpers. Tagged plaintexts: 0x00 || K_D (creation lock, no remote
  // key yet) or 0x01 || Wrap(K_R, K_D) (rename lock).
  Result<Bytes> IbeLockBlob(const std::string& identity, const Bytes& tagged);
  Result<Bytes> IbeUnlockBlob(const Bytes& blob, const Bytes& ibe_key_bytes,
                              const std::string& identity);
  // Registers the current binding (blocking) and unlocks the header.
  Result<Bytes> BlockingUnlock(const AuditId& id, const DirId& dir_id,
                               const std::string& name, FileHeader* header,
                               bool* header_dirty);
  // Background unlock when an async bind's IBE key arrives.
  void BackgroundUnlock(const AuditId& id, const std::string& identity,
                        const Bytes& ibe_key_bytes);

  KeypadConfig config_;
  Services services_;
  KeyCache cache_;
  Prefetcher prefetcher_;

  struct GraceEntry {
    Bytes kd;
    SimTime expires_at;
    EventQueue::EventId expiry_event;
  };
  std::map<AuditId, GraceEntry> grace_;
  std::map<AuditId, PendingCreate> pending_;
  // Current path of files with an outstanding async unlock (maintained
  // across renames so the background thread can find the file object).
  std::map<AuditId, std::string> lock_paths_;

  Stats stats_;
};

}  // namespace keypad

#endif  // SRC_KEYPAD_KEYPAD_FS_H_
