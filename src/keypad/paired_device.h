// Paired-device architecture (§3.5, Figure 4): a phone on a short-range
// Bluetooth link acts as a transparent extension of the key and metadata
// services.
//
// The laptop's Keypad talks its normal RPC protocol — but to the phone's
// server over Bluetooth instead of the internet. The phone:
//  * hoards recently used keys and serves them locally (a caching proxy
//    that hides cellular RTTs — Fig. 8b);
//  * when its uplink is connected, forwards misses upstream and immediately
//    uploads a journal record for every hoard-served access (one upload per
//    request), so the services' logs stay complete;
//  * when disconnected, serves from the hoard, locally generates remote
//    keys for new files, and journals every access/creation/namespace
//    event; on reconnection it uploads the journals in bulk.
//
// Upstream is the same client stack the laptop would run (DESIGN.md §29):
// a ShardRouter over one replica-aware stub per key shard, plus a
// replica-aware metadata stub. A key journal seals per shard, and only the
// entries of a shard whose upload failed stay journaled.
//
// Auditing: if only the laptop is lost, the phone (still with the user)
// plus the service logs give a full audit trail. If both are lost, the
// hoard's contents bound the extra exposure (directory granularity).

#ifndef SRC_KEYPAD_PAIRED_DEVICE_H_
#define SRC_KEYPAD_PAIRED_DEVICE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/keypad/key_cache.h"
#include "src/keyservice/key_service_client.h"
#include "src/metaservice/metadata_service_client.h"
#include "src/rpc/rpc.h"

namespace keypad {

class PhoneProxy {
 public:
  // How long hoarded keys are kept. Long by design: the phone is assumed
  // to stay with the user (and its loss is accounted for in auditing).
  static constexpr SimDuration kHoardTtl = SimDuration::Hours(1);

  // `uplink` is the phone's own internet link (cellular/WiFi);
  // `key_upstream`/`meta_upstream` are the clients over that link.
  // `key_secret`/`meta_secret` authenticate the laptop's frames (the phone
  // is paired, so it shares the device credentials).
  PhoneProxy(EventQueue* queue, NetworkLink* uplink, KeyClient* key_upstream,
             MetadataServiceClient* meta_upstream, std::string device_id,
             Bytes key_secret, Bytes meta_secret);

  // The server the laptop's Bluetooth RPC clients target.
  RpcServer* server() { return &server_; }

  bool online() const { return online_; }
  // Connecting reconnects the uplink and flushes both journals upstream
  // (blocking); disconnecting severs it.
  void SetUplinkConnected(bool connected);

  // Exposure accounting for the both-devices-lost case.
  std::vector<AuditId> HoardedKeys() const { return hoard_.CurrentKeys(); }
  size_t hoard_size() const { return hoard_.size(); }
  size_t key_journal_size() const { return key_journal_.size(); }
  size_t meta_journal_size() const { return meta_journal_.size(); }

  struct Stats {
    uint64_t served_from_hoard = 0;
    uint64_t forwarded_upstream = 0;
    uint64_t offline_creates = 0;
    uint64_t journal_entries_uploaded = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void BindHandlers();
  // Journals one namespace op made while the uplink is down.
  void JournalMetaOp(MetadataOp op, const AuditId& audit_id,
                     const DirId& dir_id, const DirId& parent_dir_id,
                     const std::string& name);
  // Uploads one tier's whole journal, awaited or not (DESIGN.md §32). The
  // batch leaves the journal first, so events journaled meanwhile queue
  // behind it; what did not seal goes back ahead of them.
  template <typename Entry>
  void Flush(std::vector<Entry>& journal, bool await);
  template <typename Entry>
  using Unsealed = std::function<void(std::vector<Entry>)>;
  // Uploads `batch`; `unsealed` gets what did not seal, in journal order
  // (the key tier seals per shard, the metadata tier all or nothing).
  void Upload(const std::vector<KeyClient::JournalEntry>& batch,
              Unsealed<KeyClient::JournalEntry> unsealed);
  void Upload(const std::vector<MetadataRecord>& batch,
              Unsealed<MetadataRecord> unsealed);

  EventQueue* queue_;
  NetworkLink* uplink_;
  KeyClient* key_upstream_;
  MetadataServiceClient* meta_upstream_;
  std::string device_id_;
  Bytes key_secret_;
  Bytes meta_secret_;

  RpcServer server_;
  KeyCache hoard_;
  SecureRandom local_rng_;
  bool online_ = true;

  // What the phone journaled and no upload sealed yet, oldest first.
  std::vector<KeyClient::JournalEntry> key_journal_;
  std::vector<MetadataRecord> meta_journal_;
  Stats stats_;
};

}  // namespace keypad

#endif  // SRC_KEYPAD_PAIRED_DEVICE_H_
