// SimObjectStore: a simulated cloud object store (S3-style) for the
// write-back tier (DESIGN.md §12).
//
// Semantics modeled:
//  * per-op latency plus per-byte transfer cost, charged in virtual time;
//  * eventual consistency: a Put's completion callback fires when the
//    upload finishes, but the object only becomes visible to Get after an
//    additional visibility lag;
//  * an atomic manifest slot (the hcfs atomic_tocloud idiom): object
//    uploads carry generation-tagged keys, and one CommitManifest pointer
//    flip publishes a consistent volume generation — readers see the old
//    manifest or the new one, never a mix.

#ifndef SRC_BLOCKDEV_CLOUD_STORE_H_
#define SRC_BLOCKDEV_CLOUD_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/sim/event_queue.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace keypad {

class SimObjectStore {
 public:
  static constexpr SimDuration kPutLatency = SimDuration::Millis(25);
  static constexpr SimDuration kGetLatency = SimDuration::Millis(20);
  // Sustained transfer rate, bytes per virtual second (~40 MB/s).
  static constexpr double kBytesPerSecond = 40e6;
  // Eventual consistency: how long after upload completion a Put stays
  // invisible to Get.
  static constexpr SimDuration kVisibilityLag = SimDuration::Millis(150);

  explicit SimObjectStore(EventQueue* queue) : queue_(queue) {}

  SimDuration PutDelay(size_t bytes) const {
    return kPutLatency + TransferTime(bytes);
  }
  SimDuration GetDelay(size_t bytes) const {
    return kGetLatency + TransferTime(bytes);
  }

  // Asynchronous upload. `done` fires after the upload delay; visibility
  // to Get follows after kVisibilityLag.
  void Put(std::string key, Bytes data, std::function<void(Status)> done);

  // Asynchronous download; the lookup happens at fire time, so it observes
  // eventual consistency.
  void Get(std::string key, std::function<void(Result<Bytes>)> done);

  // Atomic manifest flip: after the upload delay, the manifest slot points
  // at `manifest` in one indivisible step (no visibility lag — the flip IS
  // the publication point).
  void CommitManifest(Bytes manifest, std::function<void(Status)> done);

  // Synchronous helpers for scrub/restore paths: advance virtual time by
  // the op's delay (pumping due events), then perform the op. Callers must
  // NOT hold an open storage transaction.
  Result<Bytes> BlockingGet(const std::string& key);
  Result<Bytes> BlockingGetManifest();

  // Test hook: makes every completed-but-invisible upload visible now.
  void SettleNow();

  bool HasVisible(const std::string& key) const {
    return visible_.find(key) != visible_.end();
  }
  uint64_t manifest_generation() const { return manifest_generation_; }

  // Telemetry.
  uint64_t puts() const { return puts_; }
  uint64_t gets() const { return gets_; }
  uint64_t bytes_uploaded() const { return bytes_uploaded_; }
  uint64_t bytes_downloaded() const { return bytes_downloaded_; }

 private:
  SimDuration TransferTime(size_t bytes) const {
    return SimDuration::FromSecondsF(static_cast<double>(bytes) /
                                     kBytesPerSecond);
  }

  EventQueue* queue_;

  std::map<std::string, Bytes> visible_;
  // Uploaded but not yet visible (keyed by key; last write wins).
  std::map<std::string, Bytes> settling_;
  Bytes manifest_;
  bool has_manifest_ = false;
  uint64_t manifest_generation_ = 0;

  uint64_t puts_ = 0;
  uint64_t gets_ = 0;
  uint64_t bytes_uploaded_ = 0;
  uint64_t bytes_downloaded_ = 0;
};

}  // namespace keypad

#endif  // SRC_BLOCKDEV_CLOUD_STORE_H_
