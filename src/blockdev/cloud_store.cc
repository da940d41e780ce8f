#include "src/blockdev/cloud_store.h"

#include <utility>

namespace keypad {

void SimObjectStore::Put(std::string key, Bytes data,
                         std::function<void(Status)> done) {
  ++puts_;
  bytes_uploaded_ += data.size();
  SimDuration delay = PutDelay(data.size());
  queue_->ScheduleAfter(
      delay, [this, key = std::move(key), data = std::move(data),
              done = std::move(done)]() mutable {
        settling_[key] = data;
        queue_->ScheduleAfter(
            kVisibilityLag, [this, key, data = std::move(data)]() mutable {
              auto it = settling_.find(key);
              // A newer upload may have replaced the settling entry; only
              // our own write moves.
              if (it != settling_.end() && it->second == data) {
                settling_.erase(it);
              }
              visible_[key] = std::move(data);
            });
        if (done) {
          done(Status::Ok());
        }
      });
}

void SimObjectStore::Get(std::string key,
                         std::function<void(Result<Bytes>)> done) {
  ++gets_;
  queue_->ScheduleAfter(
      kGetLatency,
      [this, key = std::move(key), done = std::move(done)]() {
        auto it = visible_.find(key);
        if (it == visible_.end()) {
          done(NotFoundError("cloud: no visible object " + key));
          return;
        }
        bytes_downloaded_ += it->second.size();
        done(it->second);
      });
}

void SimObjectStore::CommitManifest(Bytes manifest,
                                    std::function<void(Status)> done) {
  ++puts_;
  bytes_uploaded_ += manifest.size();
  SimDuration delay = PutDelay(manifest.size());
  queue_->ScheduleAfter(delay, [this, manifest = std::move(manifest),
                                done = std::move(done)]() mutable {
    manifest_ = std::move(manifest);
    has_manifest_ = true;
    ++manifest_generation_;
    if (done) {
      done(Status::Ok());
    }
  });
}

Result<Bytes> SimObjectStore::BlockingGet(const std::string& key) {
  ++gets_;
  queue_->AdvanceBy(kGetLatency);
  auto it = visible_.find(key);
  if (it == visible_.end()) {
    return NotFoundError("cloud: no visible object " + key);
  }
  queue_->AdvanceBy(TransferTime(it->second.size()));
  bytes_downloaded_ += it->second.size();
  return it->second;
}

Result<Bytes> SimObjectStore::BlockingGetManifest() {
  ++gets_;
  queue_->AdvanceBy(kGetLatency);
  if (!has_manifest_) {
    return NotFoundError("cloud: no manifest committed");
  }
  queue_->AdvanceBy(TransferTime(manifest_.size()));
  bytes_downloaded_ += manifest_.size();
  return manifest_;
}

void SimObjectStore::SettleNow() {
  for (auto& [key, data] : settling_) {
    visible_[key] = std::move(data);
  }
  settling_.clear();
}

}  // namespace keypad
