#include "src/rpc/reply_cache.h"

namespace keypad {

ReplyCache::ReplyCache(size_t capacity, SimDuration max_age)
    : capacity_(capacity), max_age_(max_age) {
  entries_.reserve(capacity);
}

ReplyCache::Arrival ReplyCache::Admit(const RequestKey& key,
                                      const std::string** reply) {
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) {
    return Arrival::kNew;
  }
  if (!it->second.completed) {
    ++in_flight_drops_;
    return Arrival::kInFlight;
  }
  ++hits_;
  *reply = &it->second.reply;
  return Arrival::kCompleted;
}

std::optional<std::string> ReplyCache::Lookup(const RequestKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.completed) {
    return std::nullopt;
  }
  return it->second.reply;
}

void ReplyCache::Complete(const RequestKey& key, std::string reply,
                          SimTime now) {
  Entry& entry = entries_[key];
  if (entry.completed) {
    return;  // Already completed (duplicate execution is a caller bug).
  }
  entry.reply = std::move(reply);
  entry.completed = true;
  order_.push_back({key, now});
  // Virtual time is monotonic, so completion order == timestamp order and
  // age eviction only ever needs to look at the front. max_age <= 0
  // disables the age bound.
  while (max_age_ > SimDuration() && !order_.empty() &&
         order_.front().at + max_age_ <= now) {
    entries_.erase(order_.front().key);
    order_.pop_front();
    ++age_evictions_;
  }
  while (order_.size() > capacity_) {
    entries_.erase(order_.front().key);
    order_.pop_front();
    ++capacity_evictions_;
  }
}

void ReplyCache::ClearInFlight() {
  std::erase_if(entries_,
                [](const auto& entry) { return !entry.second.completed; });
}

}  // namespace keypad
