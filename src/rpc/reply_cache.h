// Server-side at-most-once execution: a bounded dedup/reply cache.
//
// Every RPC request carries a client-generated (client_id, seq) pair. The
// server executes a given request at most once; a retransmission of an
// already-executed request is answered from the cached reply *without*
// re-running the handler — so a retried `key.create` does not double-
// register and, critically, a retried `key.get` does not append a second
// audit-log row (which would inflate the §5.2 forensics false-positive
// rate). A retransmission that races the original (still in flight, e.g.
// inside an async handler) is silently dropped; the client's next retry
// finds the completed reply.
//
// The cache is bounded two ways. Capacity bounds worst-case memory (FIFO
// beyond `capacity` entries). Age bounds how long a reply can be replayed:
// a client only retransmits within its retry ladder, so a completed entry
// older than `max_age` of virtual time can never legitimately be asked for
// again — holding it just squeezes live entries out of the window. Both
// eviction classes are counted separately so tests (and operators) can
// tell "cache too small" from normal aging. In the durability model
// (DESIGN.md §7) the dedup record is written in the same durable append as
// the audit entry, so the completed-reply window survives a service
// crash/restart; only the in-flight marks (volatile by nature) are cleared
// on restart.
//
// One hashed table holds every entry, in flight or completed (DESIGN.md
// §28): an arriving request is classified with one probe and completed
// with one more. A FIFO of completed keys drives both evictions.

#ifndef SRC_RPC_REPLY_CACHE_H_
#define SRC_RPC_REPLY_CACHE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/sim/time.h"
#include "src/util/hash.h"

namespace keypad {

class ReplyCache {
 public:
  using RequestKey = std::pair<uint64_t, uint64_t>;  // (client id, seq).

  explicit ReplyCache(size_t capacity = 4096,
                      SimDuration max_age = SimDuration::Seconds(120));

  // What an arriving request finds in the cache.
  enum class Arrival {
    kNew,        // Now marked in flight: execute it.
    kInFlight,   // A retransmission racing the original: drop it.
    kCompleted,  // Already executed: answer from the cached reply.
  };
  // Classifies an arrival with one probe and counts hits and in-flight
  // drops. On kCompleted, `*reply` points at the cached reply until the
  // cache next changes.
  Arrival Admit(const RequestKey& key, const std::string** reply);

  // The completed reply for `key`, if the request already executed.
  std::optional<std::string> Lookup(const RequestKey& key) const;

  // Records the reply for an executed request and clears its in-flight
  // mark. Evicts completed entries older than `max_age` at `now`, then the
  // oldest entries beyond capacity.
  void Complete(const RequestKey& key, std::string reply,
                SimTime now = SimTime());

  // Restart semantics: requests that were mid-execution at crash time will
  // never produce a reply — forget them so client retries re-execute.
  void ClearInFlight();

  size_t size() const { return order_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t in_flight_drops() const { return in_flight_drops_; }
  uint64_t age_evictions() const { return age_evictions_; }
  uint64_t capacity_evictions() const { return capacity_evictions_; }

 private:
  struct Entry {
    std::string reply;
    bool completed = false;
  };
  struct Completion {
    RequestKey key;
    SimTime at;
  };
  struct KeyHash {
    size_t operator()(const RequestKey& key) const {
      return static_cast<size_t>(HashMix64(HashMix64(key.first) ^ key.second));
    }
  };

  size_t capacity_;
  SimDuration max_age_;
  std::unordered_map<RequestKey, Entry, KeyHash> entries_;
  std::deque<Completion> order_;  // Completion (== virtual-time) order.
  uint64_t hits_ = 0;
  uint64_t in_flight_drops_ = 0;
  uint64_t age_evictions_ = 0;
  uint64_t capacity_evictions_ = 0;
};

}  // namespace keypad

#endif  // SRC_RPC_REPLY_CACHE_H_
