// Generic replica-aware call router (DESIGN.md §9–§10): the client-side
// half of the replication substrate, factored out of the per-tier stubs.
//
// Constructed with the RpcClients of a whole replica set, the router
// remembers which replica last answered (the leader hint), follows
// NOT_LEADER:<i> redirects from the serve gate, and on kUnavailable
// (crash, partition, open breaker) fails over to the next replica. When a
// full cycle finds no leader — mid-failover, before a backup's promotion
// timer fires — it pauses briefly and retries until the failover budget
// runs out, so client goodput resumes as soon as a backup promotes
// instead of erroring out. The failover loop is written once, as the
// CallAsync state machine; the blocking Call awaits it (DESIGN.md §22).
//
// Tiers differ only in how a call is framed (which device identity and
// secret sign the auth tag), so the router takes a framing callback and
// the typed stubs (KeyServiceClient, MetadataServiceClient) stay thin
// marshalling shims on top.

#ifndef SRC_REPLICATION_FAILOVER_CLIENT_H_
#define SRC_REPLICATION_FAILOVER_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/result.h"

namespace keypad {

struct FailoverOptions {
  // Overall budget for riding out one leader failover (should cover
  // lease_duration + promote_stagger * replicas + slack).
  SimDuration budget = SimDuration::Seconds(8);
};

// Completion adapters for the typed stubs' async methods: a failed call's
// status passes through untouched, and a reply is parsed by `parse` (a
// function of the reply value, or a WireValue accessor) or reduced to its
// status.
template <typename T, typename Parse>
std::function<void(Result<WireValue>)> ThenParse(
    std::function<void(Result<T>)> done, Parse parse) {
  return [done = std::move(done), parse](Result<WireValue> result) {
    if (!result.ok()) {
      done(result.status());
      return;
    }
    done(std::invoke(parse, *result));
  };
}

inline std::function<void(Result<WireValue>)> ThenStatus(
    std::function<void(Status)> done) {
  return [done = std::move(done)](Result<WireValue> result) {
    done(result.status());
  };
}

class ReplicaRouter {
 public:
  // Frames one attempt of `method` around `payload` (auth tag, dedup
  // frame). Called per attempt: the tag binds the method, not the replica,
  // so the same payload re-frames cleanly against any of them.
  using Framer = std::function<WireValue::Array(const std::string& method,
                                                WireValue::Array payload)>;

  // Single-endpoint router (no replicas) — collapses to a plain call.
  ReplicaRouter(RpcClient* rpc, Framer framer)
      : framer_(std::move(framer)), replicas_{rpc} {}

  // Replica-set router: one RpcClient per replica, in replica-index order
  // (NOT_LEADER redirects are indices into this list).
  ReplicaRouter(EventQueue* queue, std::vector<RpcClient*> replicas,
                Framer framer, FailoverOptions failover)
      : queue_(queue),
        framer_(std::move(framer)),
        replicas_(std::move(replicas)),
        failover_(failover) {}

  // Replica-aware asynchronous call: leader hint, NOT_LEADER redirects,
  // failover cycles, paced retries under the failover budget. Collapses to
  // a plain single call with one replica. The CallContext (priority class,
  // deadline) rides down into every per-replica attempt's KPR2 frame; a
  // REJECTED fault (kResourceExhausted) is a real answer from a live
  // leader, not a failover trigger — it returns straight to the caller.
  void CallAsync(const std::string& method, WireValue::Array payload,
                 std::function<void(Result<WireValue>)> done) {
    CallAsync(method, std::move(payload), CallContext{}, std::move(done));
  }
  void CallAsync(const std::string& method, WireValue::Array payload,
                 const CallContext& ctx,
                 std::function<void(Result<WireValue>)> done);
  // Virtually-blocking call: CallAsync awaited (DESIGN.md §22), or the one
  // replica's blocking call in single-endpoint mode.
  Result<WireValue> Call(const std::string& method,
                         const WireValue::Array& payload) {
    return Call(method, payload, CallContext{});
  }
  Result<WireValue> Call(const std::string& method,
                         const WireValue::Array& payload,
                         const CallContext& ctx);

  RpcClient* rpc() const { return replicas_.front(); }
  size_t replica_count() const { return replicas_.size(); }
  size_t leader_hint() const { return leader_hint_; }
  // How often a call moved to another replica after a failure, and how
  // often a NOT_LEADER redirect was followed.
  uint64_t failovers() const { return failovers_; }
  uint64_t redirects() const { return redirects_; }

 private:
  struct AsyncRoute;

  // One framed attempt against the route's current replica. Framed per
  // attempt: the auth tag binds device/method/payload, not the replica, so
  // the same call replays cleanly against any of them (the reply caches
  // key on the dedup frame either way).
  void StepAsync(std::shared_ptr<AsyncRoute> route);

  EventQueue* queue_ = nullptr;
  Framer framer_;
  std::vector<RpcClient*> replicas_;
  size_t leader_hint_ = 0;
  FailoverOptions failover_;
  uint64_t failovers_ = 0;
  uint64_t redirects_ = 0;
};

}  // namespace keypad

#endif  // SRC_REPLICATION_FAILOVER_CLIENT_H_
