#include "src/replication/failover_client.h"

#include <string_view>
#include <utility>

#include "src/keyservice/auth.h"
#include "src/replication/lease.h"
#include "src/replication/replica_set.h"

namespace keypad {

namespace {

// Pause between full no-leader cycles.
constexpr SimDuration kCyclePause = SimDuration::Millis(100);
// How long a replica whose transport just failed (crash, partition,
// timeout ladder exhausted) is skipped before being probed again. While a
// failover is in flight this keeps the stub polling the live promotion
// candidate instead of burning another retry ladder on the dead
// ex-leader, so goodput resumes ~one lease after the kill.
constexpr SimDuration kProbeBackoff = SimDuration::Seconds(3);

// Parses the replica index out of a serve-gate "NOT_LEADER:<i>" rejection.
bool ParseNotLeader(const Status& status, size_t* target) {
  if (status.code() != StatusCode::kFailedPrecondition) {
    return false;
  }
  constexpr std::string_view kTag = "NOT_LEADER:";
  const std::string& message = status.message();
  size_t pos = message.find(kTag);
  if (pos == std::string::npos) {
    return false;
  }
  size_t value = 0;
  bool any = false;
  for (size_t i = pos + kTag.size();
       i < message.size() && message[i] >= '0' && message[i] <= '9'; ++i) {
    value = value * 10 + static_cast<size_t>(message[i] - '0');
    any = true;
  }
  if (!any) {
    return false;
  }
  *target = value;
  return true;
}

// Failures worth trying another replica for: the transport gave up
// (crash, timeout, partition, open breaker) or the replica declined
// leadership (NOT_LEADER with a dead redirect target, DEMOTED mid-step-down).
bool RetryableElsewhere(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kFailedPrecondition;
}

}  // namespace

// The failover budget covers one full leader failover: lease lapse,
// staggered promotion across all replicas, an ack timeout of
// reconciliation traffic, and slack.
ReplicaRouter::ReplicaRouter(EventQueue* queue,
                             std::vector<RpcClient*> replicas,
                             std::string device_id, Bytes device_secret)
    : queue_(queue),
      device_id_(std::move(device_id)),
      device_secret_(std::move(device_secret)),
      replicas_(std::move(replicas)),
      failover_budget_(
          kLeaseDuration +
          kPromoteStagger * static_cast<int64_t>(replicas_.size()) +
          kAckTimeout + SimDuration::Seconds(2)) {}

// One logical call across its failover cycles.
struct ReplicaRouter::AsyncRoute {
  std::string method;
  WireValue::Array payload;
  CallContext ctx;
  std::function<void(Result<WireValue>)> done;
  SimTime deadline;  // End of the failover budget.
  size_t idx = 0;    // Replica the next attempt goes to.
  size_t tried_in_cycle = 0;
  // Most recent replica that answered at all (NOT_LEADER / DEMOTED): it is
  // alive and therefore the promotion candidate worth polling mid-failover.
  size_t last_alive = static_cast<size_t>(-1);
  // Replicas whose transport just failed: skipped (and redirects back to
  // them ignored) until the probe backoff lapses, so one dead ex-leader
  // can't soak up a full retry ladder per cycle.
  std::vector<SimTime> dead_until;
  // Redirect chains are bounded so two confused replicas pointing at each
  // other degrade into the failover cycle instead of looping.
  int redirect_budget = 0;
};

void ReplicaRouter::CallAsync(const std::string& method,
                              WireValue::Array payload,
                              const CallContext& ctx,
                              std::function<void(Result<WireValue>)> done) {
  if (replicas_.size() == 1 || queue_ == nullptr) {
    replicas_[0]->CallAsync(method,
                            FrameAuthedCall(device_id_, device_secret_,
                                            method, std::move(payload)),
                            ctx, std::move(done));
    return;
  }
  auto route = std::make_shared<AsyncRoute>();
  route->method = method;
  route->payload = std::move(payload);
  route->ctx = ctx;
  route->done = std::move(done);
  route->deadline = queue_->Now() + failover_budget_;
  route->idx = leader_hint_;
  route->dead_until.resize(replicas_.size());
  route->redirect_budget = static_cast<int>(2 * replicas_.size());
  StepAsync(std::move(route));
}

void ReplicaRouter::StepAsync(std::shared_ptr<AsyncRoute> route) {
  size_t idx = route->idx;
  replicas_[idx]->CallAsync(
      route->method,
      FrameAuthedCall(device_id_, device_secret_, route->method,
                      route->payload),
      route->ctx,
      [this, route](Result<WireValue> result) {
        if (result.ok()) {
          leader_hint_ = route->idx;
          route->done(std::move(result));
          return;
        }
        const Status& status = result.status();
        size_t redirect = 0;
        if (ParseNotLeader(status, &redirect) &&
            redirect < replicas_.size() && redirect != route->idx &&
            route->dead_until[redirect] <= queue_->Now() &&
            route->redirect_budget-- > 0) {
          ++redirects_;
          route->last_alive = route->idx;
          route->idx = redirect;
          route->tried_in_cycle = 0;
          StepAsync(route);
          return;
        }
        // A real answer (denied, not found, ...) returns as is, and so does
        // any failure while the shared client link is down: every replica
        // is equally unreachable, so offline fail-fast semantics hold.
        if (!RetryableElsewhere(status) ||
            replicas_[route->idx]->link()->disconnected()) {
          route->done(std::move(result));
          return;
        }
        if (status.code() == StatusCode::kUnavailable) {
          route->dead_until[route->idx] =
              queue_->Now() + kProbeBackoff;
        } else {
          route->last_alive = route->idx;
        }
        ++failovers_;
        ++route->tried_in_cycle;
        // Advance, skipping replicas still in probe backoff. Skips count
        // toward the cycle so a fully-dead set still reaches the pause.
        for (size_t hop = 0; hop < replicas_.size(); ++hop) {
          route->idx = (route->idx + 1) % replicas_.size();
          if (route->dead_until[route->idx] <= queue_->Now()) {
            break;
          }
          ++route->tried_in_cycle;
        }
        if (route->tried_in_cycle < replicas_.size()) {
          StepAsync(route);
          return;
        }
        // Full cycle, no leader: mid-failover. Pace the retries until a
        // backup's promotion timer fires or the budget runs out, polling
        // the replica last seen alive rather than the dead ex-leader.
        if (queue_->Now() >= route->deadline) {
          route->done(std::move(result));
          return;
        }
        route->tried_in_cycle = 0;
        queue_->ScheduleAfter(kCyclePause, [this, route] {
          if (route->last_alive != static_cast<size_t>(-1) &&
              route->dead_until[route->last_alive] <= queue_->Now()) {
            route->idx = route->last_alive;
          }
          StepAsync(route);
        });
      });
}

}  // namespace keypad
