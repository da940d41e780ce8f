// Server-side admission control and request priority classes
// (DESIGN.md §14).
//
// Keypad's service tiers sit on the critical path of every cold open, so
// an overload (flash crowd, mass revocation, retry storm) must degrade
// into *cheap, explicit rejections* instead of an unbounded queue. The
// policy here is evaluated on the RpcServer busy-clock:
//
//  * every request carries a priority class in its KPR2 frame — demand
//    opens block a user, prefetch is speculative, background (journal
//    uploads, auditor catch-up) is deferrable;
//  * CoDel-style shedding: when the *expected sojourn* (queue wait +
//    service time) has exceeded `target_sojourn` continuously for
//    `overload_interval`, the server is overloaded and sheds by class —
//    background first, then prefetch, and demand only when the queue is
//    past `demand_slack` times the target;
//  * a hard `max_queue_depth` bound caps the queue no matter what;
//  * expired work is rejected instead of executed: at arrival when the
//    expected finish already overshoots the frame's deadline, and again
//    on dequeue when the deadline passed while the request sat queued.
//
// A shed request is answered with an explicit REJECTED fault
// (kResourceExhausted). The rejection is cheap by construction: it never
// reaches a handler, charges nothing to the busy clock, and is never
// sealed into the audit log — no key material leaves the service, so no
// audit row is owed (§14 discusses why this preserves the audit
// contract exactly).

#ifndef SRC_RPC_ADMISSION_H_
#define SRC_RPC_ADMISSION_H_

#include <cstdint>

#include "src/sim/time.h"

namespace keypad {

// Priority classes for server-side load shedding. Wire-encoded as one
// byte in the KPR2 request frame — keep the values stable. Lower value =
// more important (shed last).
enum class RpcPriority : uint8_t {
  kDemand = 0,      // A user is blocked on this (demand open, create).
  kPrefetch = 1,    // Speculative; the next demand miss re-fetches.
  kBackground = 2,  // Deferrable (journal upload, auditor catch-up).
};

const char* RpcPriorityName(RpcPriority p);

struct AdmissionOptions {
  // Master switch; the environment overrides the configured value:
  // KEYPAD_ADMISSION=0 forces the unbounded legacy queue, =1 forces
  // admission control on with the configured thresholds.
  bool enabled = false;
  // Hard bound on requests queued on the busy clock, any class.
  uint64_t max_queue_depth = 512;
  // Sojourn (expected queue wait + service time) the server aims for.
  SimDuration target_sojourn = SimDuration::Millis(5);
  // How long the sojourn must stay above target before the server calls
  // itself overloaded and starts shedding (CoDel-style: transient bursts
  // ride through, sustained overload does not).
  SimDuration overload_interval = SimDuration::Millis(100);
  // Once overloaded, class c is shed when the expected sojourn exceeds
  // target_sojourn * slack(c). Background sheds first, demand last.
  double demand_slack = 10.0;
  double prefetch_slack = 2.5;
  double background_slack = 1.0;
};

// Applies the KEYPAD_ADMISSION environment override to a configured
// enabled flag: "0/off/false/no" disables, "1/on/true/yes" enables,
// anything else keeps `configured`. CI reruns the read-path suites with
// it set to 1.
bool AdmissionEnabledEnv(bool configured);

}  // namespace keypad

#endif  // SRC_RPC_ADMISSION_H_
