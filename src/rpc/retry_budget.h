// Per-client retry budget (DESIGN.md §14).
//
// PR 2's retry ladder is exactly right when failures are independent
// (lossy link, one crashed replica) and exactly wrong when the failure IS
// the load: against a saturated server every timeout spawns a retry, the
// retries deepen the queue, the deeper queue times out more calls — the
// classic metastable retry storm. The budget breaks the loop with a token
// bucket: every *first* attempt deposits `ratio` tokens (default 0.1) and
// every retry withdraws one, so sustained retry traffic is capped at
// ~ratio of first-attempt traffic no matter how bad the tier looks. A
// small `initial_balance` reserve keeps sparse traffic (one lossy call a
// minute) retrying exactly as before — the budget only bites when many
// calls fail together, which is precisely the storm case.
//
// The budget also closes entirely for `reject_window` after the server
// answers REJECTED (admission shed, kResourceExhausted): the server has
// already said "I saw this and refused it cheaply" — retrying is not a
// lost packet to recover but load the server explicitly declined.
//
// Shared state with the circuit breaker: a half-open probe is admitted by
// the breaker as THE single in-flight canary, so the client exempts it
// from budget gating — the probe must be able to run its full ladder or a
// drained budget could keep the breaker open forever.
//
// Everything here is deterministic (no RNG, no wall clock), so seeded
// chaos runs replay bit-identically with the budget on.

#ifndef SRC_RPC_RETRY_BUDGET_H_
#define SRC_RPC_RETRY_BUDGET_H_

#include <cstdint>

#include "src/sim/time.h"

namespace keypad {

struct RetryBudgetOptions {
  // Master switch; off is the unbudgeted §7 retry ladder.
  bool enabled = false;
  // Tokens deposited per first attempt; the long-run retry-to-first-
  // attempt ratio the budget enforces.
  double ratio = 0.1;
  // Starting reserve so isolated failures retry at full strength.
  double initial_balance = 5.0;
  // Bucket cap: how much retry burst a quiet period can bank.
  double max_balance = 20.0;
  // After the server answers REJECTED, deny all retries for this long —
  // the rejection was explicit backpressure, not loss.
  SimDuration reject_window = SimDuration::Seconds(1);
};

class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetOptions options = {});

  bool enabled() const { return options_.enabled; }

  // A logical call started (attempt #1). Deposits `ratio`.
  void OnFirstAttempt();

  // May attempt #2+ proceed at `now`? Withdraws one token on success.
  // Always true when the budget is disabled.
  bool TryAcquireRetry(SimTime now);

  // The server answered REJECTED (admission shed / expired): close the
  // budget window — the rejection is non-retryable backpressure.
  void NoteServerRejected(SimTime now);

  double balance() const { return balance_; }
  uint64_t retries_allowed() const { return retries_allowed_; }
  uint64_t retries_denied() const { return retries_denied_; }
  uint64_t rejects_observed() const { return rejects_observed_; }

 private:
  RetryBudgetOptions options_;
  double balance_;
  SimTime rejected_until_;
  uint64_t retries_allowed_ = 0;
  uint64_t retries_denied_ = 0;
  uint64_t rejects_observed_ = 0;
};

}  // namespace keypad

#endif  // SRC_RPC_RETRY_BUDGET_H_
