#include "src/rpc/retry_budget.h"

#include <algorithm>

namespace keypad {

RetryBudget::RetryBudget(RetryBudgetOptions options)
    : options_(options),
      balance_(options.initial_balance) {}

void RetryBudget::OnFirstAttempt() {
  if (!options_.enabled) {
    return;
  }
  balance_ = std::min(balance_ + options_.ratio, options_.max_balance);
}

bool RetryBudget::TryAcquireRetry(SimTime now) {
  if (!options_.enabled) {
    return true;
  }
  if (now < rejected_until_) {
    ++retries_denied_;
    return false;
  }
  if (balance_ < 1.0) {
    ++retries_denied_;
    return false;
  }
  balance_ -= 1.0;
  ++retries_allowed_;
  return true;
}

void RetryBudget::NoteServerRejected(SimTime now) {
  if (!options_.enabled) {
    return;
  }
  ++rejects_observed_;
  rejected_until_ = std::max(rejected_until_, now + options_.reject_window);
}

}  // namespace keypad
