#include "src/net/link.h"

namespace keypad {
namespace {

// A duplicated message's second copy lands this long after the first.
constexpr SimDuration kDuplicateLag = SimDuration::Millis(5);

}  // namespace

bool NetworkLink::LoseInFlight() {
  if (chaos_.burst_loss) {
    // Advance the two-state Markov chain, then roll against the current
    // state's loss rate — classic Gilbert–Elliott.
    if (ge_bad_) {
      if (drop_rng_.Bernoulli(chaos_.p_exit_bad)) {
        ge_bad_ = false;
      }
    } else if (drop_rng_.Bernoulli(chaos_.p_enter_bad)) {
      ge_bad_ = true;
    }
    return ge_bad_ && chaos_.loss_bad > 0 &&
           drop_rng_.Bernoulli(chaos_.loss_bad);
  }
  return drop_probability_ > 0 && drop_rng_.Bernoulli(drop_probability_);
}

bool NetworkLink::Send(size_t payload_bytes, Direction dir,
                       std::function<void()> deliver) {
  if (disconnected_) {
    // The only *locally observable* failure: the interface is down, the
    // message never left. Callers should fail fast on `false`.
    ++messages_dropped_;
    return false;
  }
  if (partitioned_[static_cast<int>(dir)]) {
    // Blackholed in flight — the sender cannot tell.
    ++messages_dropped_;
    return true;
  }
  if (LoseInFlight()) {
    ++messages_dropped_;
    return true;
  }
  ++messages_sent_;
  bytes_sent_ += payload_bytes;

  SimDuration delay = profile_.OneWay();
  if (chaos_.latency_jitter_frac > 0) {
    delay = delay + SimDuration(static_cast<int64_t>(
                        static_cast<double>(delay.nanos()) *
                        chaos_.latency_jitter_frac * drop_rng_.UniformDouble()));
  }
  if (chaos_.reorder_probability > 0 &&
      drop_rng_.Bernoulli(chaos_.reorder_probability)) {
    delay = delay + SimDuration(static_cast<int64_t>(
                        drop_rng_.UniformU64(static_cast<uint64_t>(
                            chaos_.reorder_extra_max.nanos() + 1))));
  }
  if (chaos_.duplicate_probability > 0 &&
      drop_rng_.Bernoulli(chaos_.duplicate_probability)) {
    ++messages_duplicated_;
    queue_->ScheduleAfter(delay + kDuplicateLag, deliver);
  }
  queue_->ScheduleAfter(delay, std::move(deliver));
  return true;
}

void NetworkLink::ScheduleOutage(SimTime at, SimDuration duration) {
  queue_->Schedule(at, [this] { set_disconnected(true); });
  queue_->Schedule(at + duration, [this] { set_disconnected(false); });
}

void NetworkLink::ResetCounters() {
  bytes_sent_ = 0;
  messages_sent_ = 0;
  messages_dropped_ = 0;
  messages_duplicated_ = 0;
}

}  // namespace keypad
