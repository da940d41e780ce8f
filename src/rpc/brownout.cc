#include "src/rpc/brownout.h"

#include <algorithm>

namespace keypad {

BrownoutController::BrownoutController(BrownoutOptions options)
    : options_(options) {}

void BrownoutController::NoteOverloadSignal(SimTime now) {
  if (!options_.enabled) {
    return;
  }
  ++stats_.signals;
  if (now - window_start_ > options_.window) {
    window_start_ = now;
    signals_in_window_ = 1;
  } else {
    ++signals_in_window_;
  }
  if (signals_in_window_ >= options_.signal_threshold) {
    if (now >= active_until_) {
      ++stats_.activations;
    }
    active_until_ = now + options_.hold;
  }
}

SimDuration BrownoutController::StretchBatchWindow(SimDuration base,
                                                   SimTime now) {
  if (!active(now)) {
    return base;
  }
  ++stats_.batch_windows_stretched;
  SimDuration stretched(static_cast<int64_t>(
      static_cast<double>(base.nanos()) * options_.batch_window_stretch));
  return std::max(stretched, options_.min_batch_window);
}

bool BrownoutController::SuppressPrefetch(SimTime now) {
  if (!active(now)) {
    return false;
  }
  ++stats_.prefetches_suppressed;
  return true;
}

SimDuration BrownoutController::CacheLifetimeForInsert(SimDuration base,
                                                       SimTime now) {
  stats_.exposure_base_key_seconds += base.seconds_f();
  if (!options_.stretch_cache_lifetime || !active(now)) {
    return base;
  }
  SimDuration stretched(static_cast<int64_t>(
      static_cast<double>(base.nanos()) * options_.cache_lifetime_stretch));
  ++stats_.cache_inserts_stretched;
  stats_.exposure_added_key_seconds += (stretched - base).seconds_f();
  return stretched;
}

}  // namespace keypad
