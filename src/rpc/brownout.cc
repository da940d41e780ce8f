#include "src/rpc/brownout.h"

#include <algorithm>

namespace keypad {
namespace {

// While active, the batch window is stretched this many times; a zero
// window is lifted to kMinBatchWindow so stretching batches something.
constexpr double kBatchWindowStretch = 4.0;
constexpr SimDuration kMinBatchWindow = SimDuration::Millis(1);

}  // namespace

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
      static_cast<double>(base.nanos()) * kBatchWindowStretch));
  return std::max(stretched, kMinBatchWindow);
}

bool BrownoutController::SuppressPrefetch(SimTime now) {
  if (!active(now)) {
    return false;
  }
  ++stats_.prefetches_suppressed;
  return true;
}

}  // namespace keypad
