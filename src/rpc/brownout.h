// Client-side brownout controller (DESIGN.md §14).
//
// When the key tier starts answering REJECTED (admission shed or
// deadline-expired), the honest client response is to *send less*, not
// retry harder. The controller turns a burst of overload signals into a
// bounded "brownout" state during which the client:
//
//  * drops speculative prefetch fanout (kSequenceHints and friends) — a
//    suppressed prefetch costs one future demand miss, nothing else;
//  * stretches the ShardRouter batch window so more fetches share one
//    RPC, trading a little latency for fewer requests at the tier;
//  * optionally stretches the client key-cache lifetime — but this one
//    is never silent: a longer texp grows the Fig. 11 exposure-window
//    integral (every cached key is vulnerable for longer after a theft),
//    so it is off by default and every stretched insert's added
//    key-seconds are accounted in Stats where the benches surface them.
//
// Deterministic by construction: signals arrive on the virtual timeline
// and the state machine holds for fixed virtual durations.

#ifndef SRC_RPC_BROWNOUT_H_
#define SRC_RPC_BROWNOUT_H_

#include <cstdint>

#include "src/sim/time.h"

namespace keypad {

struct BrownoutOptions {
  // Master switch.
  bool enabled = false;
  // Overload signals within `window` that trip the brownout.
  int signal_threshold = 3;
  SimDuration window = SimDuration::Seconds(1);
  // How long a trip holds the brownout active past its last signal.
  SimDuration hold = SimDuration::Seconds(2);
  // Batch-window multiplier while active (a zero base window is lifted
  // to `min_batch_window` so stretching actually batches something).
  double batch_window_stretch = 4.0;
  SimDuration min_batch_window = SimDuration::Millis(1);
  // Stretch the client key-cache lifetime while active. Exposure cost —
  // never silently applied: default off, and when on the added
  // key-seconds are accounted against the Fig. 11 integral in Stats.
  bool stretch_cache_lifetime = false;
  double cache_lifetime_stretch = 1.5;
};

class BrownoutController {
 public:
  struct Stats {
    uint64_t signals = 0;       // Overload signals observed (REJECTED).
    uint64_t activations = 0;   // Distinct trips into brownout.
    uint64_t prefetches_suppressed = 0;  // Prefetch lists dropped.
    uint64_t batch_windows_stretched = 0;
    uint64_t cache_inserts_stretched = 0;
    // Fig. 11 exposure-window integral bookkeeping, in key-seconds:
    // `base` is what the configured texp would have exposed for the
    // inserts routed through the controller, `added` is the extra
    // exposure cache-lifetime stretching bought. added == 0 unless
    // stretch_cache_lifetime was explicitly turned on.
    double exposure_base_key_seconds = 0.0;
    double exposure_added_key_seconds = 0.0;
  };

  explicit BrownoutController(BrownoutOptions options = {});

  bool enabled() const { return options_.enabled; }
  const BrownoutOptions& options() const { return options_; }

  // A REJECTED (or deadline-expired) reply was observed at `now`.
  void NoteOverloadSignal(SimTime now);

  bool active(SimTime now) const {
    return options_.enabled && now < active_until_;
  }

  // Batch window to use for a flush armed at `now`.
  SimDuration StretchBatchWindow(SimDuration base, SimTime now);

  // True when speculative prefetch should be dropped at `now`; counts
  // one suppressed prefetch list when it fires.
  bool SuppressPrefetch(SimTime now);

  // Cache lifetime for a key inserted at `now`, with the exposure
  // integral accounted either way. Returns `base` unless the brownout
  // is active AND stretch_cache_lifetime was explicitly enabled.
  SimDuration CacheLifetimeForInsert(SimDuration base, SimTime now);

  const Stats& stats() const { return stats_; }

 private:
  BrownoutOptions options_;
  SimTime window_start_;
  int signals_in_window_ = 0;
  SimTime active_until_;
  Stats stats_;
};

}  // namespace keypad

#endif  // SRC_RPC_BROWNOUT_H_
