// Client-side brownout controller (DESIGN.md §14).
//
// When the key tier starts answering REJECTED (admission shed or
// deadline-expired), the honest client response is to *send less*, not
// retry harder. The controller turns a burst of overload signals into a
// bounded "brownout" state during which the client:
//
//  * drops speculative prefetch fanout (kSequenceHints and friends) — a
//    suppressed prefetch costs one future demand miss, nothing else;
//  * stretches the ShardRouter batch window 4x (a zero window becomes
//    1 ms) so more fetches share one RPC, trading a little latency for
//    fewer requests at the tier.
//
// It never stretches the client key-cache lifetime: a longer texp would
// grow the Fig. 11 exposure-window integral, since every cached key stays
// vulnerable for longer after a theft.
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
};

class BrownoutController {
 public:
  struct Stats {
    uint64_t signals = 0;       // Overload signals observed (REJECTED).
    uint64_t activations = 0;   // Distinct trips into brownout.
    uint64_t prefetches_suppressed = 0;  // Prefetch lists dropped.
    uint64_t batch_windows_stretched = 0;
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
