// Simulated network link: delivers byte payloads after the profile's
// one-way latency on the shared event queue, with failure injection.
//
// A NetworkLink carries both directions of a client↔server path, like a
// real physical link, but each Send names its Direction so asymmetric
// faults can be modeled. Failure modes:
//  * disconnected: the local interface is down (USB stick pulled, airplane
//    mode). Send() returns false immediately — the sender *knows* the
//    message never left, so callers can fail fast instead of waiting out
//    an RPC timeout;
//  * probabilistic loss (i.i.d. or Gilbert–Elliott bursts): the message is
//    put on the wire and vanishes in flight. Send() returns true — loss is
//    not locally observable, only a missing reply is;
//  * one-way partitions: all traffic in one direction silently blackholed
//    (asymmetric routing failure). Also not locally observable;
//  * chaos shaping: per-message latency jitter, duplication, reordering —
//    see LinkChaosOptions;
//  * scheduled outages: ScheduleOutage() flips `disconnected` from events
//    on the queue, for deterministic outage windows in tests and benches.
//
// All randomness is drawn from a seeded SimRandom, so a given seed yields
// an identical fault schedule on every run.
//
// The link also keeps byte/message counters, which the bandwidth bench
// (§5: "average Keypad bandwidth was under 5 kb/s") reads.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/net/profile.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"

namespace keypad {

// Deterministic fault-shaping knobs beyond plain loss. All probabilities
// are per message.
struct LinkChaosOptions {
  // Extra one-way delay, uniform in [0, latency_jitter_frac * OneWay()].
  double latency_jitter_frac = 0;

  // Deliver a second copy of the message 5 ms after the first (models
  // retransmitting middleboxes / multipath).
  double duplicate_probability = 0;

  // Delay this message by an extra uniform [0, reorder_extra_max] so later
  // messages can overtake it in the time-ordered queue.
  double reorder_probability = 0;
  SimDuration reorder_extra_max = SimDuration::Millis(50);

  // Gilbert–Elliott two-state burst-loss channel. When enabled it replaces
  // the i.i.d. drop_probability: each message first advances the
  // good/bad Markov state, then is lost with loss_bad in the bad state
  // (the good state loses nothing).
  bool burst_loss = false;
  double p_enter_bad = 0.005;  // good -> bad transition per message.
  double p_exit_bad = 0.10;    // bad -> good transition per message.
  double loss_bad = 0.6;
};

class NetworkLink {
 public:
  // Who is sending. Requests travel kForward (client -> server), responses
  // kReverse. Asymmetric partitions key off this.
  enum class Direction { kForward = 0, kReverse = 1 };

  NetworkLink(EventQueue* queue, NetworkProfile profile, uint64_t drop_seed = 0)
      : queue_(queue), profile_(std::move(profile)), drop_rng_(drop_seed) {}

  const NetworkProfile& profile() const { return profile_; }
  void set_profile(NetworkProfile profile) { profile_ = std::move(profile); }

  bool disconnected() const { return disconnected_; }
  void set_disconnected(bool disconnected) { disconnected_ = disconnected; }

  double drop_probability() const { return drop_probability_; }
  void set_drop_probability(double p) { drop_probability_ = p; }

  const LinkChaosOptions& chaos() const { return chaos_; }
  void set_chaos(LinkChaosOptions chaos) { chaos_ = chaos; }

  // Silently blackholes all traffic in `dir` (asymmetric partition). Unlike
  // `disconnected`, the sender cannot tell: Send still returns true.
  void set_partitioned(Direction dir, bool partitioned) {
    partitioned_[static_cast<int>(dir)] = partitioned;
  }
  bool partitioned(Direction dir) const {
    return partitioned_[static_cast<int>(dir)];
  }

  // Schedules a known-outage window [at, at + duration): the link flips to
  // disconnected and back via events on the queue.
  void ScheduleOutage(SimTime at, SimDuration duration);

  // Sends `payload_bytes` of data in `dir`; calls `deliver` after one-way
  // latency (plus any chaos shaping) unless the message is lost. Returns
  // false only for *locally observable* failure (link disconnected); wire
  // loss, partitions, and burst loss return true.
  bool Send(size_t payload_bytes, Direction dir, std::function<void()> deliver);
  bool Send(size_t payload_bytes, std::function<void()> deliver) {
    return Send(payload_bytes, Direction::kForward, std::move(deliver));
  }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t messages_duplicated() const { return messages_duplicated_; }
  void ResetCounters();

  EventQueue* queue() const { return queue_; }

 private:
  // Advances the Gilbert–Elliott chain one step and returns whether the
  // current message is lost (or applies i.i.d. drop_probability when burst
  // loss is off).
  bool LoseInFlight();

  EventQueue* queue_;
  NetworkProfile profile_;
  SimRandom drop_rng_;
  bool disconnected_ = false;
  double drop_probability_ = 0;
  LinkChaosOptions chaos_;
  bool partitioned_[2] = {false, false};
  bool ge_bad_ = false;  // Gilbert–Elliott channel state.

  uint64_t bytes_sent_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t messages_duplicated_ = 0;
};

}  // namespace keypad

#endif  // SRC_NET_LINK_H_
