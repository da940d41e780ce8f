// Discrete-event simulation core: a virtual clock plus a time-ordered queue
// of callbacks.
//
// The Keypad client, the audit services, the network links, and the key-cache
// expiry logic all share one EventQueue. Two styles of use coexist:
//
//  * Event-driven: Schedule(t, fn) runs fn when virtual time reaches t
//    (key expirations, in-flight RPC deliveries, background unlock threads).
//  * Virtually-blocking: code that models a thread performing a synchronous
//    operation calls AdvanceBy() to charge CPU time and Await() (built on
//    RunUntilFlag()) to "block" on an asynchronous operation's completion.
//    Both pump due events, so background activity interleaves exactly as
//    it would in a real multithreaded system, but deterministically.
//
// Nested pumping is allowed (an event handler may itself block on an RPC);
// every event fires exactly once, in time order, whichever loop pumps it.
//
// Implementation (DESIGN.md §11): an intrusive pairing heap over
// slab-allocated event nodes, ordered by (time, insertion sequence) so
// same-timestamp events fire in FIFO order. The seed implementation kept a
// std::map<(time,seq), std::function> plus a second id→key map, paying two
// red-black-tree allocations plus rebalancing per event and an O(log n)
// double lookup per Cancel. Here a node is a fixed-size slot recycled
// through a free list, the callback is a small-buffer EventFn stored inline
// in the node, and an EventId encodes the node's slot and a generation
// counter, making Cancel and IsPending O(1): cancellation tombstones the
// node in place and the pump discards tombstones when they surface at the
// heap root.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/time.h"

namespace keypad {

class EventQueue {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (clamped to Now()).
  EventId Schedule(SimTime at, EventFn fn);
  EventId ScheduleAfter(SimDuration delay, EventFn fn) {
    return Schedule(now_ + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false if it already ran or was
  // cancelled. O(1): the node is tombstoned in place (its callback and the
  // resources it captured are released immediately) and reclaimed when it
  // reaches the heap root.
  bool Cancel(EventId id);

  // True if `id` is still pending. O(1).
  bool IsPending(EventId id) const;

  // Advances the clock by `d`, running every event due in (now, now+d] in
  // time order. Models a thread spending `d` of CPU/think time.
  void AdvanceBy(SimDuration d);

  // Runs events until `t`, then sets the clock to `t`.
  void RunUntil(SimTime t);

  // Runs all pending events (including ones they schedule), jumping the clock
  // forward. Stops when the queue is empty.
  void RunUntilIdle();

  // Pumps events in time order until *flag becomes true or `deadline` passes.
  // Returns true if the flag was set. On timeout the clock is left at
  // `deadline`. Models a thread blocking on a condition with a timeout.
  bool RunUntilFlag(const bool* flag, SimTime deadline = SimTime::Max());

  // Runs an asynchronous operation to completion in virtual time: calls
  // start(done) and pumps events until `done` has fired once, then returns
  // the value it delivered. Every blocking client call is its async twin
  // awaited this way (DESIGN.md §22), so retry, failover and gather logic
  // exists once. The completion slot is shared with `done`, so a callback
  // that outlives this frame never writes into it. An operation that can
  // never complete (the queue drains first) aborts.
  template <typename T, typename Start>
  T Await(Start&& start) {
    struct Slot {
      bool done = false;
      std::optional<T> value;
    };
    auto slot = std::make_shared<Slot>();
    start(std::function<void(T)>([slot](T value) {
      if (!slot->done) {
        slot->value.emplace(std::move(value));
        slot->done = true;
      }
    }));
    if (!RunUntilFlag(&slot->done)) {
      std::abort();
    }
    return std::move(*slot->value);
  }

  // Number of pending (scheduled, not yet run or cancelled) events.
  size_t pending_count() const { return live_; }

  // Lifetime counters for the sim-core bench: events executed, and the
  // high-water node count (slab slots ever allocated — the queue's memory
  // footprint is this many fixed-size nodes, regardless of churn).
  uint64_t executed_count() const { return executed_; }
  size_t allocated_nodes() const { return slabs_.size() * kNodesPerSlab; }

 private:
  struct Node {
    SimTime at;
    uint64_t seq = 0;  // Insertion sequence: FIFO tie-break within a time.
    Node* child = nullptr;
    Node* sibling = nullptr;
    uint32_t slot = 0;  // Index into the slab array; fixed for life.
    uint32_t gen = 1;   // Bumped on free, so stale EventIds never resolve.
    bool in_use = false;
    bool cancelled = false;
    EventFn fn;
  };

  static constexpr size_t kNodesPerSlab = 256;

  // a fires strictly before b. (at, seq) is a total order: deterministic.
  static bool Before(const Node* a, const Node* b) {
    return a->at < b->at || (a->at == b->at && a->seq < b->seq);
  }
  static Node* Merge(Node* a, Node* b);
  // Standard two-pass pairing-heap combine of a popped root's child list,
  // iterative so million-event queues never recurse.
  static Node* MergePairs(Node* first);

  Node* Acquire();
  void Release(Node* n);
  // Discards tombstoned (cancelled) nodes at the root; returns the earliest
  // live node without popping it, or nullptr if none remain.
  Node* PeekLive();
  // Pops the root (must be PeekLive()'s result), advances the clock to it,
  // releases its node, and returns its callback ready to invoke.
  EventFn TakeDue();

  Node* NodeFor(EventId id) const;

  SimTime now_ = SimTime::Epoch();
  uint64_t next_seq_ = 1;
  Node* root_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> slabs_;
  std::vector<Node*> free_;
  size_t live_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace keypad

#endif  // SRC_SIM_EVENT_QUEUE_H_
