// Keypad client configuration. The client's CPU cost constants live next
// to the code that charges them, in keypad_fs.cc.

#ifndef SRC_KEYPAD_CONFIG_H_
#define SRC_KEYPAD_CONFIG_H_

#include <functional>
#include <string>

#include "src/rpc/brownout.h"
#include "src/sim/time.h"

namespace keypad {

struct PrefetchPolicy {
  enum class Kind {
    kNone,
    // Prefetch `random_count` random same-directory keys on every miss.
    kRandomFromDir,
    // Prefetch the whole directory's keys on the Nth miss in that
    // directory (the prototype's default, N = 3).
    kFullDirOnNthMiss,
    // Prefetcher v2 (DESIGN.md §13): a per-device Markov successor table
    // learned from the access stream. On a miss, emit the successors that
    // historically followed the missed file — but only once a transition
    // has been seen `seq_confidence` times, so cold or random workloads
    // prefetch nothing instead of spraying false positives into the
    // forensic report.
    kSequenceHints,
  };
  Kind kind = Kind::kFullDirOnNthMiss;
  int nth_miss = 3;
  int random_count = 4;
  // Cap on the per-directory miss table: only the most recently missed
  // `max_tracked_dirs` directories keep counters (LRU eviction), so a
  // workload walking millions of directories can't grow client memory
  // without bound. An evicted directory just starts counting from zero
  // again. <= 0 means unlimited (the historical behavior).
  int max_tracked_dirs = 4096;
  // kSequenceHints knobs: a successor is emitted only after its transition
  // was observed `seq_confidence` times; at most `seq_fanout` successors
  // ride one miss; the learning table keeps the `max_tracked_files` most
  // recently accessed predecessors (LRU, same unbounded-memory guard as
  // the directory table).
  int seq_confidence = 3;
  int seq_fanout = 4;
  int max_tracked_files = 8192;

  static PrefetchPolicy None() { return {Kind::kNone, 0, 0}; }
  static PrefetchPolicy RandomFromDir(int count = 4) {
    return {Kind::kRandomFromDir, 0, count};
  }
  static PrefetchPolicy FullDirOnNthMiss(int n = 3) {
    return {Kind::kFullDirOnNthMiss, n, 0};
  }
  static PrefetchPolicy SequenceHints(int confidence = 3, int fanout = 4) {
    PrefetchPolicy p;
    p.kind = Kind::kSequenceHints;
    p.seq_confidence = confidence;
    p.seq_fanout = fanout;
    return p;
  }
};

struct KeypadConfig {
  // Key-cache expiration time Texp (paper default for evaluation: 100 s).
  SimDuration texp = SimDuration::Seconds(100);
  // Grace window for files with in-flight metadata updates (paper: 1 s).
  SimDuration grace = SimDuration::Seconds(1);
  PrefetchPolicy prefetch = PrefetchPolicy::FullDirOnNthMiss(3);
  bool ibe_enabled = true;
  // Partial coverage (§3.6): nullptr means every file is protected;
  // otherwise only paths for which this returns true are audited.
  std::function<bool(const std::string&)> coverage;
  // Assured delete: destroy the remote key when a file is unlinked, making
  // any lingering ciphertext (backups, disk images) permanently
  // unreadable. Off by default — it also removes the *owner's* ability to
  // recover the file, and the key's audit history loses its subject.
  bool destroy_keys_on_unlink = false;
  // Optional brownout controller (DESIGN.md §14), shared with the
  // device's ShardRouter. While the key tier signals overload the client
  // drops speculative prefetch fanout. Borrowed pointer; the deployment
  // owns the controller.
  BrownoutController* brownout = nullptr;
};

}  // namespace keypad

#endif  // SRC_KEYPAD_CONFIG_H_
