// Directory-key prefetch policies (§3.3, §4 "Key Prefetching").
//
// The prototype's default is "full-directory-prefetch on the 3rd miss":
// per-directory miss counters detect a scanning workload; once a directory
// accumulates N key-cache misses, the keys for all its files are fetched in
// the same round trip as the triggering demand fetch. Prefetches are never
// recursive, bounding false positives to one directory (§5.2). A random
// policy is kept for the ablation comparison the paper mentions.
//
// Prefetcher v2 (kSequenceHints, DESIGN.md §13) replaces the per-directory
// heuristic with a learned one: OnAccess() feeds every covered open into a
// first-order Markov successor table, and a miss emits the successors that
// historically followed the missed file — confidence-gated, so one-off
// transitions never pollute the forensic report with prefetch-only keys.

#ifndef SRC_KEYPAD_PREFETCHER_H_
#define SRC_KEYPAD_PREFETCHER_H_

#include <functional>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "src/keypad/config.h"
#include "src/sim/random.h"
#include "src/util/ids.h"

namespace keypad {

class Prefetcher {
 public:
  Prefetcher(PrefetchPolicy policy, uint64_t rng_seed)
      : policy_(policy), rng_(rng_seed) {}

  const PrefetchPolicy& policy() const { return policy_; }
  void set_policy(PrefetchPolicy policy) { policy_ = policy; }

  // Called on a key-cache miss for a file in `dir_path`. Returns the audit
  // IDs to prefetch alongside the demand fetch (possibly empty).
  // `list_siblings` enumerates the protected files in the directory lazily
  // (it costs local header reads, so it only runs when the policy fires).
  std::vector<AuditId> OnMiss(
      const std::string& dir_path, const AuditId& missed_id,
      const std::function<std::vector<AuditId>()>& list_siblings);

  // v2 learning hook: called on every covered open (hit or miss) so the
  // successor table sees the true access order, not just the misses.
  // Cheap no-op under the other policies.
  void OnAccess(const AuditId& id);

  void Reset() {
    miss_counts_.clear();
    lru_.clear();
    successors_.clear();
    seq_lru_.clear();
    has_prev_ = false;
  }

  uint64_t prefetch_batches() const { return prefetch_batches_; }
  uint64_t keys_prefetched() const { return keys_prefetched_; }
  // Directories currently holding a miss counter (bounded by the policy's
  // max_tracked_dirs).
  size_t tracked_dirs() const { return miss_counts_.size(); }
  // Predecessors currently holding a successor list (bounded by the
  // policy's max_tracked_files).
  size_t tracked_files() const { return successors_.size(); }
  void ResetStats() {
    prefetch_batches_ = 0;
    keys_prefetched_ = 0;
  }

 private:
  struct DirMisses {
    int count = 0;
    std::list<std::string>::iterator lru_it;
  };
  // Successor counts for one predecessor, most-hit first. Bounded to the
  // policy fanout × 2 so a file with churning followers keeps only the
  // strongest transitions.
  struct Successors {
    std::vector<std::pair<AuditId, int>> counts;
    std::list<AuditId>::iterator lru_it;
  };

  // Bumps (or creates) the counter for `dir_path`, evicting the least
  // recently missed directory when the table is at its policy cap.
  int& TouchDir(const std::string& dir_path);
  Successors& TouchFile(const AuditId& id);

  PrefetchPolicy policy_;
  SimRandom rng_;
  // Per-directory miss counters with LRU recency (front = most recent).
  std::map<std::string, DirMisses> miss_counts_;
  std::list<std::string> lru_;
  // v2 Markov table: predecessor → weighted successors, LRU-bounded.
  std::map<AuditId, Successors> successors_;
  std::list<AuditId> seq_lru_;
  AuditId prev_;
  bool has_prev_ = false;
  uint64_t prefetch_batches_ = 0;
  uint64_t keys_prefetched_ = 0;
};

}  // namespace keypad

#endif  // SRC_KEYPAD_PREFETCHER_H_
