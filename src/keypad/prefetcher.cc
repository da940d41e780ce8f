#include "src/keypad/prefetcher.h"

#include <algorithm>

namespace keypad {

int& Prefetcher::TouchDir(const std::string& dir_path) {
  auto it = miss_counts_.find(dir_path);
  if (it != miss_counts_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.count;
  }
  if (policy_.max_tracked_dirs > 0 &&
      miss_counts_.size() >= static_cast<size_t>(policy_.max_tracked_dirs)) {
    // Forget the coldest directory; if it gets scanned again it simply
    // re-counts from zero (a slightly later prefetch trigger, never a
    // missed audit record).
    miss_counts_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(dir_path);
  DirMisses& entry = miss_counts_[dir_path];
  entry.lru_it = lru_.begin();
  return entry.count;
}

Prefetcher::Successors& Prefetcher::TouchFile(const AuditId& id) {
  auto it = successors_.find(id);
  if (it != successors_.end()) {
    seq_lru_.splice(seq_lru_.begin(), seq_lru_, it->second.lru_it);
    return it->second;
  }
  if (policy_.max_tracked_files > 0 &&
      successors_.size() >= static_cast<size_t>(policy_.max_tracked_files)) {
    // Forget the coldest predecessor: its transitions re-learn from zero
    // if the pattern comes back (a delayed prefetch, never a missed audit
    // record).
    successors_.erase(seq_lru_.back());
    seq_lru_.pop_back();
  }
  seq_lru_.push_front(id);
  Successors& entry = successors_[id];
  entry.lru_it = seq_lru_.begin();
  return entry;
}

void Prefetcher::OnAccess(const AuditId& id) {
  if (policy_.kind != PrefetchPolicy::Kind::kSequenceHints) {
    return;
  }
  if (has_prev_ && !(prev_ == id)) {
    Successors& entry = TouchFile(prev_);
    auto hit = std::find_if(entry.counts.begin(), entry.counts.end(),
                            [&id](const std::pair<AuditId, int>& s) {
                              return s.first == id;
                            });
    if (hit != entry.counts.end()) {
      ++hit->second;
      // Keep the list ordered most-hit first so emission and eviction are
      // both one pass.
      while (hit != entry.counts.begin() &&
             hit->second > std::prev(hit)->second) {
        std::iter_swap(hit, std::prev(hit));
        --hit;
      }
    } else {
      size_t cap = static_cast<size_t>(std::max(policy_.seq_fanout, 1)) * 2;
      if (entry.counts.size() < cap) {
        entry.counts.emplace_back(id, 1);
      } else if (entry.counts.back().second <= 1) {
        // Replace the weakest follower; established transitions survive
        // churn from one-off accesses.
        entry.counts.back() = {id, 1};
      }
    }
  }
  prev_ = id;
  has_prev_ = true;
}

std::vector<AuditId> Prefetcher::OnMiss(
    const std::string& dir_path, const AuditId& missed_id,
    const std::function<std::vector<AuditId>()>& list_siblings) {
  std::vector<AuditId> out;
  switch (policy_.kind) {
    case PrefetchPolicy::Kind::kNone:
      return out;

    case PrefetchPolicy::Kind::kRandomFromDir: {
      std::vector<AuditId> siblings = list_siblings();
      siblings.erase(std::remove(siblings.begin(), siblings.end(), missed_id),
                     siblings.end());
      rng_.Shuffle(siblings);
      size_t take = std::min<size_t>(
          siblings.size(), static_cast<size_t>(policy_.random_count));
      out.assign(siblings.begin(), siblings.begin() + static_cast<long>(take));
      break;
    }

    case PrefetchPolicy::Kind::kFullDirOnNthMiss: {
      int& count = TouchDir(dir_path);
      ++count;
      if (count < policy_.nth_miss) {
        return out;
      }
      count = 0;  // Re-arm: a later scan of the same dir re-triggers.
      out = list_siblings();
      out.erase(std::remove(out.begin(), out.end(), missed_id), out.end());
      break;
    }

    case PrefetchPolicy::Kind::kSequenceHints: {
      auto it = successors_.find(missed_id);
      if (it == successors_.end()) {
        return out;
      }
      // counts is ordered most-hit first; take the confident prefix.
      for (const auto& [succ, count] : it->second.counts) {
        if (count < policy_.seq_confidence ||
            out.size() >= static_cast<size_t>(std::max(policy_.seq_fanout,
                                                       0))) {
          break;
        }
        if (succ == missed_id) {
          continue;
        }
        out.push_back(succ);
      }
      break;
    }
  }
  if (!out.empty()) {
    ++prefetch_batches_;
    keys_prefetched_ += out.size();
  }
  return out;
}

}  // namespace keypad
