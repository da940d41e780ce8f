#include "src/keyservice/shard_router.h"

#include <memory>
#include <optional>

namespace keypad {

namespace {

// Priority class a fetch rides the wire with (DESIGN.md §14): only
// speculative prefetch is sheddable ahead of the rest — every other op
// that reaches the fetch path (demand fetch, refresh of a key a user
// holds open) has a user blocked on it.
RpcPriority PriorityForOp(AccessOp op) {
  return op == AccessOp::kPrefetch ? RpcPriority::kPrefetch
                                   : RpcPriority::kDemand;
}

// Blocking shim over the async scatter paths: issue, then virtually block
// until the completion lands (the same RunUntilFlag discipline RpcClient
// uses, so background traffic keeps interleaving).
template <typename T>
struct Waiter {
  bool done = false;
  std::optional<T> value;

  std::function<void(T)> Callback() {
    return [this](T v) {
      value = std::move(v);
      done = true;
    };
  }
};

}  // namespace

ShardRouter::ShardRouter(EventQueue* queue,
                         std::vector<KeyServiceClient*> shards)
    : ShardRouter(queue, std::move(shards), Options()) {}

ShardRouter::ShardRouter(EventQueue* queue,
                         std::vector<KeyServiceClient*> shards,
                         Options options)
    : queue_(queue),
      shards_(std::move(shards)),
      options_(options),
      ring_(shards_.size(), options.ring_seed, options.vnodes_per_shard) {}

const std::string& ShardRouter::device_id() const {
  return shards_.front()->device_id();
}

std::map<size_t, std::vector<AuditId>> ShardRouter::Partition(
    const std::vector<AuditId>& audit_ids) const {
  std::map<size_t, std::vector<AuditId>> plan;
  for (const auto& id : audit_ids) {
    plan[ring_.ShardFor(id)].push_back(id);
  }
  return plan;
}

void ShardRouter::EnqueueFetch(const AuditId& audit_id, AccessOp op,
                               FetchDone done) {
  if (!options_.batch_fetch) {
    // Ablation path: one key.get RPC per item. Any failure is reported as
    // a per-item outcome; the caller's gather decides what it means.
    OwnerOf(audit_id)->GetKeyAsync(
        audit_id, op, [this, done = std::move(done)](Result<Bytes> result) {
          if (options_.brownout && !result.ok() &&
              IsRejectedByServer(result.status())) {
            options_.brownout->NoteOverloadSignal(queue_->Now());
          }
          done({std::move(result), /*transport=*/false});
        });
    return;
  }
  size_t shard = ring_.ShardFor(audit_id);
  // The fetch inherits the stub's RPC deadline as of *now* — members of
  // a later flush keep the budget they arrived with, so batch-window
  // stretching never silently grants queued work extra time.
  SimTime deadline =
      queue_->Now() + shards_[shard]->rpc()->options().total_deadline;
  pending_[shard].push_back({audit_id, op, deadline, std::move(done)});
  if (flush_scheduled_.insert(shard).second) {
    // The flush runs at the same virtual instant, after the current event
    // cascade has finished enqueueing, so every fetch issued in this tick
    // shares the RPC without added latency. Under brownout the window
    // stretches so more fetches share one RPC.
    SimDuration window;
    if (options_.brownout) {
      window =
          options_.brownout->StretchBatchWindow(SimDuration(0), queue_->Now());
    }
    queue_->ScheduleAfter(window, [this, shard] { FlushShard(shard); });
  }
}

void ShardRouter::FlushShard(size_t shard) {
  flush_scheduled_.erase(shard);
  auto node = pending_.extract(shard);
  if (node.empty() || node.mapped().empty()) {
    return;
  }
  auto batch =
      std::make_shared<std::vector<PendingFetch>>(std::move(node.mapped()));
  std::vector<MultiGetItem> items;
  items.reserve(batch->size());
  // The combined RPC is as urgent as its most urgent member and as
  // patient as its least patient one: tightest deadline, best priority.
  CallContext ctx;
  ctx.priority = RpcPriority::kPrefetch;
  SimTime tightest = (*batch)[0].deadline;
  for (const auto& p : *batch) {
    items.push_back({p.id, p.op});
    ctx.priority = std::min(ctx.priority, PriorityForOp(p.op));
    tightest = std::min(tightest, p.deadline);
  }
  ctx.deadline = tightest;
  ++stats_.batch_rpcs;
  ++stats_.subrequests;
  stats_.batched_keys += items.size();
  shards_[shard]->GetKeysTypedAsync(
      items, ctx, [this, batch](Result<MultiGetResult> result) {
        if (!result.ok()) {
          if (options_.brownout && IsRejectedByServer(result.status())) {
            options_.brownout->NoteOverloadSignal(queue_->Now());
          }
          ++stats_.shard_errors;
          for (auto& p : *batch) {
            p.done({result.status(), /*transport=*/true});
          }
          return;
        }
        // The service processed the items in request order and appended
        // hits and misses in that same order, so walking the batch against
        // the two response queues front-first reassociates every item —
        // including duplicate ids.
        std::deque<std::pair<AuditId, Bytes>> keys(result->keys.begin(),
                                                   result->keys.end());
        std::deque<MultiGetMiss> misses(result->misses.begin(),
                                        result->misses.end());
        for (auto& p : *batch) {
          if (!keys.empty() && keys.front().first == p.id) {
            p.done({std::move(keys.front().second), /*transport=*/false});
            keys.pop_front();
          } else if (!misses.empty() && misses.front().audit_id == p.id) {
            p.done({misses.front().status, /*transport=*/false});
            misses.pop_front();
          } else {
            p.done({NotFoundError("key missing from multi-get response"),
                    /*transport=*/false});
          }
        }
      });
}

Result<Bytes> ShardRouter::CreateKey(const AuditId& audit_id) {
  return OwnerOf(audit_id)->CreateKey(audit_id);
}

void ShardRouter::CreateKeyAsync(const AuditId& audit_id,
                                 std::function<void(Result<Bytes>)> done) {
  OwnerOf(audit_id)->CreateKeyAsync(audit_id, std::move(done));
}

Result<Bytes> ShardRouter::GetKey(const AuditId& audit_id, AccessOp op) {
  if (!options_.single_flight && !options_.batch_fetch) {
    return OwnerOf(audit_id)->GetKey(audit_id, op);
  }
  Waiter<Result<Bytes>> waiter;
  GetKeyAsync(audit_id, op, waiter.Callback());
  queue_->RunUntilFlag(&waiter.done);
  return std::move(*waiter.value);
}

void ShardRouter::GetKeyAsync(const AuditId& audit_id, AccessOp op,
                              std::function<void(Result<Bytes>)> done) {
  if (!options_.single_flight) {
    // EnqueueFetch handles both wire shapes (batched multi-get or the
    // one-RPC-per-key ablation) and feeds REJECTED replies to the
    // brownout controller either way.
    EnqueueFetch(audit_id, op, [done = std::move(done)](FetchOutcome o) {
      done(std::move(o.key));
    });
    return;
  }
  FlightKey key(audit_id, static_cast<int>(op));
  auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    // Someone is already fetching this key: ride their RPC.
    ++stats_.single_flight_joins;
    it->second.push_back(std::move(done));
    return;
  }
  ++stats_.single_flight_leaders;
  in_flight_[key].push_back(std::move(done));
  // The leader's fetch rides the owning shard's pending batch (one
  // multi-get RPC shared with whatever else this tick issued); with
  // batching off it goes out as its own key.get.
  EnqueueFetch(audit_id, op, [this, key](FetchOutcome o) {
    // Detach the waiter list first: a completion may immediately issue
    // a fresh fetch for the same id, which must start a new flight.
    auto node = in_flight_.extract(key);
    for (auto& waiter : node.mapped()) {
      waiter(o.key);
    }
  });
}

void ShardRouter::GetKeysAsync(
    const std::vector<AuditId>& audit_ids,
    std::function<void(Result<KeyPairs>)> done) {
  if (options_.batch_fetch) {
    if (audit_ids.empty()) {
      queue_->ScheduleAfter(SimDuration(),
                            [done = std::move(done)] { done(KeyPairs{}); });
      return;
    }
    std::set<size_t> span;
    for (const auto& id : audit_ids) {
      span.insert(ring_.ShardFor(id));
    }
    if (span.size() > 1) {
      ++stats_.scatter_batches;
    }
    struct Gather {
      size_t remaining = 0;
      std::vector<std::optional<Bytes>> keys;  // By request index.
      std::optional<Status> first_transport;
      bool any_rpc_ok = false;
    };
    auto gather = std::make_shared<Gather>();
    gather->remaining = audit_ids.size();
    gather->keys.resize(audit_ids.size());
    auto finish = [audit_ids, done, gather] {
      if (!gather->any_rpc_ok) {
        done(*gather->first_transport);
        return;
      }
      // Old batch semantics: missing keys are silently omitted, order
      // follows the caller's request.
      KeyPairs merged;
      for (size_t i = 0; i < audit_ids.size(); ++i) {
        if (gather->keys[i].has_value()) {
          merged.emplace_back(audit_ids[i], std::move(*gather->keys[i]));
        }
      }
      done(std::move(merged));
    };
    for (size_t i = 0; i < audit_ids.size(); ++i) {
      EnqueueFetch(audit_ids[i], AccessOp::kPrefetch,
                   [gather, finish, i](FetchOutcome o) {
                     if (o.transport) {
                       if (!gather->first_transport) {
                         gather->first_transport = o.key.status();
                       }
                     } else {
                       gather->any_rpc_ok = true;
                       if (o.key.ok()) {
                         gather->keys[i] = std::move(*o.key);
                       }
                     }
                     if (--gather->remaining == 0) {
                       finish();
                     }
                   });
    }
    return;
  }
  auto plan = Partition(audit_ids);
  if (plan.empty()) {
    queue_->ScheduleAfter(SimDuration(),
                          [done = std::move(done)] { done(KeyPairs{}); });
    return;
  }
  if (plan.size() == 1) {
    shards_[plan.begin()->first]->GetKeysAsync(audit_ids, std::move(done));
    return;
  }

  ++stats_.scatter_batches;
  struct Gather {
    size_t remaining = 0;
    std::map<size_t, Result<KeyPairs>> per_shard;
  };
  auto gather = std::make_shared<Gather>();
  gather->remaining = plan.size();

  auto finish = [this, audit_ids, done, gather] {
    std::map<size_t, std::deque<std::pair<AuditId, Bytes>>> queues;
    std::optional<Status> first_error;
    bool any_ok = false;
    for (auto& [shard, result] : gather->per_shard) {
      if (!result.ok()) {
        ++stats_.shard_errors;
        if (!first_error) {
          first_error = result.status();
        }
        continue;
      }
      any_ok = true;
      queues[shard].assign(result->begin(), result->end());
    }
    if (!any_ok) {
      done(*first_error);
      return;
    }
    // Merge back in the caller's order: each shard returned its sub-list
    // in submission order, so the fronts line up as we walk the input.
    KeyPairs merged;
    for (const auto& id : audit_ids) {
      auto q = queues.find(ring_.ShardFor(id));
      if (q == queues.end() || q->second.empty() ||
          q->second.front().first != id) {
        continue;  // Missing key, or its shard's sub-batch failed.
      }
      merged.push_back(std::move(q->second.front()));
      q->second.pop_front();
    }
    done(std::move(merged));
  };

  for (auto& [shard, sub_ids] : plan) {
    ++stats_.subrequests;
    shards_[shard]->GetKeysAsync(
        sub_ids, [gather, finish, shard = shard](Result<KeyPairs> result) {
          gather->per_shard.emplace(shard, std::move(result));
          if (--gather->remaining == 0) {
            finish();
          }
        });
  }
}

Result<ShardRouter::KeyPairs> ShardRouter::GetKeys(
    const std::vector<AuditId>& audit_ids) {
  if (!options_.batch_fetch && shards_.size() == 1) {
    return shards_[0]->GetKeys(audit_ids);
  }
  Waiter<Result<KeyPairs>> waiter;
  GetKeysAsync(audit_ids, waiter.Callback());
  queue_->RunUntilFlag(&waiter.done);
  return std::move(*waiter.value);
}

void ShardRouter::GetKeysTypedAsync(
    const std::vector<MultiGetItem>& items,
    std::function<void(Result<MultiGetResult>)> done) {
  if (items.empty()) {
    queue_->ScheduleAfter(SimDuration(), [done = std::move(done)] {
      done(MultiGetResult{});
    });
    return;
  }
  struct Gather {
    size_t remaining = 0;
    std::vector<std::optional<FetchOutcome>> out;  // By request index.
  };
  auto gather = std::make_shared<Gather>();
  gather->remaining = items.size();
  gather->out.resize(items.size());
  auto finish = [items, done, gather] {
    MultiGetResult result;
    std::optional<Status> first_transport;
    bool any_rpc_ok = false;
    for (size_t i = 0; i < items.size(); ++i) {
      FetchOutcome& o = *gather->out[i];
      if (o.key.ok()) {
        any_rpc_ok = true;
        result.keys.emplace_back(items[i].audit_id, std::move(*o.key));
      } else {
        if (o.transport) {
          if (!first_transport) {
            first_transport = o.key.status();
          }
        } else {
          any_rpc_ok = true;
        }
        result.misses.push_back({items[i].audit_id, o.key.status()});
      }
    }
    // Every item riding a failed RPC means the call itself failed; a mix
    // degrades to per-item misses like any partial shard outage.
    if (!any_rpc_ok && first_transport) {
      done(*first_transport);
      return;
    }
    done(std::move(result));
  };
  for (size_t i = 0; i < items.size(); ++i) {
    EnqueueFetch(items[i].audit_id, items[i].op,
                 [gather, finish, i](FetchOutcome o) {
                   gather->out[i] = std::move(o);
                   if (--gather->remaining == 0) {
                     finish();
                   }
                 });
  }
}

Result<ShardRouter::MultiGetResult> ShardRouter::GetKeysTyped(
    const std::vector<MultiGetItem>& items) {
  Waiter<Result<MultiGetResult>> waiter;
  GetKeysTypedAsync(items, waiter.Callback());
  queue_->RunUntilFlag(&waiter.done);
  return std::move(*waiter.value);
}

void ShardRouter::FetchGroupAsync(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids,
    std::function<void(Result<GroupFetch>)> done) {
  if (options_.batch_fetch) {
    // The demand fetch and every prefetch ride the per-shard multi-get
    // batches: the owning shard sees the demand item first (so its audit
    // row lands before the prefetch rows it triggered), and all items
    // issued this tick — including other calls' — share the RPCs.
    std::vector<AuditId> prefetch;
    prefetch.reserve(prefetch_ids.size());
    for (const auto& id : prefetch_ids) {
      if (id == demand_id) {
        continue;
      }
      prefetch.push_back(id);
    }
    std::set<size_t> span;
    span.insert(ring_.ShardFor(demand_id));
    for (const auto& id : prefetch) {
      span.insert(ring_.ShardFor(id));
    }
    if (span.size() > 1) {
      ++stats_.scatter_batches;
    }
    struct Gather {
      size_t remaining = 0;
      std::optional<Result<Bytes>> demand;
      std::vector<std::optional<Bytes>> keys;  // By prefetch index.
    };
    auto gather = std::make_shared<Gather>();
    gather->remaining = 1 + prefetch.size();
    gather->keys.resize(prefetch.size());
    auto finish = [prefetch, done, gather] {
      if (!gather->demand->ok()) {
        // No demand key, no file access: the whole group fetch fails (any
        // prefetched keys the shards logged were still fetched — the
        // audit record stays honest).
        done(gather->demand->status());
        return;
      }
      GroupFetch merged;
      merged.demand_key = std::move(**gather->demand);
      for (size_t i = 0; i < prefetch.size(); ++i) {
        if (gather->keys[i].has_value()) {
          merged.prefetched.emplace_back(prefetch[i],
                                         std::move(*gather->keys[i]));
        }
      }
      done(std::move(merged));
    };
    EnqueueFetch(demand_id, AccessOp::kDemandFetch,
                 [gather, finish](FetchOutcome o) {
                   gather->demand = std::move(o.key);
                   if (--gather->remaining == 0) {
                     finish();
                   }
                 });
    for (size_t i = 0; i < prefetch.size(); ++i) {
      // Advisory prefetch: a miss or failed slice just drops the key (the
      // failed RPC itself is already counted by the flush path).
      EnqueueFetch(prefetch[i], AccessOp::kPrefetch,
                   [gather, finish, i](FetchOutcome o) {
                     if (o.key.ok()) {
                       gather->keys[i] = std::move(*o.key);
                     }
                     if (--gather->remaining == 0) {
                       finish();
                     }
                   });
    }
    return;
  }
  size_t demand_shard = ring_.ShardFor(demand_id);
  // The owning shard serves the demand key plus its slice of the prefetch
  // batch in one RPC; the demand id itself is excluded from every slice
  // (the service skips it anyway).
  std::map<size_t, std::vector<AuditId>> plan;
  for (const auto& id : prefetch_ids) {
    if (id == demand_id) {
      continue;
    }
    plan[ring_.ShardFor(id)].push_back(id);
  }
  std::vector<AuditId> demand_slice;
  if (auto it = plan.find(demand_shard); it != plan.end()) {
    demand_slice = std::move(it->second);
    plan.erase(it);
  }
  if (plan.empty()) {
    shards_[demand_shard]->FetchGroupAsync(demand_id, demand_slice,
                                           std::move(done));
    return;
  }

  ++stats_.scatter_batches;
  struct Gather {
    size_t remaining = 0;
    std::optional<Result<GroupFetch>> demand;
    std::map<size_t, Result<KeyPairs>> per_shard;
  };
  auto gather = std::make_shared<Gather>();
  gather->remaining = 1 + plan.size();

  auto finish = [this, demand_id, prefetch_ids, demand_shard, done, gather] {
    if (!gather->demand->ok()) {
      // No demand key, no file access: the whole group fetch fails (any
      // prefetched keys the other shards logged were still fetched — the
      // audit record stays honest).
      done(gather->demand->status());
      return;
    }
    std::map<size_t, std::deque<std::pair<AuditId, Bytes>>> queues;
    queues[demand_shard].assign((*gather->demand)->prefetched.begin(),
                                (*gather->demand)->prefetched.end());
    for (auto& [shard, result] : gather->per_shard) {
      if (!result.ok()) {
        ++stats_.shard_errors;  // Advisory prefetch: drop that slice.
        continue;
      }
      queues[shard].assign(result->begin(), result->end());
    }
    GroupFetch merged;
    merged.demand_key = std::move((*gather->demand)->demand_key);
    for (const auto& id : prefetch_ids) {
      if (id == demand_id) {
        continue;
      }
      auto q = queues.find(ring_.ShardFor(id));
      if (q == queues.end() || q->second.empty() ||
          q->second.front().first != id) {
        continue;
      }
      merged.prefetched.push_back(std::move(q->second.front()));
      q->second.pop_front();
    }
    done(std::move(merged));
  };

  ++stats_.subrequests;
  shards_[demand_shard]->FetchGroupAsync(
      demand_id, demand_slice, [gather, finish](Result<GroupFetch> result) {
        gather->demand = std::move(result);
        if (--gather->remaining == 0) {
          finish();
        }
      });
  for (auto& [shard, sub_ids] : plan) {
    ++stats_.subrequests;
    shards_[shard]->GetKeysAsync(
        sub_ids, [gather, finish, shard = shard](Result<KeyPairs> result) {
          gather->per_shard.emplace(shard, std::move(result));
          if (--gather->remaining == 0) {
            finish();
          }
        });
  }
}

Result<ShardRouter::GroupFetch> ShardRouter::FetchGroup(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids) {
  if (!options_.batch_fetch && shards_.size() == 1) {
    return shards_[0]->FetchGroup(demand_id, prefetch_ids);
  }
  Waiter<Result<GroupFetch>> waiter;
  FetchGroupAsync(demand_id, prefetch_ids, waiter.Callback());
  queue_->RunUntilFlag(&waiter.done);
  return std::move(*waiter.value);
}

void ShardRouter::UploadJournalAsync(const std::vector<JournalEntry>& entries,
                                     std::function<void(Status)> done) {
  std::map<size_t, std::vector<JournalEntry>> plan;
  for (const auto& entry : entries) {
    plan[ring_.ShardFor(entry.audit_id)].push_back(entry);
  }
  if (plan.empty()) {
    queue_->ScheduleAfter(SimDuration(),
                          [done = std::move(done)] { done(Status::Ok()); });
    return;
  }
  if (plan.size() == 1) {
    shards_[plan.begin()->first]->UploadJournalAsync(plan.begin()->second,
                                                     std::move(done));
    return;
  }
  ++stats_.scatter_batches;
  struct Gather {
    size_t remaining = 0;
    Status status = Status::Ok();
  };
  auto gather = std::make_shared<Gather>();
  gather->remaining = plan.size();
  for (auto& [shard, sub_entries] : plan) {
    ++stats_.subrequests;
    shards_[shard]->UploadJournalAsync(
        sub_entries, [gather, done](Status status) {
          if (!status.ok() && gather->status.ok()) {
            gather->status = status;
          }
          if (--gather->remaining == 0) {
            done(gather->status);
          }
        });
  }
}

Status ShardRouter::UploadJournal(const std::vector<JournalEntry>& entries) {
  if (shards_.size() == 1) {
    return shards_[0]->UploadJournal(entries);
  }
  Waiter<Status> waiter;
  UploadJournalAsync(entries, waiter.Callback());
  queue_->RunUntilFlag(&waiter.done);
  return std::move(*waiter.value);
}

void ShardRouter::NoteEvictionAsync(const AuditId& audit_id) {
  OwnerOf(audit_id)->NoteEvictionAsync(audit_id);
}

void ShardRouter::DestroyKeyAsync(const AuditId& audit_id,
                                  std::function<void(Status)> done) {
  OwnerOf(audit_id)->DestroyKeyAsync(audit_id, std::move(done));
}

}  // namespace keypad
