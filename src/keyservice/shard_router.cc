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
      ring_(shards_.size(), kRingSeed, kVnodesPerShard) {}

const std::string& ShardRouter::device_id() const {
  return shards_.front()->device_id();
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
      items, ctx, [this, batch, items](Result<MultiGetResult> result) {
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
        std::vector<Result<Bytes>> keys =
            InRequestOrder(items, std::move(*result));
        for (size_t i = 0; i < batch->size(); ++i) {
          (*batch)[i].done({std::move(keys[i]), /*transport=*/false});
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
  return queue_->Await<Result<Bytes>>(
      [&](auto done) { GetKeyAsync(audit_id, op, std::move(done)); });
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

void ShardRouter::GetKeysTypedAsync(
    const std::vector<MultiGetItem>& items,
    std::function<void(Result<MultiGetResult>)> done) {
  if (items.empty()) {
    queue_->ScheduleAfter(SimDuration(), [done = std::move(done)] {
      done(MultiGetResult{});
    });
    return;
  }
  std::set<size_t> span;
  for (const auto& item : items) {
    span.insert(ring_.ShardFor(item.audit_id));
  }
  if (span.size() > 1) {
    ++stats_.scatter_batches;
  }
  // The items ride the per-shard multi-get batches in request order, so
  // on every shard a group's demand item lands before the prefetch rows
  // it triggered, and all items issued this tick share the RPCs.
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
  return queue_->Await<Result<MultiGetResult>>(
      [&](auto done) { GetKeysTypedAsync(items, std::move(done)); });
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
  return queue_->Await<Status>(
      [&](auto done) { UploadJournalAsync(entries, std::move(done)); });
}

void ShardRouter::NoteEvictionAsync(const AuditId& audit_id) {
  OwnerOf(audit_id)->NoteEvictionAsync(audit_id);
}

void ShardRouter::DestroyKeyAsync(const AuditId& audit_id,
                                  std::function<void(Status)> done) {
  OwnerOf(audit_id)->DestroyKeyAsync(audit_id, std::move(done));
}

}  // namespace keypad
