#include "src/keyservice/key_client.h"

#include <deque>
#include <iterator>

namespace keypad {

std::vector<Result<Bytes>> KeyClient::InRequestOrder(
    const std::vector<MultiGetItem>& items, MultiGetResult result) {
  std::deque<std::pair<AuditId, Bytes>> keys(
      std::make_move_iterator(result.keys.begin()),
      std::make_move_iterator(result.keys.end()));
  std::deque<MultiGetMiss> misses(result.misses.begin(), result.misses.end());
  std::vector<Result<Bytes>> out;
  out.reserve(items.size());
  for (const auto& item : items) {
    if (!keys.empty() && keys.front().first == item.audit_id) {
      out.push_back(std::move(keys.front().second));
      keys.pop_front();
    } else if (!misses.empty() && misses.front().audit_id == item.audit_id) {
      out.push_back(misses.front().status);
      misses.pop_front();
    } else {
      out.push_back(NotFoundError("key missing from multi-get response"));
    }
  }
  return out;
}

std::vector<KeyClient::MultiGetItem> KeyClient::PrefetchItems(
    const std::vector<AuditId>& audit_ids) {
  std::vector<MultiGetItem> items;
  items.reserve(audit_ids.size());
  for (const auto& id : audit_ids) {
    items.push_back({id, AccessOp::kPrefetch});
  }
  return items;
}

std::vector<KeyClient::MultiGetItem> KeyClient::GroupItems(
    const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids) {
  // The demand item goes first, so its audit row lands before the prefetch
  // rows it triggered on its shard.
  std::vector<MultiGetItem> items = {{demand_id, AccessOp::kDemandFetch}};
  for (const auto& id : prefetch_ids) {
    if (id != demand_id) {
      items.push_back({id, AccessOp::kPrefetch});
    }
  }
  return items;
}

Result<KeyClient::KeyPairs> KeyClient::PairsOf(
    Result<MultiGetResult> result) {
  if (!result.ok()) {
    return result.status();
  }
  return std::move(result->keys);
}

Result<KeyClient::GroupFetch> KeyClient::GroupOf(
    const std::vector<MultiGetItem>& items, Result<MultiGetResult> result) {
  if (!result.ok()) {
    return result.status();
  }
  std::vector<Result<Bytes>> keys = InRequestOrder(items, std::move(*result));
  // No demand key, no file access: the whole group fails (any prefetched
  // keys the service logged were still fetched — the audit record stays
  // honest).
  if (!keys[0].ok()) {
    return keys[0].status();
  }
  GroupFetch group;
  group.demand_key = std::move(*keys[0]);
  for (size_t i = 1; i < items.size(); ++i) {
    if (keys[i].ok()) {
      group.prefetched.emplace_back(items[i].audit_id, std::move(*keys[i]));
    }
  }
  return group;
}

}  // namespace keypad
