//===- FixpointStore.cpp - Cross-request fixpoint sharing ------------------===//

#include "service/FixpointStore.h"

#include "obs/Trace.h"

#include <algorithm>

using namespace xsa;

/// Bytes an entry holds besides its key's text and its snapshots: the
/// Entry in its list node, the map node, and the make_shared block that
/// owns the sequence, allocator headers included (about 200), rounded up.
static constexpr size_t EntryOverheadBytes = 256;

size_t SharedFixpointStore::cost(const std::string &LeanSig,
                                 const FixpointSeedData &Data) {
  size_t Bytes = EntryOverheadBytes + LeanSig.size();
  for (const BddSnapshot &S : Data.Snapshots)
    Bytes += sizeof(BddSnapshot) + S.nodeCount() * sizeof(BddSnapshot::Node);
  return (Bytes + sizeof(BddSnapshot::Node) - 1) / sizeof(BddSnapshot::Node);
}

SharedFixpointStore::SharedFixpointStore(size_t NodeBudget, size_t Shards) {
  // Largest power of two ≤ min(Shards, max(NodeBudget, 1)), as in
  // ShardedResultCache: never more shards than budget units.
  size_t Limit = std::max<size_t>(NodeBudget, 1);
  size_t N = 1;
  while (N * 2 <= Shards && N * 2 <= Limit)
    N *= 2;
  ShardBudget = NodeBudget / N;
  ShardTable.reserve(N);
  for (size_t I = 0; I < N; ++I)
    ShardTable.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const FixpointSeedData>
SharedFixpointStore::lookup(const std::string &LeanSig, uint32_t OptsKey) {
  Span ProbeSpan("fixstore.probe");
  KeyView K{LeanSig, OptsKey};
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Entries.find(K);
  if (It == S.Entries.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    ProbeSpan.arg("hit", 0);
    return nullptr;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  ProbeSpan.arg("hit", 1);
  ProbeSpan.arg("snapshots",
                static_cast<double>(It->second->Data->Snapshots.size()));
  return It->second->Data;
}

void SharedFixpointStore::erase(Shard &S, std::list<Entry>::iterator It) {
  // The map key views the list-owned string: erase it before the node.
  S.Entries.erase(KeyView{It->Sig, It->Opts});
  S.Held -= It->Cost;
  S.Lru.erase(It);
  SizeCount.fetch_sub(1, std::memory_order_relaxed);
}

bool SharedFixpointStore::publish(const std::string &LeanSig, uint32_t OptsKey,
                                  std::shared_ptr<const FixpointSeedData> Data) {
  if (!Data || Data->Snapshots.empty())
    return false;
  size_t Cost = cost(LeanSig, *Data);
  if (Cost > ShardBudget)
    return false;
  Span PublishSpan("fixstore.publish");
  KeyView K{LeanSig, OptsKey};
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Entries.find(K);
  if (It != S.Entries.end()) {
    // Keep the offer only when it improves on the stored sequence:
    // converged beats any prefix, longer prefix beats shorter. Racing
    // publishers therefore converge to the best sequence regardless of
    // arrival order. The stored sequence makes way for the offer, which
    // is then budgeted like a new entry.
    const FixpointSeedData &Old = *It->second->Data;
    bool Improves =
        (Data->Converged && !Old.Converged) ||
        (Data->Converged == Old.Converged &&
         Data->Snapshots.size() > Old.Snapshots.size());
    if (!Improves)
      return false;
    erase(S, It->second);
  }
  while (S.Held + Cost > ShardBudget) {
    erase(S, std::prev(S.Lru.end()));
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  S.Lru.push_front({LeanSig, OptsKey, std::move(Data), Cost});
  S.Entries.emplace(KeyView{S.Lru.front().Sig, OptsKey}, S.Lru.begin());
  S.Held += Cost;
  Insertions.fetch_add(1, std::memory_order_relaxed);
  SizeCount.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CacheStats SharedFixpointStore::stats() const {
  CacheStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Insertions = Insertions.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.Size = SizeCount.load(std::memory_order_relaxed);
  return S;
}

size_t SharedFixpointStore::size() const {
  return SizeCount.load(std::memory_order_relaxed);
}
