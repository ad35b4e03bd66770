//===- Cache.cpp - LRU semantic result cache -------------------------------===//

#include "service/Cache.h"

#include "obs/Trace.h"

using namespace xsa;

//===----------------------------------------------------------------------===//
// ShardedResultCache
//===----------------------------------------------------------------------===//

ShardedResultCache::ShardedResultCache(size_t Capacity, size_t Shards)
    : Capacity(Capacity) {
  // Largest power of two ≤ min(Shards, max(Capacity, 1)): never more
  // shards than entries, so small caches (the eviction tests use
  // capacity 1) keep exact LRU behaviour in a single shard.
  size_t Limit = std::max<size_t>(Capacity, 1);
  size_t N = 1;
  while (N * 2 <= Shards && N * 2 <= Limit)
    N *= 2;
  ShardCapacity = Capacity == 0 ? 0 : std::max<size_t>(1, Capacity / N);
  ShardTable.reserve(N);
  for (size_t I = 0; I < N; ++I)
    ShardTable.push_back(std::make_unique<Shard>());
}

bool ShardedResultCache::lookup(const std::string &KeyText, uint32_t OptsKey,
                                SolverResult &Out) {
  Span ProbeSpan("cache.probe");
  KeyView K{KeyText, OptsKey};
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Entries.find(K);
  if (It == S.Entries.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    ProbeSpan.arg("hit", 0);
    return false;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  Out = It->second->Result;
  ProbeSpan.arg("hit", 1);
  return true;
}

void ShardedResultCache::store(const std::string &KeyText, uint32_t OptsKey,
                               const SolverResult &R) {
  if (Capacity == 0)
    return;
  Span PublishSpan("cache.publish");
  KeyView K{KeyText, OptsKey};
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Entries.find(K);
  if (It != S.Entries.end()) {
    It->second->Result = R;
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return;
  }
  while (S.Entries.size() >= ShardCapacity) {
    // The map key views the list-owned string: erase before pop.
    const Entry &Victim = S.Lru.back();
    S.Entries.erase(KeyView{Victim.K.first, Victim.K.second});
    S.Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
    SizeCount.fetch_sub(1, std::memory_order_relaxed);
  }
  S.Lru.push_front({Key{KeyText, OptsKey}, R});
  S.Entries.emplace(KeyView{S.Lru.front().K.first, OptsKey}, S.Lru.begin());
  Insertions.fetch_add(1, std::memory_order_relaxed);
  SizeCount.fetch_add(1, std::memory_order_relaxed);
}

void ShardedResultCache::forEachEntry(
    const std::function<void(const std::string &, uint32_t,
                             const SolverResult &)> &Fn) const {
  for (const std::unique_ptr<Shard> &S : ShardTable) {
    std::lock_guard<std::mutex> Lock(S->M);
    for (const Entry &E : S->Lru)
      Fn(E.K.first, E.K.second, E.Result);
  }
}

CacheStats ShardedResultCache::stats() const {
  CacheStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Insertions = Insertions.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.Size = SizeCount.load(std::memory_order_relaxed);
  return S;
}

size_t ShardedResultCache::size() const {
  return SizeCount.load(std::memory_order_relaxed);
}

void ShardedResultCache::clear() {
  for (const std::unique_ptr<Shard> &S : ShardTable) {
    std::lock_guard<std::mutex> Lock(S->M);
    SizeCount.fetch_sub(S->Entries.size(), std::memory_order_relaxed);
    S->Lru.clear();
    S->Entries.clear();
  }
}
