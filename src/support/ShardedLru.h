//===- ShardedLru.h - Sharded, cost-bounded LRU store ------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one container under both solver memos, the result cache and the
/// fixpoint store (solver/BddSolver.h): a thread-safe map from (key text,
/// options fingerprint) to immutable shared_ptr-owned values.
///
///  * The table is split into power-of-two shards, each an independently
///    locked LRU list, so threads contend only when their keys hash to
///    the same shard.
///  * One budget bounds the store, split evenly across the shards. Each
///    entry is charged the cost its store assigns it; a publish evicts
///    least-recently-used entries of its shard until the offer fits, and
///    an offer that costs more than its shard's share is dropped (so a
///    budget of 0 disables the store).
///  * lookup hands out a reference to the value, never a copy made under
///    the shard lock; a held value outlives its eviction.
///  * An offer for a held key replaces the entry only when it improves on
///    it, by the store's rule; a refused offer changes nothing.
///  * Counters are relaxed atomics: independent monotonic tallies with no
///    ordering relation to the stored data. AnalysisSession::quiesce
///    provides the happens-before edge a reader of final totals needs.
///
/// A store derives from ShardedLru<Store, V> and supplies its own parts:
///
///   static constexpr const char *ProbeSpan, *PublishSpan;  // span names
///   static size_t cost(std::string_view Key, const V &);   // > 0
///   static bool improves(const V *Held, const V &Offer);   // Held null
///                                                          // for a new key
///   static void traceHit(Span &Probe, const V &Hit);       // probe args
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SUPPORT_SHARDEDLRU_H
#define XSA_SUPPORT_SHARDEDLRU_H

#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xsa {

struct CacheStats {
  size_t Hits = 0;       ///< lookups that found the key
  size_t Misses = 0;     ///< lookups that did not
  size_t Insertions = 0; ///< kept offers, replacements included
  size_t Evictions = 0;  ///< entries dropped to make room
  size_t Size = 0;       ///< entries held
};

template <typename Store, typename V> class ShardedLru {
public:
  /// \p Budget is the total budget in the store's cost units. \p Shards
  /// is rounded down to a power of two and never exceeds max(Budget, 1),
  /// so a small store keeps exact LRU order in one shard; each shard
  /// holds Budget / shards.
  ShardedLru(size_t Budget, size_t Shards) {
    size_t Limit = std::max<size_t>(Budget, 1);
    size_t N = 1;
    while (N * 2 <= Shards && N * 2 <= Limit)
      N *= 2;
    ShardBudget = Budget / N;
    ShardTable.reserve(N);
    for (size_t I = 0; I < N; ++I)
      ShardTable.push_back(std::make_unique<Shard>());
  }

  /// The value held for the key, or null on a miss; a hit becomes the
  /// shard's most recently used entry.
  std::shared_ptr<const V> lookup(std::string_view Key, uint32_t Opts) {
    Span Probe(Store::ProbeSpan);
    KeyView K{Key, Opts};
    Shard &S = shardFor(K);
    std::shared_ptr<const V> Hit;
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto It = S.Index.find(K);
      if (It != S.Index.end()) {
        S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
        Hit = It->second->Value;
      }
    }
    (Hit ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
    Probe.arg("hit", Hit ? 1 : 0);
    if (Hit)
      Store::traceHit(Probe, *Hit);
    return Hit;
  }

  /// Offers \p Value for the key. It is kept when it fits its shard's
  /// share of the budget and improves on the held entry (see the file
  /// comment); returns whether it was kept.
  bool publish(std::string_view Key, uint32_t Opts,
               std::shared_ptr<const V> Value) {
    if (!Value)
      return false;
    size_t Cost = Store::cost(Key, *Value);
    if (Cost > ShardBudget)
      return false;
    Span Publish(Store::PublishSpan);
    KeyView K{Key, Opts};
    Shard &S = shardFor(K);
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Index.find(K);
    bool Held = It != S.Index.end();
    if (!Store::improves(Held ? It->second->Value.get() : nullptr, *Value))
      return false;
    // The held entry makes way for the offer, which is then budgeted
    // like a new entry.
    if (Held)
      erase(S, It->second);
    while (S.Held + Cost > ShardBudget) {
      erase(S, std::prev(S.Lru.end()));
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
    S.Lru.push_front({std::string(Key), Opts, std::move(Value), Cost});
    S.Index.emplace(KeyView{S.Lru.front().Key, Opts}, S.Lru.begin());
    S.Held += Cost;
    Insertions.fetch_add(1, std::memory_order_relaxed);
    SizeCount.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Visits every entry, one shard at a time, most recently used first
  /// within a shard. \p Fn runs after the shard's lock is released, so
  /// entries published or evicted during the walk may or may not be
  /// visited.
  void forEachEntry(const std::function<void(const std::string &Key,
                                             uint32_t Opts, const V &Value)>
                        &Fn) const {
    for (const std::unique_ptr<Shard> &S : ShardTable) {
      std::vector<Entry> Copies;
      {
        std::lock_guard<std::mutex> Lock(S->M);
        Copies.reserve(S->Lru.size());
        for (const Entry &E : S->Lru)
          Copies.push_back(E);
      }
      for (const Entry &E : Copies)
        Fn(E.Key, E.Opts, *E.Value);
    }
  }

  CacheStats stats() const {
    CacheStats S;
    S.Hits = Hits.load(std::memory_order_relaxed);
    S.Misses = Misses.load(std::memory_order_relaxed);
    S.Insertions = Insertions.load(std::memory_order_relaxed);
    S.Evictions = Evictions.load(std::memory_order_relaxed);
    S.Size = size();
    return S;
  }
  size_t size() const { return SizeCount.load(std::memory_order_relaxed); }
  size_t numShards() const { return ShardTable.size(); }

private:
  struct Entry {
    std::string Key;
    uint32_t Opts;
    std::shared_ptr<const V> Value;
    size_t Cost; ///< Store::cost(Key, *Value)
  };
  /// Non-owning key: key texts run to KBs, so a probe must not copy one.
  /// The hash goes through string_view, which agrees with hash<string>
  /// on equal content.
  struct KeyView {
    std::string_view Text;
    uint32_t Opts;
  };
  struct KeyHash {
    size_t operator()(const KeyView &K) const {
      return std::hash<std::string_view>()(K.Text) * 31 + K.Opts;
    }
  };
  struct KeyEq {
    bool operator()(const KeyView &A, const KeyView &B) const {
      return A.Opts == B.Opts && A.Text == B.Text;
    }
  };
  struct Shard {
    std::mutex M;
    std::list<Entry> Lru; ///< most recently used first; guarded by M
    size_t Held = 0;      ///< summed Cost of Lru's entries; guarded by M
    /// Keys view the list-owned key strings (list nodes stay put under
    /// splice), so each key text is stored once. Guarded by M.
    std::unordered_map<KeyView, typename std::list<Entry>::iterator, KeyHash,
                       KeyEq>
        Index;
  };

  Shard &shardFor(const KeyView &K) {
    return *ShardTable[KeyHash()(K) & (ShardTable.size() - 1)];
  }

  /// Drops \p It from \p S; the caller holds S.M.
  void erase(Shard &S, typename std::list<Entry>::iterator It) {
    // The index key views the list-owned string: erase it first.
    S.Index.erase(KeyView{It->Key, It->Opts});
    S.Held -= It->Cost;
    S.Lru.erase(It);
    SizeCount.fetch_sub(1, std::memory_order_relaxed);
  }

  size_t ShardBudget;
  std::vector<std::unique_ptr<Shard>> ShardTable;
  std::atomic<size_t> Hits{0}, Misses{0}, Insertions{0}, Evictions{0},
      SizeCount{0};
};

} // namespace xsa

#endif // XSA_SUPPORT_SHARDEDLRU_H
