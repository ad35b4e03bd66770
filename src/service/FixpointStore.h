//===- FixpointStore.h - Cross-request fixpoint sharing ----------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared half of cross-request fixpoint sharing: a sharded,
/// thread-safe store of canonical iterate sequences keyed on
/// (lean signature, solver-options fingerprint). The design follows
/// ShardedResultCache — power-of-two shards, one mutex and one LRU list
/// each, relaxed-atomic counters — but the entries are heavier
/// (sequences of BDD node tables), so:
///
///  * entries are immutable and shared_ptr-owned — a lookup hands out a
///    reference, never a copy, and a concurrent eviction cannot
///    invalidate a seed a worker is replaying;
///  * publish keeps an offered sequence only when it *improves* on the
///    stored one (converged beats any prefix, longer prefix beats
///    shorter), so racing workers converge to the best sequence no
///    matter the interleaving;
///  * the store is bounded by what it holds, not by how many entries it
///    has: one budget in snapshot-node units (12 bytes), split evenly
///    across the shards, charged with everything an entry holds — its
///    snapshots' node tables and headers, its key's text and a fixed
///    per-entry overhead (see cost()), so neither sequences of constant
///    sets nor long keys come free. A publish evicts least-recently-used
///    entries of its shard until the offer fits, and an offer larger
///    than its shard's share is dropped.
///
/// Sequences live in memory only; the persistent cache file carries
/// results, not sequences.
///
/// Sharing is sound and output-invisible because the Upd operator of
/// §7.1 is a function of the lean alone — see the file comment of
/// solver/Pipeline.h and the proof in DESIGN.md. Sharing across
/// *different* variable orders (re-basing a table onto another lean
/// permutation) is a known follow-on; until then distinct signatures
/// simply never meet.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_FIXPOINTSTORE_H
#define XSA_SERVICE_FIXPOINTSTORE_H

#include "service/Cache.h"
#include "solver/BddSolver.h"

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace xsa {

class SharedFixpointStore : public FixpointCache {
public:
  /// The budget every session's store gets: 2^23 node units, about
  /// 100 MB, enough to keep all 14 paper-corpus sequences at once.
  static constexpr size_t DefaultNodeBudget = size_t(1) << 23;

  /// \p NodeBudget is the total budget in node units. \p Shards as in
  /// ShardedResultCache: rounded down to a power of two, and never more
  /// shards than budget units.
  explicit SharedFixpointStore(size_t NodeBudget = DefaultNodeBudget,
                               size_t Shards = 8);

  /// What an entry for \p LeanSig holding \p Data costs against the
  /// budget, in node units: its bytes divided by a node's 12, rounded up.
  static size_t cost(const std::string &LeanSig, const FixpointSeedData &Data);

  /// The best stored sequence for the key, or null on a miss.
  std::shared_ptr<const FixpointSeedData>
  lookup(const std::string &LeanSig, uint32_t OptsKey) override;

  /// Offers a sequence; keeps it only if it improves on the stored one
  /// and fits its shard's share of the budget. Returns true when the
  /// offer was kept.
  bool publish(const std::string &LeanSig, uint32_t OptsKey,
               std::shared_ptr<const FixpointSeedData> Data) override;

  /// Hits/Misses count lookups; Insertions counts kept publishes;
  /// Size counts entries.
  CacheStats stats() const;
  size_t numShards() const { return ShardTable.size(); }
  size_t size() const;

private:
  struct Entry {
    std::string Sig;
    uint32_t Opts;
    std::shared_ptr<const FixpointSeedData> Data;
    size_t Cost; ///< cost(Sig, *Data)
  };
  struct KeyView {
    std::string_view Sig;
    uint32_t Opts;
  };
  struct KeyHash {
    size_t operator()(const KeyView &K) const {
      return std::hash<std::string_view>()(K.Sig) * 31 + K.Opts;
    }
  };
  struct KeyEq {
    bool operator()(const KeyView &A, const KeyView &B) const {
      return A.Opts == B.Opts && A.Sig == B.Sig;
    }
  };
  struct Shard {
    mutable std::mutex M;
    std::list<Entry> Lru; ///< most-recently-used first
    size_t Held = 0;      ///< summed Cost of Lru's entries
    /// Keys view the list-owned signature strings (stable under splice).
    std::unordered_map<KeyView, std::list<Entry>::iterator, KeyHash, KeyEq>
        Entries;
  };

  Shard &shardFor(const KeyView &K) {
    return *ShardTable[KeyHash()(K) & (ShardTable.size() - 1)];
  }

  /// Erases \p It from \p S (the caller holds S.M).
  void erase(Shard &S, std::list<Entry>::iterator It);

  size_t ShardBudget;
  std::vector<std::unique_ptr<Shard>> ShardTable;

  /// Relaxed: independent monotonic counters (see Cache.h).
  std::atomic<size_t> Hits{0}, Misses{0}, Insertions{0}, Evictions{0},
      SizeCount{0};
};

} // namespace xsa

#endif // XSA_SERVICE_FIXPOINTSTORE_H
