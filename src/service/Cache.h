//===- Cache.h - LRU semantic result cache -----------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The semantic result cache of the service layer: the thread-safe
/// shared front of an AnalysisSession. Worker threads each own a
/// FormulaFactory, so formula pointers cannot cross threads; entries are
/// instead keyed on the *canonical formula text* (FormulaFactory::toString
/// of canonicalize), which is factory-independent: canonicalize renames
/// every binder to a name derived from its binding position, so
/// α-equivalent formulas print identically no matter which worker built
/// them. The table is split into power-of-two shards, each an
/// independently locked LRU, so concurrent workers only contend when they
/// hash to the same shard. Counters are relaxed atomics — they are
/// independent monotonic tallies with no ordering relation to the cached
/// data, and AnalysisSession::quiesce provides the happens-before edge
/// any reader of a final snapshot needs.
///
/// It memoizes full SolverResults — satisfiability verdict, extracted
/// model tree, and the stats of the run that produced the entry — and
/// keeps hit/miss/eviction counters for SessionStats. Each context
/// bridges it to the solver's pointer-keyed ResultCache interface (see
/// Context.h).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_CACHE_H
#define XSA_SERVICE_CACHE_H

#include "solver/BddSolver.h"

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace xsa {

struct CacheStats {
  size_t Hits = 0;
  size_t Misses = 0;
  size_t Insertions = 0;
  size_t Evictions = 0;
  size_t Size = 0;
};

/// Thread-safe sharded LRU keyed on canonical formula text + options
/// fingerprint. See the file comment for the design rationale.
class ShardedResultCache {
public:
  /// \p Capacity 0 disables caching. \p Shards is rounded down to a
  /// power of two and clamped so every shard holds at least one entry;
  /// with more than one shard the capacity is enforced per shard
  /// (total/shards each), so the global bound is approximate — exact
  /// again when Shards == 1.
  explicit ShardedResultCache(size_t Capacity = 1024, size_t Shards = 8);

  /// Copies the entry for (\p Key, \p OptsKey) into \p Out. Returns
  /// false on a miss.
  bool lookup(const std::string &Key, uint32_t OptsKey, SolverResult &Out);

  /// Inserts or refreshes an entry. Concurrent stores of the same key
  /// are idempotent (the solver is deterministic, so both threads carry
  /// the same result; last writer wins).
  void store(const std::string &Key, uint32_t OptsKey, const SolverResult &R);

  /// Visits every entry, one shard at a time, most-recently-used first
  /// within a shard. Used by AnalysisSession::saveCache. Entries stored
  /// concurrently with the walk may or may not be visited.
  void
  forEachEntry(const std::function<void(const std::string &Key,
                                        uint32_t OptsKey,
                                        const SolverResult &R)> &Fn) const;

  CacheStats stats() const;
  size_t capacity() const { return Capacity; }
  size_t numShards() const { return ShardTable.size(); }
  size_t size() const;
  void clear();

private:
  using Key = std::pair<std::string, uint32_t>;
  /// Non-owning key for lookups: canonical texts are long (KBs for
  /// DTD-constrained formulas), so the hot path must not copy them just
  /// to probe the table. The hasher/equality are transparent and hash
  /// through string_view, which the standard guarantees agrees with
  /// hash<string> on equal content.
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
  struct Entry {
    Key K;
    SolverResult Result;
  };
  struct Shard {
    mutable std::mutex M;
    std::list<Entry> Lru; ///< most-recently-used first
    /// Keys are views into the list-owned strings (list nodes are
    /// address-stable under splice), so each canonical text is stored
    /// once per entry, not twice. Map erasure must precede list pop.
    std::unordered_map<KeyView, std::list<Entry>::iterator, KeyHash, KeyEq>
        Entries;
  };

  Shard &shardFor(const KeyView &K) {
    return *ShardTable[KeyHash()(K) & (ShardTable.size() - 1)];
  }

  size_t Capacity;      ///< total requested capacity
  size_t ShardCapacity; ///< enforced per shard
  std::vector<std::unique_ptr<Shard>> ShardTable;

  /// Relaxed: independent monotonic counters (see file comment).
  std::atomic<size_t> Hits{0}, Misses{0}, Insertions{0}, Evictions{0},
      SizeCount{0};
};

} // namespace xsa

#endif // XSA_SERVICE_CACHE_H
