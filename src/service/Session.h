//===- Session.h - Long-lived analysis session -------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived front end to the decision procedures, split for parallel
/// dispatch into a thread-safe shared front and per-worker solver
/// contexts:
///
///  * the shared front (this class) owns a ShardedResultCache of solver
///    results keyed on canonical formula text + options fingerprint, a
///    SharedFixpointStore of iterate sequences keyed on lean signature,
///    an AtomicSessionStats bundle, and the WorkerPool runBatch
///    dispatches over;
///  * each worker owns an AnalysisContext (see Context.h) — its own
///    FormulaFactory, parser memo, DTD memo, Analyzer and BddSolver —
///    because a context is single-threaded by design: the session
///    parallelizes across solver instances.
///
/// Repeated or α-equivalent queries — the common case in query-optimizer
/// and schema-audit workloads — are answered from the shared cache
/// instead of re-running the exponential fixpoint, no matter which
/// worker (or which earlier process: see loadCache) first solved them.
/// Queries whose lean is a relabeling of an earlier one's replay its
/// stored iterates from the fixpoint store; replay is output-invisible
/// (see solver/Pipeline.h), so responses are byte-identical to an
/// unshared run's at any job count — only the work changes.
///
/// The serial convenience API below (§8 decision problems, query/DTD
/// resolution) routes everything through one distinguished "main"
/// context and is NOT thread-safe; concurrency is obtained by handing
/// whole batches to runBatch (service/Batch.h), which dispatches across
/// the worker contexts. One-off callers can keep constructing Analyzer
/// directly (they simply run uncached).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_SESSION_H
#define XSA_SERVICE_SESSION_H

#include "analysis/Problems.h"
#include "service/Cache.h"
#include "service/Context.h"
#include "service/FixpointStore.h"
#include "support/WorkerPool.h"
#include "xtype/Dtd.h"

#include <memory>
#include <string>
#include <vector>

namespace xsa {

struct SessionStats {
  /// Semantic result cache counters (shared by Analyzer queries and raw
  /// satisfiable() calls, across every worker context).
  CacheStats Cache;
  /// Number of actual solver runs (cache misses that went to the BDD
  /// fixpoint) and their cumulative cost.
  size_t Solves = 0;
  size_t SolverIterations = 0;
  double SolverTimeMs = 0;
  /// Memoized front-end work, summed over all contexts.
  size_t QueriesParsed = 0;
  size_t QueryCacheHits = 0;
  size_t DtdCompilations = 0;
  size_t DtdCacheHits = 0;
  /// Rewrite-engine work (optimize requests).
  size_t QueriesOptimized = 0;
  size_t OptimizeCacheHits = 0;
  size_t RewriteChecks = 0;
  size_t RewritesAccepted = 0;
  /// Cross-request fixpoint sharing: store counters (Hits/Misses count
  /// solver-side seed lookups, Insertions kept publishes), plus the
  /// solver-side tallies — runs that replayed a stored prefix and the
  /// total Upd iterations that replay skipped.
  CacheStats Fixpoints;
  size_t FixpointSeededRuns = 0;
  size_t FixpointIterationsReplayed = 0;
};

/// Knobs of an AnalysisSession. Solver options are the per-context
/// baseline; the rest configure the shared front.
struct SessionOptions {
  SolverOptions Solver;
  /// Total result-cache capacity (0 disables caching).
  size_t CacheCapacity = 1024;
  /// Requested shard count (rounded to a power of two, clamped; see
  /// ShardedResultCache).
  size_t CacheShards = 8;
  /// Worker count: runBatch's pool threads (1 = serial dispatch on the
  /// main context) and xsolved's worker threads; 0 = hardware
  /// concurrency.
  size_t Jobs = 1;
};

class AnalysisSession {
public:
  explicit AnalysisSession(SessionOptions Opts);
  /// Back-compatible convenience form.
  explicit AnalysisSession(SolverOptions Opts = {},
                           size_t CacheCapacity = 1024);
  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  FormulaFactory &factory() { return Main.factory(); }

  /// The main context's Analyzer: every decision problem routed through
  /// it consults the session cache. Callers may use it directly for the
  /// full §8 interface. Serial API — see the file comment.
  Analyzer &analyzer() { return Main.analyzer(); }

  /// The distinguished serial context behind the convenience API.
  AnalysisContext &mainContext() { return Main; }

  /// §8 decision problems (thin forwards to analyzer(), kept here so
  /// serial callers and the CLI depend only on the session).
  AnalysisResult emptiness(const ExprRef &E, Formula Chi);
  AnalysisResult containment(const ExprRef &E1, Formula Chi1,
                             const ExprRef &E2, Formula Chi2);
  AnalysisResult overlap(const ExprRef &E1, Formula Chi1, const ExprRef &E2,
                         Formula Chi2);
  AnalysisResult coverage(const ExprRef &E, Formula Chi,
                          const std::vector<ExprRef> &Others,
                          const std::vector<Formula> &OtherChis);
  AnalysisResult equivalence(const ExprRef &E1, Formula Chi1,
                             const ExprRef &E2, Formula Chi2);
  AnalysisResult staticTypeCheck(const ExprRef &E, Formula ChiIn,
                                 Formula OutType);

  /// Cached raw satisfiability under the session options (no single-root
  /// restriction, matching a bare BddSolver).
  SolverResult satisfiable(Formula Psi);

  /// Parses an XPath query, memoized on the source string (main
  /// context). Returns null and sets \p Error on a parse failure.
  ExprRef query(const std::string &XPath, std::string &Error);

  /// Loads and compiles a DTD (main context); see
  /// AnalysisContext::typeFormula.
  Formula typeFormula(const std::string &Name, std::string &Error);
  Formula typeContext(const std::string &Name, std::string &Error);

  //===--------------------------------------------------------------------===//
  // Parallel dispatch (runBatch and xsolved's workers)
  //===--------------------------------------------------------------------===//

  /// Upper bound on jobs: each job costs a thread plus a full solver
  /// context, so requests beyond this are clamped rather than honoured.
  static constexpr size_t MaxJobs = 256;

  /// Effective worker count (≥ 1, ≤ MaxJobs).
  size_t jobs() const { return Opts.Jobs; }
  /// Changes the worker count (0 = hardware concurrency; clamped to
  /// MaxJobs). Takes effect on the next batch; existing worker contexts
  /// are kept warm, the pool is resized lazily. Not thread-safe against
  /// a running batch.
  void setJobs(size_t Jobs);

  /// runBatch's pool, sized to jobs() threads, with every worker's
  /// context created. Lazily constructed on first use so jobs=1
  /// sessions never spawn a thread.
  WorkerPool &pool();
  /// Worker \p Worker's warm context, created on first use and kept
  /// across setJobs. Creation is not thread-safe: fetch each worker's
  /// context on one thread before the workers start (pool() does this
  /// for runBatch). Each context must be used by one thread at a time.
  AnalysisContext &workerContext(size_t Worker);

  //===--------------------------------------------------------------------===//
  // Persistent cache (warm-up across processes)
  //===--------------------------------------------------------------------===//

  /// Serializes the session's result cache to \p Path as JSON lines: a
  /// version header {"xsa_cache":2}, then one cached result per line
  /// ("k": canonical-text key, options fingerprint, verdict, stats,
  /// model XML). Fixpoint-store sequences stay in memory. Returns false
  /// and sets \p Error on I/O failure.
  bool saveCache(const std::string &Path, std::string &Error) const;

  /// Loads entries saved by saveCache into the result cache (counted as
  /// insertions, not hits). Format versions: 1 and 2 are read; an
  /// unknown version is rejected with a clear error instead of being
  /// mis-parsed. Line shapes it does not recognize (such as the "st",
  /// "oq" and "fx" lines older versions wrote) and entries that fail to
  /// parse or carry an out-of-range number are skipped; returns
  /// false and sets \p Error only when the file is unreadable, not a
  /// cache file, or of an unsupported version. Safe to call on a warm
  /// session; existing entries are refreshed.
  bool loadCache(const std::string &Path, std::string &Error);

  /// The shared result cache (exposed for tests and tooling).
  ShardedResultCache &resultCache() { return Cache; }
  /// The shared fixpoint store (exposed for tests and tooling).
  SharedFixpointStore &fixpointStore() { return Fixpoints; }

  SessionStats stats() const;

private:
  SessionOptions Opts;
  ShardedResultCache Cache;
  SharedFixpointStore Fixpoints;
  AtomicSessionStats Counters;
  AnalysisContext Main;
  std::vector<std::unique_ptr<AnalysisContext>> Workers;
  std::unique_ptr<WorkerPool> Pool;
};

} // namespace xsa

#endif // XSA_SERVICE_SESSION_H
