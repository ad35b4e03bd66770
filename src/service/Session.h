//===- Session.h - Long-lived analysis session -------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived front end to the decision procedures: a thread-safe
/// shared front, per-worker solver contexts, and the one worker pool
/// that answers every batch and every xsolved request:
///
///  * the shared front owns a ShardedResultCache of solver results keyed
///    on canonical formula text + options fingerprint, a
///    SharedFixpointStore of iterate sequences keyed on lean signature
///    (both one ShardedLru each, see solver/BddSolver.h, which every
///    context's solvers call directly), and an AtomicSessionStats bundle;
///  * each worker owns an AnalysisContext (see Context.h) — its own
///    FormulaFactory, parser memo, DTD memo, Analyzer and BddSolver —
///    because a context is single-threaded by design: the session
///    parallelizes across solver instances;
///  * jobs() worker threads pull submitted work from one priority queue
///    (higher priority first, FIFO within a priority); thread W runs
///    every item it takes on context W. The threads start on the first
///    submit, so a session that only answers serial calls starts none.
///    One in-flight rule serves both front ends: an item whose request
///    key another worker is running goes to that worker, which runs it
///    next on the same context, as a cache hit (see submit).
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
/// The serial API below (mainContext, analyzer, factory, satisfiable,
/// typeFormula, typeContext) runs on worker 0's context on the calling
/// thread and is NOT thread-safe: it must not run while the session has
/// work queued or running. Concurrency comes from submitting work —
/// runBatch and runBatchJsonLines (service/Batch.h) and xsolved's
/// admissions do. One-off callers can keep constructing Analyzer
/// directly (they simply run uncached). A formula the serial API hands
/// out stays valid until a request run on worker 0's context (runRequest,
/// or a submitted request that worker 0 takes) starts a new epoch
/// (AnalysisContext::collect); ⊤, ⊥, s and ¬s always stay valid.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_SESSION_H
#define XSA_SERVICE_SESSION_H

#include "analysis/Problems.h"
#include "service/Context.h"
#include "xtype/Dtd.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  /// Formula epochs ended, summed over all contexts (see
  /// AnalysisContext::collect).
  size_t FormulaCollections = 0;
};

/// Knobs of an AnalysisSession. Every context solves under default
/// SolverOptions, and the result cache holds 1,024 entries in 8 shards.
struct SessionOptions {
  /// Worker threads, each on its own context; 0 = hardware concurrency.
  size_t Jobs = 1;
};

class AnalysisSession {
public:
  explicit AnalysisSession(SessionOptions Opts = {});
  /// Closes the session, lets queued work finish, and joins the workers.
  ~AnalysisSession();
  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  //===--------------------------------------------------------------------===//
  // Serial API (worker 0's context; see the file comment)
  //===--------------------------------------------------------------------===//

  AnalysisContext &mainContext() { return *Contexts.front(); }
  FormulaFactory &factory() { return mainContext().factory(); }

  /// The main context's Analyzer: every §8 decision problem routed
  /// through it consults the session cache.
  Analyzer &analyzer() { return mainContext().analyzer(); }

  /// Cached raw satisfiability under the session options (no single-root
  /// restriction, matching a bare BddSolver).
  SolverResult satisfiable(Formula Psi);

  /// Loads and compiles a DTD (main context); see
  /// AnalysisContext::typeFormula.
  Formula typeFormula(const std::string &Name, std::string &Error);
  Formula typeContext(const std::string &Name, std::string &Error);

  //===--------------------------------------------------------------------===//
  // Worker pool
  //===--------------------------------------------------------------------===//

  /// Upper bound on jobs: each job costs a thread plus a full solver
  /// context, so requests beyond this are clamped rather than honoured.
  static constexpr size_t MaxJobs = 256;
  static constexpr size_t NoLimit = std::numeric_limits<size_t>::max();

  /// Effective worker count (≥ 1, ≤ MaxJobs).
  size_t jobs() const;
  /// Changes the worker count (0 = hardware concurrency; clamped to
  /// MaxJobs): quiesces, then retires or starts threads. Every context
  /// stays warm, so shrinking and growing again keeps each worker's
  /// memos. Must not race submit() from another thread.
  void setJobs(size_t Jobs);

  /// A unit of work; it runs on a worker thread with that worker's
  /// context and must not throw.
  using Work = std::function<void(AnalysisContext &)>;
  enum class Admission { Queued, Full, Closed };

  /// Queues \p W at \p Priority (higher runs first; FIFO within a
  /// priority). Full when \p Limit items are already waiting, Closed
  /// after close(); \p W is dropped unrun in both cases. The first
  /// queued item starts the worker threads.
  /// \p Key names the request \p W answers (requestKey, service/Batch.h);
  /// 0 is none. A worker that pops \p W while another runs the same key
  /// hands \p W to it: \p W runs right after that item, on its context,
  /// having already won its place in priority order. It still runs \p W
  /// itself, so a key collision only delays it. Handed-over items count
  /// as waiting, toward \p Limit and queued().
  Admission submit(Work W, int Priority = 0, size_t Limit = NoLimit,
                   uint64_t Key = 0);
  /// Refuses every later submit. Work already queued still runs, even
  /// while paused.
  void close();
  /// Returns once nothing is queued or running. Everything the finished
  /// work did happens-before the return. Blocks forever while paused
  /// with work queued; never call it from a worker.
  void quiesce();
  /// Items waiting for a worker, handed-over ones included.
  size_t queued() const;
  /// Test hook: while paused the workers take nothing, so the queue
  /// fills deterministically. close() overrides the pause.
  void debugPause(bool Paused);

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
  /// session; existing entries are kept.
  bool loadCache(const std::string &Path, std::string &Error);

  /// The shared result cache (exposed for tests and tooling).
  ShardedResultCache &resultCache() { return Cache; }
  /// The shared fixpoint store (exposed for tests and tooling).
  SharedFixpointStore &fixpointStore() { return Fixpoints; }

  SessionStats stats() const;

private:
  struct Task {
    Work W;
    int Priority = 0;
    uint64_t Seq = 0;       ///< admission order
    uint64_t EnqueueNs = 0; ///< tracer stamp at submit; 0 = tracing off
    uint64_t Key = 0;       ///< request key; 0 = none
  };
  /// What one worker runs: the key of its current item (0 when idle or
  /// keyless) and the items of that key handed to it, in pop order.
  struct Slot {
    uint64_t Key = 0;
    std::deque<Task> Handed;
  };
  /// Heap order of Queue: the top is the highest priority, then the
  /// earliest admitted.
  static bool runsLater(const Task &A, const Task &B);

  /// Starts threads up to Jobs, creating their contexts. Needs M.
  void growLocked();
  void workerMain(size_t Id, AnalysisContext &Ctx);

  ShardedResultCache Cache;
  SharedFixpointStore Fixpoints;
  AtomicSessionStats Counters;
  /// Context W belongs to worker W; the front one also serves the serial
  /// API. Grown under M, never shrunk.
  std::vector<std::unique_ptr<AnalysisContext>> Contexts;

  mutable std::mutex M;
  std::condition_variable WorkCv; ///< workers wait for work
  std::condition_variable IdleCv; ///< quiesce() waits for idle
  size_t Jobs = 1;                ///< guarded by M
  std::vector<Task> Queue;        ///< heap by runsLater; guarded by M
  /// Slot W belongs to worker W; grown with Threads. Guarded by M.
  std::vector<Slot> Slots;
  size_t HandedOver = 0;          ///< items in all Slots' Handed; guarded by M
  uint64_t NextSeq = 0;           ///< guarded by M
  size_t Running = 0;             ///< workers running items; guarded by M
  bool Paused = false, Closed = false; ///< guarded by M
  std::vector<std::thread> Threads; ///< worker W is Threads[W]; guarded by M
};

} // namespace xsa

#endif // XSA_SERVICE_SESSION_H
