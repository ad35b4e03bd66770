//===- Context.h - Per-worker analysis context -------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One worker's half of the parallel analysis engine. A context is a
/// single-threaded facade — a FormulaFactory's hash-consing arena and the
/// BddManager's node table are free of locks by design — so the
/// session parallelizes *across* solver instances: every worker thread
/// owns a full AnalysisContext with its own FormulaFactory, XPath parser
/// memo, DTD compilation memo, Analyzer and raw BddSolver.
/// Nothing inside a context is shared, so a context may only ever be used
/// by one thread at a time.
///
/// What *is* shared sits behind three thread-safe fronts wired in at
/// construction:
///
///  * a ShardedResultCache of solver results, keyed on canonical formula
///    text (factory-independent, see solver/BddSolver.h) — this is how a
///    worker benefits from fixpoints another worker already ran; every
///    solver of the context probes and fills it directly, with the key
///    text memoized by the context's FormulaFactory;
///  * a SharedFixpointStore of iterate sequences, keyed on lean
///    signature, which every solver run seeds from and publishes to —
///    this is how a worker benefits from another's run on a relabeled
///    query;
///  * an AtomicSessionStats bundle that all contexts tally into.
///
/// Every context solves under default SolverOptions with these fronts
/// wired in.
///
/// Memory order: every AtomicSessionStats member is a relaxed atomic.
/// The counters are independent monotonic tallies — nothing reads one to
/// decide control flow, and no other data is published through them —
/// so the only requirement is freedom from lost updates, which relaxed
/// fetch_add provides. Readers that need a *consistent* snapshot (e.g.
/// asserting exact totals after a batch) get it from the happens-before
/// edge of AnalysisSession::quiesce (it returns only once every worker
/// has finished its work and said so under the session mutex), not from
/// the counters themselves.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_CONTEXT_H
#define XSA_SERVICE_CONTEXT_H

#include "analysis/Problems.h"
#include "rewrite/Rewriter.h"
#include "xtype/Dtd.h"

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>

namespace xsa {

/// Cumulative session counters shared by all contexts of one session.
/// All members are relaxed atomics; see the file comment for the
/// reasoning behind the memory-order choice.
struct AtomicSessionStats {
  /// Number of actual solver runs (cache misses that went to the BDD
  /// fixpoint) and their cumulative cost. Time is tallied in integer
  /// microseconds because atomic floating-point accumulation is not
  /// universally available; SessionStats converts back to milliseconds.
  std::atomic<size_t> Solves{0};
  std::atomic<size_t> SolverIterations{0};
  std::atomic<size_t> SolverTimeUs{0};
  /// Memoized front-end work. Parser and DTD memos are per-context, so
  /// under parallel dispatch these count the sum over all workers (a DTD
  /// may legitimately compile once per worker that needs it).
  std::atomic<size_t> QueriesParsed{0};
  std::atomic<size_t> QueryCacheHits{0};
  std::atomic<size_t> DtdCompilations{0};
  std::atomic<size_t> DtdCacheHits{0};
  /// Rewrite-engine work (optimize requests). Optimizations are
  /// memoized per context on (query, dtd) text, like the parser memo
  /// above.
  std::atomic<size_t> QueriesOptimized{0};
  std::atomic<size_t> OptimizeCacheHits{0};
  std::atomic<size_t> RewriteChecks{0};
  std::atomic<size_t> RewritesAccepted{0};
  /// Fixpoint sharing: solver runs that replayed at least one stored
  /// iterate, and the total iterates replayed (Upd images skipped).
  std::atomic<size_t> FixpointSeededRuns{0};
  std::atomic<size_t> FixpointIterationsReplayed{0};
};

/// A single-threaded solver context: factory, parser/DTD memos, Analyzer
/// and raw solver, wired through the session's shared cache, fixpoint
/// store and stats. AnalysisSession owns one context per worker, the
/// first of which also serves the serial API; it is also usable
/// standalone with every shared front null, which runs uncached and
/// unshared.
class AnalysisContext {
public:
  /// Every shared-front pointer may be null (uncached / untallied
  /// standalone use); when set they must outlive the context.
  explicit AnalysisContext(ShardedResultCache *SharedCache = nullptr,
                           AtomicSessionStats *SharedStats = nullptr,
                           SharedFixpointStore *SharedFixpoints = nullptr);
  AnalysisContext(const AnalysisContext &) = delete;
  AnalysisContext &operator=(const AnalysisContext &) = delete;

  FormulaFactory &factory() { return FF; }

  /// The context's Analyzer: every decision problem routed through it
  /// consults the shared session cache. Callers may use it directly for
  /// the full §8 interface.
  Analyzer &analyzer() { return An; }

  /// Cached raw satisfiability under the context options (no single-root
  /// restriction, matching a bare BddSolver).
  SolverResult satisfiable(Formula Psi);

  /// Parses an XPath query, memoized on the source string. Returns null
  /// and sets \p Error on a parse failure (failures are memoized too).
  ExprRef query(const std::string &XPath, std::string &Error);

  /// Loads and compiles a DTD to the Lµ formula holding at the roots of
  /// valid documents, memoized on \p Name — a builtin name (wikipedia,
  /// smil, xhtml), a file path, or "" for no constraint (⊤).
  Formula typeFormula(const std::string &Name, std::string &Error);

  /// typeFormula conjoined with the root restriction of §5.2 — the form
  /// used as the context χ of a query constrained by a schema. "" → ⊤.
  Formula typeContext(const std::string &Name, std::string &Error);

  /// A memoized solver-verified optimization of \p XPath under \p Dtd
  /// (rewrite/Rewriter.h). Error is set (and Result empty) when the
  /// query does not parse or the DTD does not load; failures are
  /// memoized like everything else here. Every proof obligation runs
  /// through this context's Analyzer, so it hits the shared session
  /// cache. Returned as a shared_ptr (not a reference into the memo)
  /// because the memo is flushed wholesale when full — a caller may
  /// safely hold the entry across later optimized() calls.
  struct OptimizeEntry {
    RewriteResult Result;
    std::string Error;
    bool Ok = false;
  };
  std::shared_ptr<const OptimizeEntry> optimized(const std::string &XPath,
                                                 const std::string &Dtd);

private:
  FormulaFactory FF;
  AtomicSessionStats *Stats; ///< may be null
  Analyzer An;
  BddSolver RawSolver;

  struct QueryEntry {
    ExprRef E;
    std::string Error;
  };
  std::unordered_map<std::string, QueryEntry> QueryMemo;
  struct DtdEntry {
    Formula Type = nullptr;    ///< null when loading failed
    Formula Context = nullptr; ///< Type ∧ root restriction, lazily built
    std::string Error;
  };
  std::unordered_map<std::string, DtdEntry> DtdMemo;
  /// Bounded, unlike the memos above: a RewriteResult carries the full
  /// proof trace, so a long-running stream of mostly distinct optimize
  /// requests must not accumulate entries forever. Flushed wholesale
  /// when full (see optimized()).
  static constexpr size_t MaxOptimizeMemo = 4096;
  std::unordered_map<std::string, std::shared_ptr<const OptimizeEntry>>
      OptimizeMemo;

  DtdEntry &loadDtd(const std::string &Name);
};

} // namespace xsa

#endif // XSA_SERVICE_CONTEXT_H
