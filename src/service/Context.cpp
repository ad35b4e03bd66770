//===- Context.cpp - Per-worker analysis context ---------------------------===//

#include "service/Context.h"

#include "obs/Trace.h"
#include "support/KeyEncoding.h"

#include "xpath/Compile.h"
#include "xpath/Parser.h"
#include "xtype/BuiltinDtds.h"
#include "xtype/Compile.h"

#include <fstream>
#include <sstream>

using namespace xsa;

/// Default options with the shared fronts wired in; each may be null.
static SolverOptions wiredOptions(ShardedResultCache *Cache,
                                  AtomicSessionStats *Stats,
                                  SharedFixpointStore *Fixpoints) {
  SolverOptions Opts;
  Opts.Cache = Cache;
  Opts.Fixpoints = Fixpoints;
  if (Stats)
    Opts.StatsHook = [Stats](const SolverStats &S) {
      // Relaxed tallies; see the memory-order note in the header.
      Stats->Solves.fetch_add(1, std::memory_order_relaxed);
      Stats->SolverIterations.fetch_add(S.Iterations,
                                        std::memory_order_relaxed);
      Stats->SolverTimeUs.fetch_add(static_cast<size_t>(S.TimeMs * 1000.0),
                                    std::memory_order_relaxed);
      if (S.IterationsReplayed) {
        Stats->FixpointSeededRuns.fetch_add(1, std::memory_order_relaxed);
        Stats->FixpointIterationsReplayed.fetch_add(
            S.IterationsReplayed, std::memory_order_relaxed);
      }
    };
  return Opts;
}

// The Analyzer forces RequireSingleRoot for the XPath decision problems;
// the raw solver keeps the default. The two run under different option
// fingerprints, so cache entries never cross.
AnalysisContext::AnalysisContext(ShardedResultCache *SharedCache,
                                 AtomicSessionStats *SharedStats,
                                 SharedFixpointStore *SharedFixpoints)
    : Stats(SharedStats),
      An(FF, wiredOptions(SharedCache, SharedStats, SharedFixpoints)),
      RawSolver(FF, wiredOptions(SharedCache, SharedStats, SharedFixpoints)) {
}

SolverResult AnalysisContext::satisfiable(Formula Psi) {
  return RawSolver.solve(Psi);
}

ExprRef AnalysisContext::query(const std::string &XPath, std::string &Error) {
  auto It = QueryMemo.find(XPath);
  if (It != QueryMemo.end()) {
    if (Stats)
      Stats->QueryCacheHits.fetch_add(1, std::memory_order_relaxed);
    Error = It->second.Error;
    return It->second.E;
  }
  QueryEntry Entry;
  {
    Span ParseSpan("parse.query");
    Entry.E = parseXPath(XPath, Entry.Error);
  }
  if (Stats)
    Stats->QueriesParsed.fetch_add(1, std::memory_order_relaxed);
  auto &Stored = QueryMemo.emplace(XPath, std::move(Entry)).first->second;
  Error = Stored.Error;
  return Stored.E;
}

AnalysisContext::DtdEntry &AnalysisContext::loadDtd(const std::string &Name) {
  auto It = DtdMemo.find(Name);
  if (It != DtdMemo.end()) {
    if (Stats)
      Stats->DtdCacheHits.fetch_add(1, std::memory_order_relaxed);
    return It->second;
  }
  DtdEntry Entry;
  Span DtdSpan("parse.dtd");
  DtdSpan.arg("name", Name);
  const Dtd *D = nullptr;
  Dtd Parsed;
  if (Name == "wikipedia") {
    D = &wikipediaDtd();
  } else if (Name == "smil") {
    D = &smil10Dtd();
  } else if (Name == "xhtml") {
    D = &xhtml10StrictDtd();
  } else {
    std::ifstream In(Name);
    if (!In) {
      Entry.Error = "cannot read DTD " + Name;
    } else {
      std::ostringstream SS;
      SS << In.rdbuf();
      if (!parseDtd(SS.str(), Parsed, Entry.Error))
        Parsed = Dtd();
      else
        D = &Parsed;
    }
  }
  if (D) {
    Entry.Type = compileDtd(FF, *D);
    if (Stats)
      Stats->DtdCompilations.fetch_add(1, std::memory_order_relaxed);
  }
  return DtdMemo.emplace(Name, std::move(Entry)).first->second;
}

Formula AnalysisContext::typeFormula(const std::string &Name,
                                     std::string &Error) {
  if (Name.empty())
    return FF.trueF();
  const DtdEntry &Entry = loadDtd(Name);
  Error = Entry.Error;
  return Entry.Type;
}

std::shared_ptr<const AnalysisContext::OptimizeEntry>
AnalysisContext::optimized(const std::string &XPath, const std::string &Dtd) {
  // Length-prefixed so the key stays injective even for query text the
  // parser will reject (error entries are memoized too).
  std::string Key = lengthPrefixedKey(XPath, Dtd);
  auto It = OptimizeMemo.find(Key);
  if (It != OptimizeMemo.end()) {
    if (Stats)
      Stats->OptimizeCacheHits.fetch_add(1, std::memory_order_relaxed);
    return It->second;
  }
  // Epoch flush: entries are heavyweight (a full proof trace each), so
  // unlike the parser/DTD memos this one is bounded. Dropping the whole
  // map is safe — entries are shared_ptr-owned, so a held one outlives
  // the flush — and re-deriving a flushed rewrite answers its proof
  // obligations from the session's result cache.
  if (OptimizeMemo.size() >= MaxOptimizeMemo)
    OptimizeMemo.clear();
  auto Entry = std::make_shared<OptimizeEntry>();
  ExprRef E = query(XPath, Entry->Error);
  if (E) {
    Formula Chi = typeContext(Dtd, Entry->Error);
    if (Chi) {
      Span RewriteSpan("rewrite.optimize");
      Rewriter RW(An);
      Entry->Result = RW.optimize(E, Chi);
      RewriteSpan.arg("checked",
                      static_cast<double>(Entry->Result.CheckedCandidates));
      RewriteSpan.arg("accepted",
                      static_cast<double>(Entry->Result.AcceptedSteps));
      RewriteSpan.end();
      Entry->Ok = true;
      if (Stats) {
        Stats->QueriesOptimized.fetch_add(1, std::memory_order_relaxed);
        Stats->RewriteChecks.fetch_add(Entry->Result.CheckedCandidates,
                                       std::memory_order_relaxed);
        Stats->RewritesAccepted.fetch_add(Entry->Result.AcceptedSteps,
                                          std::memory_order_relaxed);
      }
    }
  }
  return OptimizeMemo.emplace(std::move(Key), std::move(Entry)).first->second;
}

Formula AnalysisContext::typeContext(const std::string &Name,
                                     std::string &Error) {
  if (Name.empty())
    return FF.trueF();
  DtdEntry &Entry = loadDtd(Name);
  Error = Entry.Error;
  if (!Entry.Type)
    return nullptr;
  // Memoized: rootFormula mints a fresh µ-variable per call, so building
  // the conjunction anew each time would defeat pointer-stable reuse.
  if (!Entry.Context)
    Entry.Context = FF.conj(Entry.Type, rootFormula(FF));
  return Entry.Context;
}
