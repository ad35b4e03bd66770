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

const std::string &
AnalysisContext::SharedCacheAdapter::textFor(Formula Canonical) {
  auto It = TextMemo.find(Canonical);
  if (It != TextMemo.end())
    return It->second;
  if (TextMemo.size() >= MaxTextMemo)
    TextMemo.clear();
  return TextMemo.emplace(Canonical, FF.toString(Canonical)).first->second;
}

const SolverResult *
AnalysisContext::SharedCacheAdapter::lookup(Formula Canonical,
                                            uint32_t OptsKey) {
  if (!Shared.lookup(textFor(Canonical), OptsKey, Hit))
    return nullptr;
  return &Hit;
}

void AnalysisContext::SharedCacheAdapter::store(Formula Canonical,
                                                uint32_t OptsKey,
                                                const SolverResult &R) {
  Shared.store(textFor(Canonical), OptsKey, R);
}

AnalysisContext::AnalysisContext(const SolverOptions &BaseOpts,
                                 ShardedResultCache *SharedCache,
                                 AtomicSessionStats *SharedStats,
                                 SharedFixpointStore *SharedFixpoints,
                                 OptimizeSeedStore *SharedOptimizeSeeds)
    : Opts(BaseOpts), Stats(SharedStats), OptimizeSeeds(SharedOptimizeSeeds) {
  if (SharedCache) {
    CacheAdapter = std::make_unique<SharedCacheAdapter>(FF, *SharedCache);
    Opts.Cache = CacheAdapter.get();
  } else {
    Opts.Cache = nullptr;
  }
  if (SharedFixpoints) {
    Fixpoints = std::make_unique<FixpointAdapter>(*SharedFixpoints);
    Opts.Fixpoints = Fixpoints.get();
  } else {
    Opts.Fixpoints = nullptr;
  }
  if (Stats) {
    Opts.StatsHook = [this](const SolverStats &S) {
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
  } else {
    Opts.StatsHook = nullptr;
  }
  // The Analyzer forces RequireSingleRoot for the XPath decision
  // problems; the raw solver keeps the caller's setting. The two run
  // under different option fingerprints, so cache entries never cross.
  An = std::make_unique<Analyzer>(FF, Opts);
  RawSolver = std::make_unique<BddSolver>(FF, Opts);
}

SolverResult AnalysisContext::satisfiable(Formula Psi) {
  return RawSolver->solve(Psi);
}

bool AnalysisContext::shareFixpoints() const {
  return Fixpoints && Fixpoints->On;
}

void AnalysisContext::setShareFixpoints(bool On) {
  if (Fixpoints)
    Fixpoints->On = On;
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
AnalysisContext::optimized(const std::string &XPath, const std::string &Dtd,
                           bool AllowSeed) {
  // Length-prefixed so the key stays injective even for query text the
  // parser will reject (error entries are memoized too).
  std::string Key = lengthPrefixedKey(XPath, Dtd);
  auto It = OptimizeMemo.find(Key);
  if (It != OptimizeMemo.end()) {
    // A seeded entry has no proof trace; a caller that owes one (an
    // explicit optimize request) re-derives and replaces it.
    if (!It->second->Seeded || AllowSeed) {
      if (Stats)
        Stats->OptimizeCacheHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
    OptimizeMemo.erase(It);
  }
  // Pre-pass path: a form someone already proved (this process or a
  // loaded cache file) is taken as-is — no rewriter run, no obligations.
  // Proofs are only as good as the DTD they ran under, and a DTD *file*
  // can change between processes, so the seed must match the compiled
  // content fingerprint, not just the name.
  if (AllowSeed && OptimizeSeeds) {
    std::string SeedText;
    uint64_t DtdFp = typeContextFingerprint(Dtd);
    if (DtdFp && OptimizeSeeds->lookup(XPath, Dtd, DtdFp, SeedText)) {
      auto Entry = std::make_shared<OptimizeEntry>();
      ExprRef E = query(XPath, Entry->Error);
      std::string SeedError;
      ExprRef Opt = E ? parseXPath(SeedText, SeedError) : nullptr;
      if (Opt) {
        Entry->Ok = true;
        Entry->Seeded = true;
        Entry->Result.Original = E;
        Entry->Result.Optimized = Opt;
        CostModel Cost;
        Entry->Result.OriginalCost = Cost.cost(E);
        Entry->Result.OptimizedCost = Cost.cost(Opt);
        if (Stats)
          Stats->OptimizeSeedHits.fetch_add(1, std::memory_order_relaxed);
        if (OptimizeMemo.size() >= MaxOptimizeMemo)
          OptimizeMemo.clear();
        return OptimizeMemo.emplace(std::move(Key), std::move(Entry))
            .first->second;
      }
      // A seed that no longer parses is ignored, not trusted.
    }
  }
  // Epoch flush: entries are heavyweight (a full proof trace each), so
  // unlike the parser/DTD memos this one is bounded. Dropping the whole
  // map is safe — entries are shared_ptr-owned, so a held one outlives
  // the flush — and on a near-duplicate stream (the pre-pass's reason
  // to exist) re-deriving a flushed rewrite is answered from the
  // session's result cache anyway.
  if (OptimizeMemo.size() >= MaxOptimizeMemo)
    OptimizeMemo.clear();
  auto Entry = std::make_shared<OptimizeEntry>();
  ExprRef E = query(XPath, Entry->Error);
  if (E) {
    Formula Chi = typeContext(Dtd, Entry->Error);
    if (Chi) {
      Span RewriteSpan("rewrite.optimize");
      Rewriter RW(*An);
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
      // Publish the proved form so other contexts — and, through the
      // persistent cache, other processes — skip this derivation. The
      // fingerprint records which DTD content the proofs ran under.
      if (OptimizeSeeds)
        if (uint64_t DtdFp = typeContextFingerprint(Dtd))
          OptimizeSeeds->store(XPath, Dtd, DtdFp, Entry->Result.text());
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

uint64_t AnalysisContext::typeContextFingerprint(const std::string &Name) {
  std::string Error;
  Formula Chi = typeContext(Name, Error);
  if (!Chi)
    return 0;
  // The unconstrained context gets the same lazy memoization as named
  // DTDs (its canonical text never changes within a context).
  uint64_t &Fp = Name.empty() ? EmptyContextFp : loadDtd(Name).ContextFp;
  if (!Fp)
    Fp = fingerprintText(FF.toString(FF.canonicalize(Chi)));
  return Fp;
}
