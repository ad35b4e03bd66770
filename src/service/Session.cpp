//===- Session.cpp - Long-lived analysis session ---------------------------===//

#include "service/Session.h"

#include "service/Json.h"
#include "tree/Xml.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <thread>

using namespace xsa;

namespace {

size_t resolveJobs(size_t Jobs) {
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  // Each job is a thread plus a full solver context; a nonsense value
  // (wrapped negative, typo'd protocol field) must not translate into
  // unbounded thread/arena allocation.
  return std::min(Jobs, AnalysisSession::MaxJobs);
}

} // namespace

AnalysisSession::AnalysisSession(SessionOptions SOpts)
    : Opts(SOpts), Cache(SOpts.CacheCapacity, SOpts.CacheShards),
      Fixpoints(SharedFixpointStore::DefaultNodeBudget, SOpts.CacheShards),
      Main(SOpts.Solver, &Cache, &Counters, &Fixpoints) {
  Opts.Jobs = resolveJobs(Opts.Jobs);
}

AnalysisSession::AnalysisSession(SolverOptions Opts, size_t CacheCapacity)
    : AnalysisSession(SessionOptions{Opts, CacheCapacity,
                                     /*CacheShards=*/8, /*Jobs=*/1}) {}

AnalysisResult AnalysisSession::emptiness(const ExprRef &E, Formula Chi) {
  return analyzer().emptiness(E, Chi);
}

AnalysisResult AnalysisSession::containment(const ExprRef &E1, Formula Chi1,
                                            const ExprRef &E2, Formula Chi2) {
  return analyzer().containment(E1, Chi1, E2, Chi2);
}

AnalysisResult AnalysisSession::overlap(const ExprRef &E1, Formula Chi1,
                                        const ExprRef &E2, Formula Chi2) {
  return analyzer().overlap(E1, Chi1, E2, Chi2);
}

AnalysisResult AnalysisSession::coverage(const ExprRef &E, Formula Chi,
                                         const std::vector<ExprRef> &Others,
                                         const std::vector<Formula> &OtherChis) {
  return analyzer().coverage(E, Chi, Others, OtherChis);
}

AnalysisResult AnalysisSession::equivalence(const ExprRef &E1, Formula Chi1,
                                            const ExprRef &E2, Formula Chi2) {
  return analyzer().equivalence(E1, Chi1, E2, Chi2);
}

AnalysisResult AnalysisSession::staticTypeCheck(const ExprRef &E, Formula ChiIn,
                                                Formula OutType) {
  return analyzer().staticTypeCheck(E, ChiIn, OutType);
}

SolverResult AnalysisSession::satisfiable(Formula Psi) {
  return Main.satisfiable(Psi);
}

ExprRef AnalysisSession::query(const std::string &XPath, std::string &Error) {
  return Main.query(XPath, Error);
}

Formula AnalysisSession::typeFormula(const std::string &Name,
                                     std::string &Error) {
  return Main.typeFormula(Name, Error);
}

Formula AnalysisSession::typeContext(const std::string &Name,
                                     std::string &Error) {
  return Main.typeContext(Name, Error);
}

void AnalysisSession::setJobs(size_t Jobs) {
  Jobs = resolveJobs(Jobs);
  if (Jobs == Opts.Jobs)
    return;
  Opts.Jobs = Jobs;
  // Resize lazily: the pool is rebuilt by the next pool() call. Worker
  // contexts are retained — shrinking and re-growing keeps them warm.
  if (Pool && Pool->threads() != Jobs)
    Pool.reset();
}

WorkerPool &AnalysisSession::pool() {
  if (!Pool)
    Pool = std::make_unique<WorkerPool>(Opts.Jobs);
  workerContext(Opts.Jobs - 1);
  return *Pool;
}

AnalysisContext &AnalysisSession::workerContext(size_t Worker) {
  while (Workers.size() <= Worker)
    Workers.push_back(std::make_unique<AnalysisContext>(
        Opts.Solver, &Cache, &Counters, &Fixpoints));
  return *Workers[Worker];
}

//===----------------------------------------------------------------------===//
// Persistent cache
//===----------------------------------------------------------------------===//

/// Persistent format versions. Both carry result entries ("k"); readers
/// skip line shapes they do not recognize, such as the fixpoint-store
/// sequences ("fx"), per-lean strategy choices ("st") and optimized
/// query forms ("oq") that earlier v2 writers appended.
/// Bump CacheFormatVersion when a line shape changes incompatibly;
/// loadCache rejects versions it does not know instead of guessing.
static constexpr int CacheFormatVersion = 2;

/// Reads field \p Key of a cache line into \p Out. False when the number
/// lies outside T's range — a negative, huge or infinite value would
/// make the integer cast undefined — so the caller drops the entry like
/// any other corrupt one. A missing field reads as 0.
template <typename T>
static bool readCount(const JsonValue &Obj, const char *Key, T &Out) {
  double V = Obj.get(Key)->asNumber();
  if (!(V >= 0 && V < std::ldexp(1.0, std::numeric_limits<T>::digits)))
    return false;
  Out = static_cast<T>(V);
  return true;
}

bool AnalysisSession::saveCache(const std::string &Path,
                                std::string &Error) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    Error = "cannot write cache file " + Path;
    return false;
  }
  JsonRef Header = JsonValue::object();
  Header->set("xsa_cache", JsonValue::number(CacheFormatVersion));
  Out << Header->dump() << "\n";
  // Collect, then emit least-recently-used first, so loading in file
  // order reproduces each shard's recency order.
  std::vector<JsonRef> Lines;
  Cache.forEachEntry([&](const std::string &Key, uint32_t OptsKey,
                         const SolverResult &R) {
    JsonRef O = JsonValue::object();
    O->set("k", JsonValue::string(Key));
    O->set("o", JsonValue::number(static_cast<double>(OptsKey)));
    O->set("sat", JsonValue::boolean(R.Satisfiable));
    O->set("lean", JsonValue::number(static_cast<double>(R.Stats.LeanSize)));
    O->set("iter", JsonValue::number(static_cast<double>(R.Stats.Iterations)));
    O->set("bdd",
           JsonValue::number(static_cast<double>(R.Stats.PeakBddNodes)));
    O->set("time_ms", JsonValue::number(R.Stats.TimeMs));
    if (R.Model)
      O->set("model", JsonValue::string(printXml(*R.Model)));
    Lines.push_back(O);
  });
  for (auto It = Lines.rbegin(); It != Lines.rend(); ++It)
    Out << (*It)->dump() << "\n";
  if (!Out) {
    Error = "write error on cache file " + Path;
    return false;
  }
  return true;
}

bool AnalysisSession::loadCache(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read cache file " + Path;
    return false;
  }
  std::string Line;
  bool SawHeader = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::string ParseError;
    JsonRef Obj = parseJson(Line, ParseError);
    if (!Obj || Obj->type() != JsonValue::Type::Object) {
      if (!SawHeader) {
        Error = Path + " is not an xsa cache file";
        return false;
      }
      continue; // skip one corrupt entry, keep the rest
    }
    if (!SawHeader) {
      JsonRef Version = Obj->get("xsa_cache");
      if (Version->type() != JsonValue::Type::Number) {
        Error = Path + " is not an xsa cache file";
        return false;
      }
      double V = Version->asNumber();
      // Range before the integer cast, which is undefined past int.
      if (V < 1 || V > CacheFormatVersion ||
          V != static_cast<double>(static_cast<int>(V))) {
        // A future (or corrupt) version would parse as garbage line by
        // line; refuse it outright rather than half-load it.
        Error = Path + ": unsupported cache format version";
        return false;
      }
      SawHeader = true;
      continue;
    }
    std::string Key = Obj->str("k");
    if (Key.empty())
      continue;
    SolverResult R;
    uint32_t OptsKey = 0;
    if (!readCount(*Obj, "o", OptsKey) ||
        !readCount(*Obj, "lean", R.Stats.LeanSize) ||
        !readCount(*Obj, "iter", R.Stats.Iterations) ||
        !readCount(*Obj, "bdd", R.Stats.PeakBddNodes))
      continue;
    R.Satisfiable = Obj->get("sat")->asBool();
    R.Stats.TimeMs = Obj->get("time_ms")->asNumber();
    std::string ModelXml = Obj->str("model");
    if (!ModelXml.empty()) {
      Document Doc;
      std::string XmlError;
      if (!parseXml(ModelXml, Doc, XmlError))
        continue; // corrupt model: drop the entry rather than lie
      R.Model = std::move(Doc);
    }
    Cache.store(Key, OptsKey, R);
  }
  if (!SawHeader) {
    Error = Path + " is not an xsa cache file";
    return false;
  }
  return true;
}

SessionStats AnalysisSession::stats() const {
  SessionStats S;
  S.Cache = Cache.stats();
  S.Solves = Counters.Solves.load(std::memory_order_relaxed);
  S.SolverIterations =
      Counters.SolverIterations.load(std::memory_order_relaxed);
  S.SolverTimeMs =
      static_cast<double>(Counters.SolverTimeUs.load(
          std::memory_order_relaxed)) /
      1000.0;
  S.QueriesParsed = Counters.QueriesParsed.load(std::memory_order_relaxed);
  S.QueryCacheHits = Counters.QueryCacheHits.load(std::memory_order_relaxed);
  S.DtdCompilations = Counters.DtdCompilations.load(std::memory_order_relaxed);
  S.DtdCacheHits = Counters.DtdCacheHits.load(std::memory_order_relaxed);
  S.QueriesOptimized =
      Counters.QueriesOptimized.load(std::memory_order_relaxed);
  S.OptimizeCacheHits =
      Counters.OptimizeCacheHits.load(std::memory_order_relaxed);
  S.RewriteChecks = Counters.RewriteChecks.load(std::memory_order_relaxed);
  S.RewritesAccepted =
      Counters.RewritesAccepted.load(std::memory_order_relaxed);
  S.Fixpoints = Fixpoints.stats();
  S.FixpointSeededRuns =
      Counters.FixpointSeededRuns.load(std::memory_order_relaxed);
  S.FixpointIterationsReplayed =
      Counters.FixpointIterationsReplayed.load(std::memory_order_relaxed);
  return S;
}
