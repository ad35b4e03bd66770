//===- Session.cpp - Long-lived analysis session ---------------------------===//

#include "service/Session.h"

#include "obs/Trace.h"
#include "service/Json.h"
#include "tree/Xml.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <thread>

using namespace xsa;

namespace {

/// The result cache every session gets: 1,024 entries in 8 shards.
constexpr size_t CacheCapacity = 1024;
constexpr size_t CacheShards = 8;

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

AnalysisSession::AnalysisSession(SessionOptions Opts)
    : Cache(CacheCapacity, CacheShards),
      Fixpoints(SharedFixpointStore::DefaultNodeBudget, CacheShards),
      Jobs(resolveJobs(Opts.Jobs)) {
  Contexts.push_back(
      std::make_unique<AnalysisContext>(&Cache, &Counters, &Fixpoints));
}

AnalysisSession::~AnalysisSession() {
  std::vector<std::thread> All;
  {
    std::lock_guard<std::mutex> L(M);
    Closed = true;
    All.swap(Threads);
  }
  WorkCv.notify_all();
  for (std::thread &T : All)
    T.join();
}

SolverResult AnalysisSession::satisfiable(Formula Psi) {
  return mainContext().satisfiable(Psi);
}

Formula AnalysisSession::typeFormula(const std::string &Name,
                                     std::string &Error) {
  return mainContext().typeFormula(Name, Error);
}

Formula AnalysisSession::typeContext(const std::string &Name,
                                     std::string &Error) {
  return mainContext().typeContext(Name, Error);
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

bool AnalysisSession::runsLater(const Task &A, const Task &B) {
  if (A.Priority != B.Priority)
    return A.Priority < B.Priority;
  return A.Seq > B.Seq;
}

size_t AnalysisSession::jobs() const {
  std::lock_guard<std::mutex> L(M);
  return Jobs;
}

void AnalysisSession::setJobs(size_t N) {
  N = resolveJobs(N);
  quiesce();
  std::vector<std::thread> Retired;
  {
    std::lock_guard<std::mutex> L(M);
    Jobs = N;
    if (!Threads.empty()) {
      while (Threads.size() > Jobs) {
        Retired.push_back(std::move(Threads.back()));
        Threads.pop_back();
      }
      growLocked();
    }
  }
  // Retired workers see Id >= Jobs and return; their contexts stay.
  WorkCv.notify_all();
  for (std::thread &T : Retired)
    T.join();
}

void AnalysisSession::growLocked() {
  while (Threads.size() < Jobs) {
    size_t Id = Threads.size();
    if (Contexts.size() <= Id)
      Contexts.push_back(
          std::make_unique<AnalysisContext>(&Cache, &Counters, &Fixpoints));
    if (Slots.size() <= Id)
      Slots.emplace_back();
    Threads.emplace_back(
        [this, Id, &Ctx = *Contexts[Id]] { workerMain(Id, Ctx); });
  }
}

AnalysisSession::Admission AnalysisSession::submit(Work W, int Priority,
                                                   size_t Limit,
                                                   uint64_t Key) {
  // The queue-wait stamp is 0 when tracing is off, keeping the disabled
  // path free of clock reads.
  uint64_t Stamp = Tracer::global().enabled() ? Tracer::nowNs() : 0;
  {
    std::lock_guard<std::mutex> L(M);
    if (Closed)
      return Admission::Closed;
    if (Queue.size() + HandedOver >= Limit)
      return Admission::Full;
    if (Threads.empty())
      growLocked();
    Queue.push_back({std::move(W), Priority, NextSeq++, Stamp, Key});
    std::push_heap(Queue.begin(), Queue.end(), runsLater);
  }
  WorkCv.notify_one();
  return Admission::Queued;
}

void AnalysisSession::close() {
  {
    std::lock_guard<std::mutex> L(M);
    Closed = true;
  }
  WorkCv.notify_all();
}

void AnalysisSession::quiesce() {
  std::unique_lock<std::mutex> L(M);
  IdleCv.wait(L, [&] { return Queue.empty() && Running == 0; });
}

size_t AnalysisSession::queued() const {
  std::lock_guard<std::mutex> L(M);
  return Queue.size() + HandedOver;
}

void AnalysisSession::debugPause(bool P) {
  {
    std::lock_guard<std::mutex> L(M);
    Paused = P;
  }
  WorkCv.notify_all();
}

void AnalysisSession::workerMain(size_t Id, AnalysisContext &Ctx) {
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    WorkCv.wait(L, [&] {
      return Id >= Jobs || Closed || (!Paused && !Queue.empty());
    });
    // Retired by setJobs, or closed with nothing left to run.
    if (Id >= Jobs || Queue.empty())
      return;
    std::pop_heap(Queue.begin(), Queue.end(), runsLater);
    Task T = std::move(Queue.back());
    Queue.pop_back();
    // The in-flight rule: a worker running the same key takes the item.
    auto Owner = std::find_if(Slots.begin(), Slots.end(),
                              [&](const Slot &S) { return S.Key == T.Key; });
    if (T.Key && Owner != Slots.end()) {
      Owner->Handed.push_back(std::move(T));
      ++HandedOver;
      continue;
    }
    ++Running;
    Slots[Id].Key = T.Key;
    // Run T, then whatever was handed over meanwhile, before the key is
    // cleared and this worker counts as idle.
    for (;;) {
      L.unlock();
      if (T.EnqueueNs)
        Tracer::global().recordSpanFrom("pool.queue_wait", T.EnqueueNs);
      T.W(Ctx);
      T.W = nullptr; // captured state dies outside the lock
      L.lock();
      std::deque<Task> &Handed = Slots[Id].Handed;
      if (Handed.empty())
        break;
      T = std::move(Handed.front());
      Handed.pop_front();
      --HandedOver;
    }
    Slots[Id].Key = 0;
    if (--Running == 0 && Queue.empty())
      IdleCv.notify_all();
  }
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
    Cache.publish(Key, OptsKey,
                  std::make_shared<const SolverResult>(std::move(R)));
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
  S.FormulaCollections =
      Counters.FormulaCollections.load(std::memory_order_relaxed);
  return S;
}
