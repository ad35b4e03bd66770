//===- runner.cpp - Workload runner of the perfbench benchmark -------------===//
//
// Runs one perfbench workload in this process and prints its
// measurements as one JSON object on stdout. perfbench/run.py builds
// this program next to xsolved, starts it once per workload in a fresh
// process, and turns the object into the benchmark's result line; see
// perfbench/README.md for why each workload exists.
//
//   perfbench_runner paper-cold  --seed N --seconds S --trace 0|1
//   perfbench_runner server-cold --seed N --seconds S --trace 0|1
//                    --xsolved PATH --workdir DIR
//   perfbench_runner server-warm (same flags as server-cold)
//
// Every verdict is checked against an answer the solver did not produce
// (Table 2's published verdicts, hand-derived answers, or answers known
// by construction of the generated problems), and every response's
// cache outcome against the workload's shape: all misses when cold, all
// hits when warm.
//
// The load generator's socket client and response scanning are written
// here rather than taken from the program, so that the client side of
// every round trip stays the same code across the commits being
// compared.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/Batch.h"
#include "service/Json.h"
#include "service/Session.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace xsa;

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: a fixed generator, so one seed gives the same inputs on
/// every platform and standard library.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

/// Sample quantile with linear interpolation between closest ranks.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// The stages of the per-request breakdown the program returns on
/// non-stable responses (span names of src/service and src/solver).
enum Stage {
  StRequest,
  StParseQuery,
  StParseDtd,
  StCacheProbe,
  StCachePublish,
  StSolve,
  StLean,
  StChi,
  StDelta,
  StFixpoint,
  StExtract,
  NumStages
};
const char *const StageNames[NumStages] = {
    "request",      "parse.query",   "parse.dtd",       "cache.probe",
    "cache.publish", "solver.solve", "solver.lean",     "solver.chi",
    "solver.delta", "solver.fixpoint", "solver.extract"};

/// One answered request as the client saw it.
struct Sample {
  double RttMs = 0;   ///< client-measured time to verdict
  double DoneS = 0;   ///< completion, seconds into the measured phase
  double Lean = 0;    ///< "lean" of the response
  double Rounds = 0;  ///< "iterations" of the response
  bool Hit = false;   ///< "cache":"hit"
  double PeakNodes = 0; ///< in-process only (responses do not carry it)
  /// Single precision: a warm server run keeps close to a million
  /// samples.
  float Stage[NumStages] = {};
};

/// Tallies of one workload run that decide correctness.
struct Outcome {
  size_t Attempted = 0;
  size_t Errors = 0;        ///< ok:false other than refusals
  size_t Refused = 0;       ///< overloaded / draining / deadline_exceeded
  size_t Wrong = 0;         ///< verdict differs from the known answer
  size_t CacheMismatch = 0; ///< hit on a cold workload, miss on a warm one
  std::vector<std::string> Problems; ///< first few diagnostics

  void note(const std::string &Msg) {
    if (Problems.size() < 8)
      Problems.push_back(Msg);
  }
  void merge(const Outcome &O) {
    Attempted += O.Attempted;
    Errors += O.Errors;
    Refused += O.Refused;
    Wrong += O.Wrong;
    CacheMismatch += O.CacheMismatch;
    for (const std::string &P : O.Problems)
      note(P);
  }
};

//===----------------------------------------------------------------------===//
// Scanning compact response lines (the program's JsonValue::dump output)
//===----------------------------------------------------------------------===//

/// Position just after `"Key":` at or after \p From, or npos. A key
/// inside a JSON string value cannot match: its quotes are escaped.
size_t findKey(const std::string &L, const char *Key, size_t From = 0) {
  std::string Pat = std::string("\"") + Key + "\":";
  size_t P = L.find(Pat, From);
  return P == std::string::npos ? P : P + Pat.size();
}

bool scanBool(const std::string &L, const char *Key, bool &Out) {
  size_t P = findKey(L, Key);
  if (P == std::string::npos)
    return false;
  if (L.compare(P, 4, "true") == 0)
    Out = true;
  else if (L.compare(P, 5, "false") == 0)
    Out = false;
  else
    return false;
  return true;
}

double scanNum(const std::string &L, const char *Key) {
  size_t P = findKey(L, Key);
  return P == std::string::npos ? 0 : std::strtod(L.c_str() + P, nullptr);
}

std::string scanStr(const std::string &L, const char *Key, size_t From = 0) {
  size_t P = findKey(L, Key, From);
  if (P == std::string::npos || P >= L.size() || L[P] != '"')
    return "";
  size_t End = L.find('"', P + 1);
  return End == std::string::npos ? "" : L.substr(P + 1, End - P - 1);
}

/// Fills \p Out from the flat "stages" object; absent stages stay 0.
void scanStages(const std::string &L, float *Out) {
  size_t P = findKey(L, "stages");
  if (P == std::string::npos)
    return;
  size_t End = L.find('}', P);
  for (int S = 0; S < NumStages; ++S) {
    size_t K = findKey(L, StageNames[S], P);
    if (K != std::string::npos && K < End)
      Out[S] = static_cast<float>(std::strtod(L.c_str() + K, nullptr));
  }
}

/// Checks one response line against the known answer and the expected
/// cache outcome; fills the sample's response-side fields.
void checkResponse(const std::string &Line, const std::string &Id,
                   bool Expected, bool ExpectHit, bool WantStages,
                   Sample &S, Outcome &O) {
  ++O.Attempted;
  bool Ok = false;
  if (!scanBool(Line, "ok", Ok) || !Ok) {
    std::string Code = scanStr(Line, "code", findKey(Line, "error"));
    if (Code == "overloaded" || Code == "draining" ||
        Code == "deadline_exceeded")
      ++O.Refused;
    else
      ++O.Errors;
    O.note(Id + ": " + Line.substr(0, 200));
    return;
  }
  bool Holds = false;
  if (!scanBool(Line, "holds", Holds) || Holds != Expected) {
    ++O.Wrong;
    O.note(Id + ": expected holds=" + (Expected ? "true" : "false") +
           ", got " + Line.substr(0, 200));
  }
  S.Hit = scanStr(Line, "cache") == "hit";
  if (S.Hit != ExpectHit) {
    ++O.CacheMismatch;
    O.note(Id + ": expected a cache " + (ExpectHit ? "hit" : "miss"));
  }
  S.Lean = scanNum(Line, "lean");
  S.Rounds = scanNum(Line, "iterations");
  if (WantStages)
    scanStages(Line, S.Stage);
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One request line with the answer it must get.
struct Problem {
  std::string Id;
  std::string Line;
  bool Holds;
};

/// The paper-cold corpus. Expected verdicts: Table 2's published ones
/// (bench/bench_table2.cpp encodes the same queries), and hand-derived
/// ones for the rest:
///  - /html//p selects only p elements, all of which //p selects;
///  - under the Wikipedia DTD an article's children are meta and then
///    text or redirect, so /self::article/title is empty while meta
///    does have a title child;
///  - edit elements occur only inside history, so every edit/text is a
///    history descendant;
///  - history.dtd restates the Wikipedia DTD's history subtree, so
///    //history is well typed against it.
std::vector<Problem> paperCorpus() {
  return {
      {"t2-row1-fwd",
       R"j({"id":"t2-row1-fwd","op":"contains","e1":"/a[.//b[c/*//d]/b[c//d]/b[c/d]]","e2":"/a[.//b[c/*//d]/b[c/d]]"})j",
       true},
      {"t2-row1-bwd",
       R"j({"id":"t2-row1-bwd","op":"contains","e1":"/a[.//b[c/*//d]/b[c/d]]","e2":"/a[.//b[c/*//d]/b[c//d]/b[c/d]]"})j",
       false},
      {"t2-row2-fwd",
       R"j({"id":"t2-row2-fwd","op":"contains","e1":"a/b//d[prec-sibling::c]/e","e2":"a/b//c/foll-sibling::d/e"})j",
       true},
      {"t2-row2-bwd",
       R"j({"id":"t2-row2-bwd","op":"contains","e1":"a/b//c/foll-sibling::d/e","e2":"a/b//d[prec-sibling::c]/e"})j",
       true},
      {"t2-row3-fwd",
       R"j({"id":"t2-row3-fwd","op":"contains","e1":"a/b[//c]/following::d/e & a/d[preceding::c]/e","e2":"a//c/following::d/e"})j",
       true},
      {"t2-row3-bwd",
       R"j({"id":"t2-row3-bwd","op":"contains","e1":"a//c/following::d/e","e2":"a/b[//c]/following::d/e & a/d[preceding::c]/e"})j",
       false},
      {"t2-row4-smil",
       R"j({"id":"t2-row4-smil","op":"empty","e1":"*//switch[ancestor::head]//seq//audio[prec-sibling::video]","dtd":"smil"})j",
       false},
      {"t2-row5-xhtml",
       R"j({"id":"t2-row5-xhtml","op":"empty","e1":"descendant::a[ancestor::a]","dtd":"xhtml"})j",
       false},
      {"t2-row6-xhtml",
       R"j({"id":"t2-row6-xhtml","op":"cover","e1":"/descendant::*","others":["/self::html/(head | body)","/self::html/head/descendant::*","/self::html/body/descendant::*"],"dtd":"xhtml"})j",
       true},
      {"xhtml-p",
       R"j({"id":"xhtml-p","op":"contains","e1":"/html//p","e2":"//p","dtd":"xhtml"})j",
       true},
      {"wiki-dead",
       R"j({"id":"wiki-dead","op":"empty","e1":"/self::article/title","dtd":"wikipedia"})j",
       true},
      {"wiki-live",
       R"j({"id":"wiki-live","op":"empty","e1":"/self::article/meta/title","dtd":"wikipedia"})j",
       false},
      {"wiki-contains",
       R"j({"id":"wiki-contains","op":"contains","e1":"//edit/text","e2":"//history//text","dtd":"wikipedia"})j",
       true},
      {"wiki-typecheck",
       R"j({"id":"wiki-typecheck","op":"typecheck","e1":"//history","dtd":"wikipedia","out":"perfbench/history.dtd"})j",
       true},
  };
}

/// DTDs the paper corpus names; compiling them is part of its set-up.
const char *const PaperContexts[] = {"xhtml", "smil", "wikipedia"};
const char *const PaperOutTypes[] = {"perfbench/history.dtd"};

/// Problems of the server workloads, generated in blocks of 32: seven
/// of each of bench/bench_service.cpp's four shapes plus four typed
/// problems (one in eight), in seeded order. Labels embed the
/// connection and a running counter, so every problem is distinct from
/// every other one and private to its connection; their spelling is
/// seeded. Answers are known by construction:
///  - /A/B ⊆ //B holds; //B ⊆ /A/B fails (B may sit anywhere);
///  - //A/B overlaps //B[C] (a B under an A with a C child);
///  - A/B[parent::C] is empty (B's parent is the A just selected);
///  - //history/edit[Z] is empty under the Wikipedia DTD, which never
///    declares Z.
/// Every block holds the same shapes, and the solver's work depends on
/// a problem's shape but not on its label spelling, so per-request
/// operation counts over whole blocks repeat exactly across seeds.
class ProblemStream {
public:
  static constexpr size_t BlockSize = 32;

  ProblemStream(uint64_t Seed, unsigned Conn)
      : R(Seed * 0x100000001B3ull + Conn + 1), Conn(Conn) {}

  std::vector<Problem> nextBlock() {
    std::vector<int> Shapes;
    for (int S = 0; S < 4; ++S)
      Shapes.insert(Shapes.end(), 7, S);
    Shapes.insert(Shapes.end(), 4, 4);
    R.shuffle(Shapes);
    std::vector<Problem> Out;
    for (int S : Shapes)
      Out.push_back(make(S));
    return Out;
  }

private:
  Problem make(int Shape) {
    std::string Tag;
    for (int I = 0; I < 3; ++I)
      Tag += static_cast<char>('a' + R.below(26));
    Tag += std::to_string(Conn) + "_" + std::to_string(Counter++);
    std::string A = "a" + Tag, B = "b" + Tag, C = "c" + Tag, Z = "z" + Tag;
    std::string Id = "k" + Tag;
    std::string Head = "{\"id\":\"" + Id + "\",";
    switch (Shape) {
    case 0:
      return {Id,
              Head + "\"op\":\"contains\",\"e1\":\"/" + A + "/" + B +
                  "\",\"e2\":\"//" + B + "\"}",
              true};
    case 1:
      return {Id,
              Head + "\"op\":\"contains\",\"e1\":\"//" + B + "\",\"e2\":\"/" +
                  A + "/" + B + "\"}",
              false};
    case 2:
      return {Id,
              Head + "\"op\":\"overlap\",\"e1\":\"//" + A + "/" + B +
                  "\",\"e2\":\"//" + B + "[" + C + "]\"}",
              true};
    case 3:
      return {Id,
              Head + "\"op\":\"empty\",\"e1\":\"" + A + "/" + B +
                  "[parent::" + C + "]\"}",
              true};
    default:
      return {Id,
              Head + "\"op\":\"empty\",\"e1\":\"//history/edit[" + Z +
                  "]\",\"dtd\":\"wikipedia\"}",
              true};
    }
  }

  Rng R;
  unsigned Conn;
  uint64_t Counter = 0;
};

//===----------------------------------------------------------------------===//
// Per-layer counters read from the program
//===----------------------------------------------------------------------===//

/// Sums every series of counter \p Base in a metrics JSON export
/// (`{"counters":{"base{label=...}":v,...}}`), whatever its labels.
double sumCounter(const JsonValue &Metrics, const std::string &Base) {
  double Sum = 0;
  for (const auto &[Name, V] : Metrics.get("counters")->members())
    if (Name == Base || Name.rfind(Base + "{", 0) == 0)
      Sum += V->asNumber();
  return Sum;
}

struct BddCounts {
  double UniqueLookups = 0, UniqueHits = 0, OpLookups = 0, OpHits = 0;

  static BddCounts from(const JsonValue &Metrics) {
    return {sumCounter(Metrics, "xsa_bdd_unique_lookups_total"),
            sumCounter(Metrics, "xsa_bdd_unique_hits_total"),
            sumCounter(Metrics, "xsa_bdd_opcache_lookups_total"),
            sumCounter(Metrics, "xsa_bdd_opcache_hits_total")};
  }
  BddCounts minus(const BddCounts &B) const {
    return {UniqueLookups - B.UniqueLookups, UniqueHits - B.UniqueHits,
            OpLookups - B.OpLookups, OpHits - B.OpHits};
  }
};

struct CacheCounts {
  double Hits = 0, Misses = 0, Size = 0;

  static CacheCounts from(const JsonValue &Stats) {
    JsonRef C = Stats.get("cache");
    return {C->get("hits")->asNumber(), C->get("misses")->asNumber(),
            C->get("size")->asNumber()};
  }
};

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// The runner's result object: metrics with unit and sample count, plus
/// the correctness tallies run.py checks.
class Report {
public:
  void metric(const std::string &Name, double V, const char *Unit, size_t N,
              bool Exact = false) {
    Rows.push_back({Name, V, Unit, N, Exact});
  }

  void print(const char *Workload, uint64_t Seed, bool Trace,
             const Outcome &O) const {
    std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"nproc\":%ld,"
                "\"build\":%s,\"attempted\":%zu,\"errors\":%zu,"
                "\"refused\":%zu,\"wrong\":%zu,\"cache_mismatch\":%zu,"
                "\"problems\":[",
                jsonQuote(Workload).c_str(),
                static_cast<unsigned long long>(Seed), Trace ? 1 : 0,
                sysconf(_SC_NPROCESSORS_ONLN),
                jsonQuote(PERFBENCH_BUILD_TYPE).c_str(), O.Attempted,
                O.Errors, O.Refused, O.Wrong, O.CacheMismatch);
    for (size_t I = 0; I < O.Problems.size(); ++I)
      std::printf("%s%s", I ? "," : "", jsonQuote(O.Problems[I]).c_str());
    std::printf("],\"metrics\":{");
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::printf("%s%s:{\"value\":%.17g,\"unit\":%s,\"n\":%zu,\"exact\":%s}",
                  I ? "," : "", jsonQuote(R.Name).c_str(), R.Value,
                  jsonQuote(R.Unit).c_str(), R.N, R.Exact ? "true" : "false");
    }
    std::printf("}}\n");
  }

private:
  struct Row {
    std::string Name;
    double Value;
    std::string Unit;
    size_t N;
    bool Exact;
  };
  std::vector<Row> Rows;
};

double peakRssMbSelf() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// End-to-end metrics of a server run. Machine speed on a shared VM
/// swings by tens of percent for seconds at a time, so the measured
/// phase is cut into one-second windows and throughput, p50 and
/// geometric mean are each the median over windows of the window's own
/// figure: a slow spell shorter than half the run moves the upper
/// windows, not the median. p99 is taken over all samples, and only
/// with at least ten samples beyond it.
void serverMetrics(Report &Rep, const std::vector<Sample> &S, double Seconds,
                   double WallS) {
  size_t NumWindows = std::max<size_t>(1, static_cast<size_t>(Seconds));
  double WindowS = Seconds / static_cast<double>(NumWindows);
  std::vector<std::vector<double>> ByWindow(NumWindows);
  std::vector<double> All;
  for (const Sample &X : S) {
    All.push_back(X.RttMs);
    size_t W = static_cast<size_t>(X.DoneS / WindowS);
    if (W < NumWindows)
      ByWindow[W].push_back(X.RttMs);
  }
  std::vector<double> Rps, P50, Geo;
  for (const std::vector<double> &V : ByWindow) {
    Rps.push_back(static_cast<double>(V.size()) / WindowS);
    if (!V.empty()) {
      P50.push_back(median(V));
      Geo.push_back(geomean(V));
    }
  }
  Rep.metric("wall_s", WallS, "s", 1);
  Rep.metric("throughput_rps", median(Rps), "req/s", S.size());
  Rep.metric("latency_p50_ms", median(P50), "ms", S.size());
  Rep.metric("verdict_geomean_ms", median(Geo), "ms", S.size());
  if (All.size() >= 1000)
    Rep.metric("latency_p99_ms", quantile(All, 0.99), "ms", All.size());
}

/// Per-layer metrics shared by all workloads, from the per-request
/// stage breakdowns. \p Jobs is the analysing process's worker count.
void stageMetrics(Report &Rep, const std::vector<Sample> &S, double WallS,
                  size_t Jobs) {
  size_t N = S.size();
  double Sum[NumStages] = {};
  std::vector<double> Solve, Publish, Probe, Exec, Outside;
  double Rounds = 0, Lean = 0, Peak = 0, MissRounds = 0;
  for (const Sample &X : S) {
    for (int I = 0; I < NumStages; ++I)
      Sum[I] += X.Stage[I];
    if (X.Stage[StSolve] > 0)
      Solve.push_back(X.Stage[StSolve]);
    if (X.Stage[StCachePublish] > 0)
      Publish.push_back(X.Stage[StCachePublish]);
    if (X.Stage[StCacheProbe] > 0)
      Probe.push_back(X.Stage[StCacheProbe]);
    Exec.push_back(X.Stage[StRequest]);
    Outside.push_back(X.RttMs - X.Stage[StRequest]);
    Rounds += X.Rounds;
    Lean += X.Lean;
    if (!X.Hit)
      MissRounds += X.Rounds;
    Peak = std::max(Peak, X.PeakNodes);
  }
  double PerReq = N ? 1.0 / static_cast<double>(N) : 0;
  double Children = Sum[StParseQuery] + Sum[StParseDtd] + Sum[StCacheProbe] +
                    Sum[StSolve];
  Rep.metric("xpath.parse_ms", Sum[StParseQuery] * PerReq, "ms", N);
  Rep.metric("solver.lean_ms", Sum[StLean] * PerReq, "ms", N);
  Rep.metric("solver.chi_ms", (Sum[StChi] + Sum[StDelta]) * PerReq, "ms", N);
  Rep.metric("solver.fixpoint_ms", Sum[StFixpoint] * PerReq, "ms", N);
  Rep.metric("solver.round_ms", MissRounds ? Sum[StFixpoint] / MissRounds : 0,
             "ms", static_cast<size_t>(MissRounds));
  Rep.metric("solver.extract_ms", Sum[StExtract] * PerReq, "ms", N);
  Rep.metric("solver.rounds", Rounds * PerReq, "count", N, /*Exact=*/true);
  Rep.metric("solver.lean_bits", Lean * PerReq, "bits", N, /*Exact=*/true);
  Rep.metric("service.self_ms", (Sum[StRequest] - Children) * PerReq, "ms", N);
  Rep.metric("solver.solve_ms", median(Solve), "ms", Solve.size());
  Rep.metric("solver.fixed_share",
             Sum[StSolve] > 0
                 ? (Sum[StLean] + Sum[StChi] + Sum[StDelta]) / Sum[StSolve]
                 : 0,
             "ratio", Solve.size());
  Rep.metric("server.outside_exec_ms", median(Outside), "ms", N);
  if (N >= 1000)
    Rep.metric("server.outside_exec_p99_ms", quantile(Outside, 0.99), "ms", N);
  Rep.metric("server.worker_busy_ratio",
             WallS > 0 ? Sum[StRequest] / 1000.0 /
                             (WallS * static_cast<double>(Jobs))
                       : 0,
             "ratio", N);
  Rep.metric("service.cache_publish_ms", median(Publish), "ms",
             Publish.size());
  Rep.metric("service.cache_probe_ms", median(Probe), "ms", Probe.size());
  Rep.metric("server.exec_ms", median(Exec), "ms", N);
  if (Peak > 0)
    Rep.metric("bdd.peak_nodes", Peak, "nodes", N, /*Exact=*/true);
}

void bddMetrics(Report &Rep, const BddCounts &D, size_t Requests) {
  double PerReq = Requests ? 1.0 / static_cast<double>(Requests) : 0;
  Rep.metric("bdd.mk_calls", D.UniqueLookups * PerReq, "count", Requests,
             true);
  Rep.metric("bdd.opcache_lookups", D.OpLookups * PerReq, "count", Requests,
             true);
  Rep.metric("bdd.unique_hit_ratio",
             D.UniqueLookups > 0 ? D.UniqueHits / D.UniqueLookups : 0, "ratio",
             static_cast<size_t>(D.UniqueLookups), true);
  Rep.metric("bdd.opcache_hit_ratio",
             D.OpLookups > 0 ? D.OpHits / D.OpLookups : 0, "ratio",
             static_cast<size_t>(D.OpLookups), true);
}

/// Time of the program's JSON codec per request over the workload's own
/// lines: decoding each request (parseJson + requestFromJson) and
/// re-encoding each response (parseJson + dump). Repeated for at least
/// 0.2 s so the figure does not rest on one short loop.
double jsonMsPerRequest(
    const std::vector<std::pair<std::string, std::string>> &Lines) {
  if (Lines.empty())
    return 0;
  size_t Done = 0;
  double T0 = nowS(), Elapsed = 0;
  size_t Bytes = 0;
  do {
    for (const auto &[Req, Resp] : Lines) {
      std::string Error;
      JsonRef R = parseJson(Req, Error);
      AnalysisRequest AR;
      if (R)
        requestFromJson(*R, AR, Error);
      JsonRef P = parseJson(Resp, Error);
      if (P)
        Bytes += P->dump().size();
    }
    Done += Lines.size();
    Elapsed = nowS() - T0;
  } while (Elapsed < 0.2);
  if (Bytes == 0)
    std::fprintf(stderr, "perfbench: response lines did not parse\n");
  return Elapsed * 1000.0 / static_cast<double>(Done);
}

//===----------------------------------------------------------------------===//
// paper-cold
//===----------------------------------------------------------------------===//

/// A fresh session with every DTD the corpus names compiled: the set-up
/// each cold pass pays before its first problem. Exits when a DTD does
/// not load (history.dtd is read relative to the checkout root).
std::unique_ptr<AnalysisSession> setUpPaperSession(double &DtdMs) {
  auto Session = std::make_unique<AnalysisSession>();
  double T0 = nowS();
  std::string Error;
  bool Ok = true;
  for (const char *Name : PaperContexts)
    Ok = Session->typeContext(Name, Error) && Ok;
  for (const char *Name : PaperOutTypes)
    Ok = Session->typeFormula(Name, Error) && Ok;
  DtdMs = (nowS() - T0) * 1000.0;
  if (!Ok) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    std::exit(1);
  }
  return Session;
}

int runPaperCold(uint64_t Seed, double Seconds, bool Trace) {
  // The program's own per-request stage capture (what xsolved keeps on
  // for its slow-query log) is the traced run's source of the solver's
  // internal split; the untraced run leaves it off, as xsolve batch does.
  Tracer::global().setStageCapture(Trace);
  const std::vector<Problem> Corpus = paperCorpus();
  Rng R(Seed);
  Report Rep;
  Outcome O;

  // One set-up is a few milliseconds, too short to read steadily once,
  // and the machine's speed wanders over seconds: besides each pass's
  // own set-up, time a fresh one before every problem (and discard it),
  // so the median samples the whole run.
  std::vector<double> SetupS, DtdMs;
  auto TimeSetUp = [&] {
    double T0 = nowS(), Dtd = 0;
    auto Session = setUpPaperSession(Dtd);
    SetupS.push_back(nowS() - T0);
    DtdMs.push_back(Dtd);
    return Session;
  };

  std::vector<Sample> Samples;
  std::vector<std::vector<double>> PerProblem(Corpus.size());
  std::vector<double> PassWallS;
  std::vector<std::pair<std::string, std::string>> JsonLines;
  double CacheHits = 0, CacheLookups = 0;
  JsonRef Before = MetricRegistry::global().toJson();
  double Start = nowS();
  do {
    auto Session = TimeSetUp();
    std::vector<size_t> Order(Corpus.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
    double PassS = 0;
    for (size_t I : Order) {
      TimeSetUp();
      const Problem &P = Corpus[I];
      Sample S;
      double Q0 = nowS();
      // Answered as xsolve batch answers a line: decode, run on the
      // session's serial context, encode the non-stable response.
      std::string Error, Out;
      AnalysisResponse Resp;
      JsonRef Obj = parseJson(P.Line, Error);
      AnalysisRequest Req;
      if (Obj && requestFromJson(*Obj, Req, Error)) {
        Resp = runRequest(*Session, Req);
      } else {
        Resp.Error = Error;
      }
      Out = responseToJson(Resp)->dump();
      S.RttMs = (nowS() - Q0) * 1000.0;
      PassS += S.RttMs / 1000.0;
      checkResponse(Out, P.Id, P.Holds, /*ExpectHit=*/false, Trace, S, O);
      S.PeakNodes = static_cast<double>(Resp.Stats.PeakBddNodes);
      PerProblem[I].push_back(S.RttMs);
      Samples.push_back(S);
      if (Trace && JsonLines.size() < Corpus.size())
        JsonLines.emplace_back(P.Line, Out);
    }
    PassWallS.push_back(PassS);
    // A fresh session per pass: each pass must find nothing cached.
    SessionStats St = Session->stats();
    CacheHits += static_cast<double>(St.Cache.Hits);
    CacheLookups += static_cast<double>(St.Cache.Hits + St.Cache.Misses);
    if (St.Cache.Hits != 0) {
      O.CacheMismatch += St.Cache.Hits;
      O.note("paper-cold pass hit the result cache");
    }
  } while (nowS() - Start < Seconds);
  JsonRef After = MetricRegistry::global().toJson();

  double PassTotal = 0;
  for (double P : PassWallS)
    PassTotal += P;
  // Each problem's median over the passes: a slow spell of the machine
  // (or the first pass's cold heap) lands in one pass's figure for a
  // problem, not in the median. wall_s is the typical pass built from
  // them, and throughput_rps the corpus answered per second at that pace.
  std::vector<double> ProblemMedians;
  double TypicalPassS = 0;
  for (const std::vector<double> &V : PerProblem) {
    ProblemMedians.push_back(median(V));
    TypicalPassS += ProblemMedians.back() / 1000.0;
  }

  Rep.metric("setup_s", median(SetupS), "s", SetupS.size());
  Rep.metric("wall_s", TypicalPassS, "s", PassWallS.size());
  Rep.metric("throughput_rps",
             static_cast<double>(Corpus.size()) / TypicalPassS, "req/s",
             Samples.size());
  Rep.metric("latency_p50_ms", median(ProblemMedians), "ms", Samples.size());
  Rep.metric("verdict_geomean_ms", geomean(ProblemMedians), "ms",
             Samples.size());
  Rep.metric("peak_rss_mb", peakRssMbSelf(), "MB", 1);
  if (Trace) {
    stageMetrics(Rep, Samples, PassTotal, 1);
    bddMetrics(Rep, BddCounts::from(*After).minus(BddCounts::from(*Before)),
               Samples.size());
    Rep.metric("xtype.dtd_compile_ms", median(DtdMs), "ms", DtdMs.size());
    Rep.metric("service.cache_hit_ratio",
               CacheLookups > 0 ? CacheHits / CacheLookups : 0, "ratio",
               static_cast<size_t>(CacheLookups), true);
    Rep.metric("service.json_ms", jsonMsPerRequest(JsonLines), "ms",
               JsonLines.size());
  }
  Rep.print("paper-cold", Seed, Trace, O);
  return 0;
}

//===----------------------------------------------------------------------===//
// Server workloads
//===----------------------------------------------------------------------===//

/// A blocking JSON-lines connection over a unix-domain socket.
class Conn {
public:
  Conn() = default;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool connect(const std::string &Path) {
    sockaddr_un Addr{};
    if (Path.size() >= sizeof(Addr.sun_path))
      return false;
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      ::close(Fd);
      Fd = -1;
      return false;
    }
    return true;
  }

  bool send(const std::string &Line) {
    Out = Line;
    Out += '\n';
    size_t Off = 0;
    while (Off < Out.size()) {
      ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  bool recv(std::string &Line) {
    while (true) {
      size_t Nl = Buf.find('\n', Scan);
      if (Nl != std::string::npos) {
        Line.assign(Buf, 0, Nl);
        Buf.erase(0, Nl + 1);
        Scan = 0;
        return true;
      }
      Scan = Buf.size();
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  bool call(const std::string &Req, std::string &Resp) {
    return send(Req) && recv(Resp);
  }

private:
  int Fd = -1;
  std::string Buf, Out;
  size_t Scan = 0;
};

/// One xsolved process. Stops it with SIGTERM (its graceful drain) and
/// reads its peak resident set from wait4; a process still running when
/// this object dies is killed and reaped.
class Xsolved {
public:
  Xsolved() = default;
  ~Xsolved() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }
  Xsolved(const Xsolved &) = delete;
  Xsolved &operator=(const Xsolved &) = delete;

  bool spawn(const std::vector<std::string> &Argv, const std::string &LogPath) {
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      // Never outlive the runner, even when it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0) {
        ::dup2(Log, 1);
        ::dup2(Log, 2);
        ::close(Log);
      }
      ::execv(Args[0], Args.data());
      ::_exit(127);
    }
    return true;
  }

  /// Polls until the socket accepts and answers a ping; false after
  /// \p TimeoutS or when the process exited.
  bool waitReady(const std::string &Sock, double TimeoutS) {
    double Until = nowS() + TimeoutS;
    while (nowS() < Until) {
      Conn C;
      std::string Resp;
      if (C.connect(Sock) && C.call(R"({"op":"ping"})", Resp))
        return Resp.find("\"ok\":true") != std::string::npos;
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  /// Graceful stop; returns the peak resident set in MB (0 on failure).
  double stop() {
    if (Pid <= 0)
      return 0;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    rusage U{};
    pid_t Got = ::wait4(Pid, &Status, 0, &U);
    Pid = -1;
    return Got > 0 ? static_cast<double>(U.ru_maxrss) / 1024.0 : 0;
  }

private:
  pid_t Pid = -1;
};

struct ServerArgs {
  std::string Exe, WorkDir;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Warm = false;
};

/// xsolved's worker count: two of the reference host's four vCPUs,
/// leaving the rest to the generator and the server's I/O threads.
constexpr size_t ServerJobs = 2;
constexpr unsigned Connections = 4;
/// Working set of server-warm: 16 blocks, well inside the 1024-entry
/// default result cache.
constexpr size_t WarmBlocksPerConn = 4;
/// Fresh xsolved starts per run, before and after the measured phase;
/// setup_s is their median.
constexpr int ServerSetupsBefore = 8;
constexpr int ServerSetupsAfter = 7;

/// What one connection of the closed-loop generator saw.
struct ConnRun {
  std::vector<Sample> Samples;
  Outcome O;
  std::vector<std::pair<std::string, std::string>> Kept;
  bool Broken = false;
};

/// One closed-loop connection: sends a block, each request after the
/// previous answer, and starts another block only while the deadline
/// has not passed, so every connection stops on a block boundary.
void connectionLoop(const std::string &Sock, std::latch &Go,
                    const double &StartS, double Seconds, bool ExpectHit,
                    bool Trace,
                    const std::function<std::vector<Problem>()> &NextBlock,
                    ConnRun &Out) {
  Conn C;
  bool Connected = C.connect(Sock);
  Go.arrive_and_wait();
  if (!Connected) {
    Out.Broken = true;
    return;
  }
  double Deadline = StartS + Seconds;
  std::string Resp;
  do {
    for (const Problem &P : NextBlock()) {
      Sample S;
      auto T0 = std::chrono::steady_clock::now();
      if (!C.call(P.Line, Resp)) {
        Out.Broken = true;
        return;
      }
      auto T1 = std::chrono::steady_clock::now();
      S.RttMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
      S.DoneS = std::chrono::duration<double>(T1.time_since_epoch()).count() -
                StartS;
      checkResponse(Resp, P.Id, P.Holds, ExpectHit, Trace, S, Out.O);
      Out.Samples.push_back(S);
      if (Trace && Out.Kept.size() < 1024)
        Out.Kept.emplace_back(P.Line, Resp);
    }
  } while (nowS() < Deadline);
}

/// Solves the warm working set in-process and saves it as a cache file
/// for xsolved --cache-file (untimed input generation).
bool buildWarmCache(const std::vector<std::vector<std::vector<Problem>>> &WS,
                    const std::string &Path, Outcome &O) {
  SessionOptions SO;
  SO.Jobs = ServerJobs;
  AnalysisSession Session(SO);
  std::vector<AnalysisRequest> Reqs;
  std::vector<const Problem *> Index;
  for (const auto &Blocks : WS)
    for (const auto &Block : Blocks)
      for (const Problem &P : Block) {
        std::string Error;
        JsonRef Obj = parseJson(P.Line, Error);
        AnalysisRequest Req;
        if (!Obj || !requestFromJson(*Obj, Req, Error)) {
          O.note(P.Id + ": " + Error);
          return false;
        }
        Reqs.push_back(Req);
        Index.push_back(&P);
      }
  std::vector<AnalysisResponse> Resps = runBatch(Session, Reqs);
  for (size_t I = 0; I < Resps.size(); ++I)
    if (!Resps[I].Ok || Resps[I].Holds != Index[I]->Holds) {
      O.note(Index[I]->Id + ": wrong answer while building the warm cache");
      return false;
    }
  std::string Error;
  if (!Session.saveCache(Path, Error)) {
    O.note("saving the warm cache: " + Error);
    return false;
  }
  return true;
}

/// Median time to load the warm cache file into a fresh session, and the
/// entries it holds (the traced run's view of server-warm's set-up).
void cacheLoadMetrics(Report &Rep, const std::string &Path) {
  std::vector<double> Ms;
  double Entries = 0;
  for (int I = 0; I < 7; ++I) {
    AnalysisSession Session;
    std::string Error;
    double T0 = nowS();
    if (!Session.loadCache(Path, Error))
      std::fprintf(stderr, "perfbench: loadCache: %s\n", Error.c_str());
    Ms.push_back((nowS() - T0) * 1000.0);
    Entries = static_cast<double>(Session.stats().Cache.Size);
  }
  Rep.metric("service.cache_load_ms", median(Ms), "ms", Ms.size());
  Rep.metric("service.cache_entries", Entries, "count", 1, true);
}

int runServer(const ServerArgs &A) {
  namespace fs = std::filesystem;
  const char *Name = A.Warm ? "server-warm" : "server-cold";
  Report Rep;
  Outcome O;
  std::error_code EC;
  fs::create_directories(A.WorkDir, EC);
  const std::string Sock = A.WorkDir + "/xsolved.sock";
  const std::string LogPath = A.WorkDir + "/xsolved.log";
  const std::string SeedCache = A.WorkDir + "/warm-seed.cache";
  const std::string LiveCache = A.WorkDir + "/warm.cache";
  fs::remove(LogPath, EC);

  // Inputs. server-warm replays a fixed working set generated by the
  // same streams as server-cold.
  std::vector<std::vector<std::vector<Problem>>> WorkingSet(Connections);
  if (A.Warm) {
    for (unsigned C = 0; C < Connections; ++C) {
      ProblemStream Stream(A.Seed, C);
      for (size_t B = 0; B < WarmBlocksPerConn; ++B)
        WorkingSet[C].push_back(Stream.nextBlock());
    }
    fs::remove(SeedCache, EC);
    if (!buildWarmCache(WorkingSet, SeedCache, O)) {
      Rep.print(Name, A.Seed, A.Trace, O);
      return 1;
    }
  }

  std::vector<std::string> Argv = {A.Exe, "--unix", Sock, "--jobs",
                                   std::to_string(ServerJobs)};
  if (A.Warm) {
    Argv.push_back("--cache-file");
    Argv.push_back(LiveCache);
  }

  // Set-up: fresh starts, each from spawn until the server answers a
  // ping (which, for server-warm, follows the cache-file load). They
  // are spread before and after the measured phase, as the machine's
  // speed wanders over seconds; the last start before the phase serves
  // it.
  std::vector<double> SetupS;
  auto Start = [&]() -> std::unique_ptr<Xsolved> {
    fs::remove(Sock, EC);
    if (A.Warm)
      fs::copy_file(SeedCache, LiveCache, fs::copy_options::overwrite_existing,
                    EC);
    auto Server = std::make_unique<Xsolved>();
    double T0 = nowS();
    if (!Server->spawn(Argv, LogPath) || !Server->waitReady(Sock, 30)) {
      O.note("xsolved did not start; see " + LogPath);
      return nullptr;
    }
    SetupS.push_back(nowS() - T0);
    return Server;
  };
  auto StartStop = [&](int Times) {
    for (int I = 0; I < Times; ++I) {
      auto Server = Start();
      if (!Server)
        return false;
      Server->stop();
    }
    return true;
  };
  std::unique_ptr<Xsolved> Server;
  if (!StartStop(ServerSetupsBefore - 1) || !(Server = Start())) {
    Rep.print(Name, A.Seed, A.Trace, O);
    return 1;
  }

  Conn Control;
  std::string Resp, Error;
  if (!Control.connect(Sock)) {
    O.note("control connection failed");
    Rep.print(Name, A.Seed, A.Trace, O);
    return 1;
  }
  auto Query = [&](const char *Op) -> JsonRef {
    if (!Control.call(std::string("{\"op\":\"") + Op + "\"}", Resp))
      return JsonValue::object();
    JsonRef J = parseJson(Resp, Error);
    return J ? J : JsonValue::object();
  };
  CacheCounts CacheBefore = CacheCounts::from(*Query("stats")->get("stats"));
  BddCounts BddBefore = BddCounts::from(*Query("metrics"));

  // Measured phase: four closed-loop connections.
  std::vector<ConnRun> Runs(Connections);
  std::vector<std::function<std::vector<Problem>()>> Feeds;
  std::vector<std::unique_ptr<ProblemStream>> Streams;
  std::vector<std::unique_ptr<Rng>> Orders;
  std::vector<size_t> NextWarmBlock(Connections, 0);
  for (unsigned C = 0; C < Connections; ++C) {
    if (A.Warm) {
      Orders.push_back(std::make_unique<Rng>(A.Seed * 31 + C + 7));
      Feeds.push_back([&, C] {
        std::vector<Problem> Block =
            WorkingSet[C][NextWarmBlock[C]++ % WarmBlocksPerConn];
        Orders[C]->shuffle(Block);
        return Block;
      });
    } else {
      Streams.push_back(std::make_unique<ProblemStream>(A.Seed, C));
      ProblemStream *S = Streams.back().get();
      Feeds.push_back([S] { return S->nextBlock(); });
    }
  }
  std::latch Go(Connections + 1);
  double StartS = 0;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      connectionLoop(Sock, Go, StartS, A.Seconds, A.Warm, A.Trace, Feeds[C],
                     Runs[C]);
    });
  StartS = nowS();
  Go.arrive_and_wait();
  for (std::thread &T : Threads)
    T.join();
  double WallS = nowS() - StartS;

  CacheCounts CacheAfter = CacheCounts::from(*Query("stats")->get("stats"));
  BddCounts BddAfter = BddCounts::from(*Query("metrics"));
  double PeakRss = Server->stop();
  if (!StartStop(ServerSetupsAfter)) {
    Rep.print(Name, A.Seed, A.Trace, O);
    return 1;
  }

  std::vector<Sample> Samples;
  std::vector<std::pair<std::string, std::string>> Kept;
  for (ConnRun &R : Runs) {
    if (R.Broken) {
      ++O.Errors;
      O.note("a connection broke off");
    }
    O.merge(R.O);
    Samples.insert(Samples.end(), R.Samples.begin(), R.Samples.end());
    Kept.insert(Kept.end(), R.Kept.begin(), R.Kept.end());
    R.Samples = {};
  }
  // The cache shape, from the server's own counters: server-cold must
  // never hit, server-warm must never miss.
  double Hits = CacheAfter.Hits - CacheBefore.Hits;
  double Misses = CacheAfter.Misses - CacheBefore.Misses;
  if (A.Warm ? Misses != 0 : Hits != 0) {
    O.CacheMismatch += static_cast<size_t>(A.Warm ? Misses : Hits);
    O.note("stats op: " + std::to_string(static_cast<long>(Hits)) +
           " hits, " + std::to_string(static_cast<long>(Misses)) + " misses");
  }

  Rep.metric("setup_s", median(SetupS), "s", SetupS.size());
  serverMetrics(Rep, Samples, A.Seconds, WallS);
  Rep.metric("peak_rss_mb", PeakRss, "MB", 1);
  if (A.Trace) {
    stageMetrics(Rep, Samples, WallS, ServerJobs);
    bddMetrics(Rep, BddAfter.minus(BddBefore), Samples.size());
    double Lookups = Hits + Misses;
    Rep.metric("service.cache_hit_ratio", Lookups > 0 ? Hits / Lookups : 0,
               "ratio", static_cast<size_t>(Lookups), true);
    Rep.metric("service.json_ms", jsonMsPerRequest(Kept), "ms", Kept.size());
    // xsolved compiles a DTD once per worker, on its first typed request.
    std::vector<double> Dtd;
    for (const Sample &S : Samples)
      if (S.Stage[StParseDtd] > 0)
        Dtd.push_back(S.Stage[StParseDtd]);
    Rep.metric("xtype.dtd_compile_ms", median(Dtd), "ms", Dtd.size());
    if (A.Warm)
      cacheLoadMetrics(Rep, SeedCache);
  }
  Rep.print(Name, A.Seed, A.Trace, O);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner paper-cold|server-cold|server-warm "
               "--seed N --seconds S --trace 0|1 [--xsolved PATH "
               "--workdir DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Workload = argv[1];
  ServerArgs A;
  for (int I = 2; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = Val == "1";
    else if (Flag == "--xsolved")
      A.Exe = Val;
    else if (Flag == "--workdir")
      A.WorkDir = Val;
    else
      return usage();
  }
  if (A.Seconds <= 0)
    return usage();
  if (Workload == "paper-cold")
    return runPaperCold(A.Seed, A.Seconds, A.Trace);
  if (Workload != "server-cold" && Workload != "server-warm")
    return usage();
  if (A.Exe.empty() || A.WorkDir.empty())
    return usage();
  A.Warm = Workload == "server-warm";
  return runServer(A);
}
