//===- bench_fixpoint.cpp - Cross-request fixpoint sharing gate ------------===//
//
// Standalone benchmark (no google-benchmark dependency, built in every
// configuration) for the fixpoint store. The workload is the service
// benchmark's shape: near-duplicate decision problems — one query shape
// instantiated over per-request alphabets — whose leans are isomorphic,
// so in a session every run after the first per shape replays the
// stored iterate sequence instead of recomputing it.
//
// It doubles as the CI regression gate for the sharing engine. The
// reference is an unshared run: every request answered by runRequest on
// a standalone AnalysisContext (no result cache, no fixpoint store) and
// encoded as --stable encodes it. The process exits nonzero unless all
// of:
//
//   * sharing is output-invisible: the session's stable JSON-lines
//     responses, serial and at jobs=4, are byte-identical to the
//     reference's;
//   * the session's computed iteration count (solver iterations minus
//     replayed ones) is below the reference's cold-equivalent total;
//   * a store-warm batch of *unseen* same-shaped queries seeds every
//     solver run, and matches its own unshared reference.
//
// Two last rows, gated in CI on their counts only, time one XHTML-scale
// query each and record its BDD work (bdd_mk_calls and bdd_peak_nodes):
// xhtml-single-query, a containment that holds, and xhtml-sat-extract,
// one that does not (//p ⊆ //p[b]), whose time is mostly model
// extraction.
//
// Results go to BENCH_fixpoint.json; every row carries name, wall_ms,
// cache_hit_rate, solver_iterations, iterations_computed,
// iterations_replayed, seeded_runs, seed_hit_rate, p50_ms and p99_ms
// (the tail fields come from the engine's request-latency histogram,
// bracketed per run).
//
//===----------------------------------------------------------------------===//

#include "service/Batch.h"
#include "service/Context.h"
#include "service/Session.h"

#include "BenchJson.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

using namespace xsa;

namespace {

/// Near-duplicate workload: \p Groups instances of three query shapes
/// over per-group alphabets, starting at \p Offset (distinct offsets
/// give textually unseen but lean-isomorphic batches).
std::string nearDuplicateBatch(size_t Groups, size_t Offset) {
  std::string In;
  for (size_t I = Offset; I < Offset + Groups; ++I) {
    std::string N = std::to_string(I);
    In += "{\"id\":\"c" + N + "\",\"op\":\"contains\",\"e1\":\"/a" + N +
          "/b" + N + "\",\"e2\":\"//b" + N + "\"}\n";
    In += "{\"id\":\"o" + N + "\",\"op\":\"overlap\",\"e1\":\"//a" + N +
          "/b" + N + "\",\"e2\":\"//b" + N + "[c" + N + "]\"}\n";
    In += "{\"id\":\"e" + N + "\",\"op\":\"empty\",\"e1\":\"a" + N + "/b" +
          N + "[parent::c" + N + "]\"}\n";
  }
  return In;
}

struct RunOutcome {
  std::string StableOut;
  double WallMs = 0;
  SessionStats Stats;
  /// p50/p99 of the requests inside this run (request-latency histogram
  /// delta), appended to the BENCH_fixpoint.json extras.
  std::vector<std::pair<std::string, double>> Quantiles;
};

/// The unshared reference: each line of \p Input answered on one
/// standalone context, with no result cache and no fixpoint store.
/// Stats carries the cold iteration total.
RunOutcome runUnshared(const std::string &Input) {
  RunOutcome Out;
  AnalysisContext Ctx;
  std::istringstream In(Input);
  std::string Line;
  xsa_bench::LatencyProbe Probe(xsa_bench::requestLatencyHistogram());
  auto T0 = std::chrono::steady_clock::now();
  while (std::getline(In, Line)) {
    std::string Error;
    JsonRef Obj = parseJson(Line, Error);
    AnalysisRequest Req;
    if (!Obj || !requestFromJson(*Obj, Req, Error)) {
      std::fprintf(stderr, "bench_fixpoint: bad line %s: %s\n", Line.c_str(),
                   Error.c_str());
      std::exit(1);
    }
    AnalysisResponse R = runRequest(Ctx, Req);
    Out.Stats.SolverIterations += R.Stats.Iterations;
    Out.StableOut += responseToJson(R, /*IncludeVolatile=*/false)->dump();
    Out.StableOut += '\n';
  }
  Out.WallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
  Out.Quantiles = Probe.quantiles();
  return Out;
}

RunOutcome runBatchOn(AnalysisSession &Session, const std::string &Input) {
  RunOutcome Out;
  std::istringstream In(Input);
  std::ostringstream Os;
  xsa_bench::LatencyProbe Probe(xsa_bench::requestLatencyHistogram());
  auto T0 = std::chrono::steady_clock::now();
  BatchStreamOptions Opts;
  Opts.Stable = true;
  runBatchJsonLines(Session, In, Os, nullptr, Opts);
  Out.WallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
  Out.StableOut = Os.str();
  Out.Stats = Session.stats();
  Out.Quantiles = Probe.quantiles();
  return Out;
}

double seedHitRate(const SessionStats &S) {
  size_t Lookups = S.Fixpoints.Hits + S.Fixpoints.Misses;
  return Lookups ? static_cast<double>(S.Fixpoints.Hits) / Lookups : 0;
}

std::vector<std::pair<std::string, double>>
extras(const SessionStats &S, const RunOutcome &Run) {
  std::vector<std::pair<std::string, double>> E = {
      {"solver_iterations", static_cast<double>(S.SolverIterations)},
      {"iterations_computed",
       static_cast<double>(S.SolverIterations -
                           S.FixpointIterationsReplayed)},
      {"iterations_replayed",
       static_cast<double>(S.FixpointIterationsReplayed)},
      {"seeded_runs", static_cast<double>(S.FixpointSeededRuns)},
      {"seed_hit_rate", seedHitRate(S)}};
  E.insert(E.end(), Run.Quantiles.begin(), Run.Quantiles.end());
  return E;
}

} // namespace

int main() {
  xsa_bench::BenchJsonWriter Json("BENCH_fixpoint.json");
  constexpr size_t Groups = 12;
  std::string Batch = nearDuplicateBatch(Groups, /*Offset=*/0);
  bool Ok = true;
  auto Fail = [&](const char *Msg) {
    std::fprintf(stderr, "bench_fixpoint: FAIL: %s\n", Msg);
    Ok = false;
  };

  // The unshared reference: everything computed.
  RunOutcome Base = runUnshared(Batch);
  Json.record("near-dup-batch/unshared", Base.WallMs, 0,
              extras(Base.Stats, Base));

  // A session, serial: runs after the first per shape replay.
  AnalysisSession Serial;
  RunOutcome Shared = runBatchOn(Serial, Batch);
  Json.record("near-dup-batch/session", Shared.WallMs,
              xsa_bench::sessionHitRate(Serial), extras(Shared.Stats, Shared));

  if (Shared.StableOut != Base.StableOut)
    Fail("sharing changed the stable batch output");
  if (Shared.Stats.SolverIterations != Base.Stats.SolverIterations)
    Fail("sharing changed the semantic iteration totals");
  size_t ComputedOff = Base.Stats.SolverIterations;
  size_t ComputedOn =
      Shared.Stats.SolverIterations - Shared.Stats.FixpointIterationsReplayed;
  std::fprintf(stderr,
               "bench_fixpoint: computed iterations %zu -> %zu "
               "(%zu replayed over %zu seeded runs)\n",
               ComputedOff, ComputedOn,
               Shared.Stats.FixpointIterationsReplayed,
               Shared.Stats.FixpointSeededRuns);
  if (ComputedOn >= ComputedOff)
    Fail("sharing did not reduce computed fixpoint iterations");
  if (Shared.Stats.FixpointSeededRuns == 0)
    Fail("no solver run was seeded");

  // A session with 4 workers, cold: byte-identical despite racing seeds.
  SessionOptions ParOpts;
  ParOpts.Jobs = 4;
  AnalysisSession Par(ParOpts);
  RunOutcome Parallel = runBatchOn(Par, Batch);
  Json.record("near-dup-batch/session-jobs=4", Parallel.WallMs,
              xsa_bench::sessionHitRate(Par), extras(Parallel.Stats, Parallel));
  if (Parallel.StableOut != Base.StableOut)
    Fail("jobs=4 seeded output differs from the unshared reference");

  // Warm-store batch: unseen labels, same shapes, on the serial session
  // whose store the batch above filled. Every run must seed; this is the
  // warm-batch uplift gate.
  std::string Unseen = nearDuplicateBatch(Groups, /*Offset=*/1000);
  SessionStats Before = Serial.stats();
  RunOutcome Warm = runBatchOn(Serial, Unseen);
  SessionStats Delta;
  Delta.SolverIterations =
      Warm.Stats.SolverIterations - Before.SolverIterations;
  Delta.FixpointIterationsReplayed = Warm.Stats.FixpointIterationsReplayed -
                                     Before.FixpointIterationsReplayed;
  Delta.FixpointSeededRuns =
      Warm.Stats.FixpointSeededRuns - Before.FixpointSeededRuns;
  Delta.Fixpoints.Hits = Warm.Stats.Fixpoints.Hits - Before.Fixpoints.Hits;
  Delta.Fixpoints.Misses =
      Warm.Stats.Fixpoints.Misses - Before.Fixpoints.Misses;
  Json.record("warm-store-batch/session", Warm.WallMs,
              xsa_bench::sessionHitRate(Serial), extras(Delta, Warm));
  size_t WarmSolves = Warm.Stats.Solves - Before.Solves;
  if (Delta.FixpointSeededRuns < WarmSolves)
    Fail("a warm-store run went unseeded");
  if (Delta.FixpointIterationsReplayed * 2 < Delta.SolverIterations)
    Fail("warm-store batch replayed less than half of its iterations");
  if (Warm.StableOut != runUnshared(Unseen).StableOut)
    Fail("warm-store output differs from the unshared reference");

  // Two XHTML-scale single queries, each on a fresh session. Next to
  // wall time each row records machine-independent counters, so rows from
  // different hosts compare: bdd_mk_calls (the change in
  // xsa_bdd_unique_lookups_total over the run) and bdd_peak_nodes (the
  // run's peak live BDD nodes). The solver registered both series during
  // the rows above. The first query holds (no model); the second does not,
  // so its row also covers model extraction.
  Counter &MkCalls =
      MetricRegistry::global().counter("xsa_bdd_unique_lookups_total");
  auto XhtmlRow = [&](const char *Name, const std::string &Query) {
    uint64_t MkBefore = MkCalls.value();
    AnalysisSession XS;
    RunOutcome X = runBatchOn(XS, Query);
    double XMk = static_cast<double>(MkCalls.value() - MkBefore);
    double XPeak =
        MetricRegistry::global().gauge("xsa_bdd_peak_nodes").value();
    std::vector<std::pair<std::string, double>> XExtras = extras(X.Stats, X);
    XExtras.push_back({"bdd_mk_calls", XMk});
    XExtras.push_back({"bdd_peak_nodes", XPeak});
    Json.record(Name, X.WallMs, xsa_bench::sessionHitRate(XS),
                std::move(XExtras));
    std::fprintf(stderr,
                 "bench_fixpoint: %s wall ms %.2f, %.0f mk calls, %.0f peak "
                 "nodes\n",
                 Name, X.WallMs, XMk, XPeak);
  };
  XhtmlRow("xhtml-single-query",
           "{\"id\":\"x1\",\"op\":\"contains\",\"e1\":\"/html//p\","
           "\"e2\":\"//p\",\"dtd\":\"xhtml\"}\n");
  XhtmlRow("xhtml-sat-extract",
           "{\"id\":\"x2\",\"op\":\"contains\",\"e1\":\"//p\","
           "\"e2\":\"//p[b]\",\"dtd\":\"xhtml\"}\n");

  std::fprintf(stderr, "bench_fixpoint: %s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}
