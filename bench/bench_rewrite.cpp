//===- bench_rewrite.cpp - Rewrite throughput ------------------------------===//
//
// Measures the solver-verified rewrite engine (src/rewrite/) behind the
// optimize request: queries/second through the full certified loop
// (candidate generation, cost ranking, solver obligations), cold on a
// fresh session and again memoized on a warm one. The memoized row is
// the per-context optimize memo's evidence.
//
// Standalone (no google-benchmark dependency) so it builds everywhere
// and can emit BENCH_rewrite.json (name, wall_ms, cache_hit_rate)
// itself; exits nonzero when an optimize request fails.
//
//===----------------------------------------------------------------------===//

#include "service/Batch.h"
#include "service/Session.h"

#include "BenchJson.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace xsa;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Distinct queries exercising every shipped rule, over per-index
/// alphabets so no two share solver work: the unit of rewrite
/// throughput.
std::vector<AnalysisRequest> optimizeWorkload(size_t Groups = 10) {
  std::vector<AnalysisRequest> Reqs;
  for (size_t I = 0; I < Groups; ++I) {
    std::string A = "a" + std::to_string(I);
    std::string B = "b" + std::to_string(I);
    std::string C = "c" + std::to_string(I);
    for (const std::string &Q : {
             A + "//" + B,                       // fuse-steps
             A + "/self::*/" + B,                // drop-self
             A + "/" + B + "/parent::" + A,      // reverse-axis
             C + "/prec-sibling::" + A,          // reverse-axis (sibling)
             "(" + A + ")+",                     // collapse-iterate (refuted)
             A + " | " + B + "[" + C + "]",      // dead-branch (refuted)
         }) {
      AnalysisRequest R;
      R.Id = "q" + std::to_string(Reqs.size());
      R.Kind = RequestKind::Optimize;
      R.Query1 = Q;
      Reqs.push_back(R);
    }
  }
  return Reqs;
}

} // namespace

int main() {
  xsa_bench::BenchJsonWriter Json("BENCH_rewrite.json");

  // --- Rewrite throughput: cold, then memoized on the same session. ---
  std::vector<AnalysisRequest> Opt = optimizeWorkload();
  AnalysisSession Session;
  xsa_bench::LatencyProbe ColdProbe(xsa_bench::requestLatencyHistogram());
  auto T0 = std::chrono::steady_clock::now();
  std::vector<AnalysisResponse> Cold = runBatch(Session, Opt);
  double ColdMs = msSince(T0);
  size_t Rewrites = 0, Checks = 0;
  for (const AnalysisResponse &R : Cold) {
    if (!R.Ok) {
      std::fprintf(stderr, "optimize failed: %s\n", R.Error.c_str());
      return 1;
    }
    Checks += R.Trace.size();
    for (const RewriteStep &S : R.Trace)
      Rewrites += S.Accepted;
  }
  double ColdRate = xsa_bench::sessionHitRate(Session);
  std::printf("optimize-cold:      %3zu queries  %8.1f ms  "
              "(%.0f q/s, %zu obligations, %zu accepted, "
              "obligation cache-hit rate %.2f)\n",
              Opt.size(), ColdMs, 1e3 * Opt.size() / ColdMs, Checks, Rewrites,
              ColdRate);
  Json.record("optimize-cold", ColdMs, ColdRate, ColdProbe.quantiles());

  SessionStats Before = Session.stats();
  xsa_bench::LatencyProbe WarmProbe(xsa_bench::requestLatencyHistogram());
  T0 = std::chrono::steady_clock::now();
  runBatch(Session, Opt);
  double WarmMs = msSince(T0);
  SessionStats After = Session.stats();
  size_t MemoHits = After.OptimizeCacheHits - Before.OptimizeCacheHits;
  size_t MemoMisses = After.QueriesOptimized - Before.QueriesOptimized;
  double MemoRate = MemoHits + MemoMisses
                        ? static_cast<double>(MemoHits) /
                              (MemoHits + MemoMisses)
                        : 0;
  std::printf("optimize-memoized:  %3zu queries  %8.1f ms  "
              "(%.0f q/s, optimize-memo hit rate %.2f)\n",
              Opt.size(), WarmMs, 1e3 * Opt.size() / WarmMs, MemoRate);
  Json.record("optimize-memoized", WarmMs, MemoRate, WarmProbe.quantiles());
  return 0;
}
