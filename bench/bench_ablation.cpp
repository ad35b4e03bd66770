//===- bench_ablation.cpp - Ablations of §7's implementation choices -------===//
//
// The paper singles out three implementation techniques as essential for
// practical performance; this harness measures each on representative
// problems:
//
//   * §7.3 conjunctive partitioning + early quantification, vs building
//     the monolithic ∆a relation;
//   * §7.4 BDD variable order: the breadth-first formula traversal, vs
//     depth-first and reversed orders;
//   * §6.2/§9 early termination: stopping as soon as a satisfying root
//     type appears, vs running the fixpoint to completion (the
//     greatest-fixpoint-style behaviour of Tanabe et al. cannot stop
//     early; our least-fixpoint algorithm can).
//
//===----------------------------------------------------------------------===//

#include "solver/BddSolver.h"
#include "xpath/Compile.h"
#include "xpath/Parser.h"
#include "xtype/BuiltinDtds.h"
#include "xtype/Compile.h"

#include "BenchJson.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

using namespace xsa;

namespace {

/// BENCH_ablation.json: per-ablation wall time plus the solver counters
/// (lean, iterations, peak nodes) of the final run.
xsa_bench::BenchJsonWriter &jsonOut() {
  static xsa_bench::BenchJsonWriter W("BENCH_ablation.json");
  return W;
}

ExprRef xp(const char *Src) {
  std::string Error;
  ExprRef E = parseXPath(Src, Error);
  if (!E) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    std::exit(1);
  }
  return E;
}

/// The Miklau-Suciu containment (Table 2 row 1): UNSAT, so the whole
/// fixpoint runs — a good stress for the relational product.
Formula row1Formula(FormulaFactory &FF) {
  Formula F1 =
      compileXPath(FF, xp("/a[.//b[c/*//d]/b[c//d]/b[c/d]]"), FF.trueF());
  Formula F2 = compileXPath(FF, xp("/a[.//b[c/*//d]/b[c/d]]"), FF.trueF());
  return FF.conj(F1, FF.negate(F2));
}

/// e7 under SMIL (Table 2 row 4): SAT, benefits from early termination.
Formula smilFormula(FormulaFactory &FF) {
  Formula Smil = FF.conj(compileDtd(FF, smil10Dtd()), rootFormula(FF));
  return compileXPath(
      FF, xp("*//switch[ancestor::head]//seq//audio[prec-sibling::video]"),
      Smil);
}

void runWith(const std::string &Name, benchmark::State &State,
             Formula (*Make)(FormulaFactory &), SolverOptions Opts,
             bool ExpectSat) {
  xsa_bench::LatencyProbe Probe(xsa_bench::solveLatencyHistogram());
  size_t Lean = 0, Iters = 0, Peak = 0;
  double WallMs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    FormulaFactory FF;
    Formula Psi = Make(FF);
    BddSolver Solver(FF, Opts);
    SolverResult R = Solver.solve(Psi);
    WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
    if (R.Satisfiable != ExpectSat)
      State.SkipWithError("unexpected verdict under ablation");
    Lean = R.Stats.LeanSize;
    Iters = R.Stats.Iterations;
    Peak = R.Stats.PeakBddNodes;
  }
  State.counters["lean"] = static_cast<double>(Lean);
  State.counters["iters"] = static_cast<double>(Iters);
  State.counters["peak_nodes"] = static_cast<double>(Peak);
  std::vector<std::pair<std::string, double>> Extra = {
      {"lean", static_cast<double>(Lean)},
      {"iters", static_cast<double>(Iters)},
      {"peak_nodes", static_cast<double>(Peak)}};
  for (auto &Q : Probe.quantiles())
    Extra.push_back(std::move(Q));
  jsonOut().record(Name, WallMs, 0, std::move(Extra));
}

SolverOptions baseOpts() {
  SolverOptions O;
  O.ExtractModel = false;
  return O;
}

// --- §7.3: early quantification --------------------------------------------

void BM_Row1_EarlyQuantification(benchmark::State &State) {
  runWith("row1/early-quantification", State, row1Formula, baseOpts(),
          /*ExpectSat=*/false);
}
BENCHMARK(BM_Row1_EarlyQuantification)->Unit(benchmark::kMillisecond);

void BM_Row1_MonolithicDelta(benchmark::State &State) {
  SolverOptions O = baseOpts();
  O.EarlyQuantification = false;
  runWith("row1/monolithic-delta", State, row1Formula, O,
          /*ExpectSat=*/false);
}
BENCHMARK(BM_Row1_MonolithicDelta)->Unit(benchmark::kMillisecond);

// --- §7.4: variable order ---------------------------------------------------

void BM_Row1_OrderBreadthFirst(benchmark::State &State) {
  runWith("row1/order-breadth-first", State, row1Formula, baseOpts(), false);
}
BENCHMARK(BM_Row1_OrderBreadthFirst)->Unit(benchmark::kMillisecond);

void BM_Row1_OrderDepthFirst(benchmark::State &State) {
  SolverOptions O = baseOpts();
  O.Order = LeanOrder::DepthFirst;
  runWith("row1/order-depth-first", State, row1Formula, O, false);
}
BENCHMARK(BM_Row1_OrderDepthFirst)->Unit(benchmark::kMillisecond);

void BM_Row1_OrderReversed(benchmark::State &State) {
  SolverOptions O = baseOpts();
  O.Order = LeanOrder::Reversed;
  runWith("row1/order-reversed", State, row1Formula, O, false);
}
BENCHMARK(BM_Row1_OrderReversed)->Unit(benchmark::kMillisecond);

// --- §6.2: early termination (on a satisfiable problem) ---------------------

void BM_Smil_EarlyTermination(benchmark::State &State) {
  runWith("smil/early-termination", State, smilFormula, baseOpts(),
          /*ExpectSat=*/true);
}
BENCHMARK(BM_Smil_EarlyTermination)->Unit(benchmark::kMillisecond);

void BM_Smil_FullFixpoint(benchmark::State &State) {
  SolverOptions O = baseOpts();
  O.EarlyTermination = false;
  runWith("smil/full-fixpoint", State, smilFormula, O, /*ExpectSat=*/true);
}
BENCHMARK(BM_Smil_FullFixpoint)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
