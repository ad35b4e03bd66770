//===- bench_bdd.cpp - BDD substrate microbenchmarks -----------------------===//
//
// Not a paper table: exercises the from-scratch BDD package (§7's
// substrate) on standard workloads so regressions in the engine are
// visible independently of the solver — n-queens (construction-heavy),
// a transition-relation image computation (andExists, the §7.3 kernel),
// and variable renaming (the x→y shift used every fixpoint iteration).
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"

#include <benchmark/benchmark.h>

using namespace xsa;

namespace {

/// Builds the n-queens constraint function; returns the manager's peak
/// node count.
size_t queens(unsigned N) {
  BddManager M(N * N);
  auto V = [&](unsigned R, unsigned C) { return M.var(R * N + C); };
  Bdd All = M.one();
  for (unsigned R = 0; R < N; ++R) {
    Bdd RowHasQueen = M.zero();
    for (unsigned C = 0; C < N; ++C)
      RowHasQueen |= V(R, C);
    All &= RowHasQueen;
  }
  for (unsigned R = 0; R < N; ++R)
    for (unsigned C = 0; C < N; ++C) {
      Bdd Q = V(R, C);
      for (unsigned R2 = 0; R2 < N; ++R2)
        if (R2 != R)
          All &= !(Q & V(R2, C));
      for (unsigned C2 = 0; C2 < N; ++C2)
        if (C2 != C)
          All &= !(Q & V(R, C2));
      for (int D = -int(N); D <= int(N); ++D) {
        if (D == 0)
          continue;
        int R2 = int(R) + D, C2 = int(C) + D;
        if (R2 >= 0 && R2 < int(N) && C2 >= 0 && C2 < int(N))
          All &= !(Q & V(R2, C2));
        C2 = int(C) - D;
        if (R2 >= 0 && R2 < int(N) && C2 >= 0 && C2 < int(N))
          All &= !(Q & V(R2, C2));
      }
    }
  return M.peakNodes();
}

void BM_Queens(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  size_t PeakNodes = 0;
  for (auto _ : State)
    PeakNodes = queens(N);
  State.counters["peak_nodes"] = static_cast<double>(PeakNodes);
}
BENCHMARK(BM_Queens)->DenseRange(4, 7)->Unit(benchmark::kMillisecond);

/// Symbolic reachability of a w-bit counter: image computation with
/// andExists over an interleaved transition relation — the same kernel
/// the solver uses for Wita (§7.3).
void BM_CounterReachability(benchmark::State &State) {
  unsigned W = static_cast<unsigned>(State.range(0));
  size_t Steps = 0;
  for (auto _ : State) {
    BddManager M(2 * W);
    auto X = [&](unsigned I) { return M.var(2 * I); };
    auto Y = [&](unsigned I) { return M.var(2 * I + 1); };
    // y = x + 1 (ripple carry).
    Bdd Trans = M.one();
    Bdd Carry = M.one(); // increment injects a carry at bit 0
    for (unsigned I = 0; I < W; ++I) {
      Trans &= Y(I).iff(X(I) ^ Carry);
      Carry = X(I) & Carry;
    }
    std::vector<unsigned> XVars;
    for (unsigned I = 0; I < W; ++I)
      XVars.push_back(2 * I);
    Bdd XCube = M.cube(XVars);
    std::vector<unsigned> Shift(2 * W);
    for (unsigned I = 0; I < W; ++I) {
      Shift[2 * I + 1] = 2 * I; // y -> x
      Shift[2 * I] = 2 * I;
    }
    // Start at 0, iterate image until fixpoint.
    Bdd Reached = M.one();
    for (unsigned I = 0; I < W; ++I)
      Reached &= !X(I);
    Steps = 0;
    for (;;) {
      Bdd ImageY = M.andExists(Reached, Trans, XCube);
      // Rename y to x: the interleaving makes the map order-preserving
      // only downward (2i+1 -> 2i), which remapVars supports.
      Bdd Image = M.remapVars(ImageY, Shift);
      Bdd Next = Reached | Image;
      ++Steps;
      if (Next == Reached)
        break;
      Reached = Next;
    }
    benchmark::DoNotOptimize(Reached);
  }
  State.counters["steps"] = static_cast<double>(Steps);
}
BENCHMARK(BM_CounterReachability)
    ->DenseRange(4, 10, 2)
    ->Unit(benchmark::kMillisecond);

void BM_RemapShift(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  BddManager M(2 * N);
  // A dense function over the even variables.
  Bdd F = M.zero();
  for (unsigned I = 0; I + 1 < N; ++I)
    F |= M.var(2 * I) & !M.var(2 * (I + 1));
  std::vector<unsigned> Map(2 * N);
  for (unsigned I = 0; I < 2 * N; ++I)
    Map[I] = I | 1; // even -> odd neighbor
  for (auto _ : State)
    benchmark::DoNotOptimize(M.remapVars(F, Map));
}
BENCHMARK(BM_RemapShift)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
