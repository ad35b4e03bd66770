//===- BddSolver.cpp - Symbolic satisfiability solver (§7) -----------------===//
//
// The solver proper is the staged pipeline of Pipeline.h; this file keeps
// the formula-level preprocessing (plunging, the single-mark constraint)
// and the orchestration of one run: result cache, LeanPlan,
// TransitionSystem, fixpoint-store seed lookup, FixpointLoop, model
// extraction, fixpoint-store publish.
//
//===----------------------------------------------------------------------===//

#include "solver/BddSolver.h"

#include "bdd/Bdd.h"
#include "bdd/Snapshot.h"
#include "logic/CycleFree.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "solver/Pipeline.h"

#include <cassert>
#include <chrono>
#include <utility>

using namespace xsa;

Formula xsa::plungeFormula(FormulaFactory &FF, Formula Psi) {
  Symbol X = FF.freshVar("Plunge");
  return FF.mu(X, FF.disj(FF.disj(Psi, FF.diamond(Program::Child, FF.var(X))),
                          FF.diamond(Program::Sibling, FF.var(X))));
}

Formula xsa::singleMarkFormula(FormulaFactory &FF) {
  // Z: no mark in the binary subtree of the focus.
  // O: exactly one mark in the binary subtree of the focus.
  Symbol Z = FF.freshVar("NoMark");
  Symbol O = FF.freshVar("OneMark");
  auto NoneBelow = [&](Program A) {
    return FF.disj(FF.negDiamondTop(A), FF.diamond(A, FF.var(Z)));
  };
  Formula ZDef = FF.conj(FF.negStart(),
                         FF.conj(NoneBelow(Program::Child),
                                 NoneBelow(Program::Sibling)));
  Formula Here = FF.conj(FF.start(), FF.conj(NoneBelow(Program::Child),
                                             NoneBelow(Program::Sibling)));
  Formula InFirst =
      FF.conj(FF.negStart(), FF.conj(FF.diamond(Program::Child, FF.var(O)),
                                     NoneBelow(Program::Sibling)));
  Formula InSecond =
      FF.conj(FF.negStart(), FF.conj(NoneBelow(Program::Child),
                                     FF.diamond(Program::Sibling, FF.var(O))));
  Formula ODef = FF.disj(Here, FF.disj(InFirst, InSecond));
  return FF.mu({{Z, ZDef}, {O, ODef}}, FF.var(O));
}

uint32_t xsa::solverOptionsKey(const SolverOptions &Opts) {
  uint32_t K = static_cast<uint32_t>(Opts.Order);
  K = (K << 1) | Opts.EarlyQuantification;
  K = (K << 1) | Opts.EnforceSingleMark;
  K = (K << 1) | Opts.ExtractModel;
  K = (K << 1) | Opts.EarlyTermination;
  K = (K << 1) | Opts.RequireSingleRoot;
  // Two zero bits where earlier versions stored a scheduling choice, so
  // persisted cache entries keep their keys.
  return K << 2;
}

uint32_t xsa::fixpointOptionsKey(const SolverOptions &Opts) {
  return Opts.EarlyQuantification;
}

/// Bytes an entry holds besides its key's text and its snapshots: the
/// entry in its list node, the index node, and the make_shared block that
/// owns the sequence, allocator headers included (about 200), rounded up.
static constexpr size_t EntryOverheadBytes = 256;

size_t SharedFixpointStore::cost(std::string_view LeanSig,
                                 const FixpointSeedData &Data) {
  size_t Bytes = EntryOverheadBytes + LeanSig.size();
  for (const BddSnapshot &S : Data.Snapshots)
    Bytes += sizeof(BddSnapshot) + S.nodeCount() * sizeof(BddSnapshot::Node);
  return (Bytes + sizeof(BddSnapshot::Node) - 1) / sizeof(BddSnapshot::Node);
}

bool SharedFixpointStore::improves(const FixpointSeedData *Held,
                                   const FixpointSeedData &Offer) {
  if (Offer.Snapshots.empty())
    return false;
  if (!Held)
    return true;
  return (Offer.Converged && !Held->Converged) ||
         (Offer.Converged == Held->Converged &&
          Offer.Snapshots.size() > Held->Snapshots.size());
}

namespace {

/// Exports a finished run's iterate sequence over lean-member indices.
std::shared_ptr<const FixpointSeedData>
exportSequence(BddManager &M, const std::vector<Bdd> &Snapshots,
               bool Converged) {
  auto Data = std::make_shared<FixpointSeedData>();
  Data->Converged = Converged;
  Data->Snapshots.reserve(Snapshots.size());
  for (const Bdd &T : Snapshots) {
    BddSnapshot S = exportSnapshot(M, T);
    S.mapVars([](unsigned V) { return V / 2; });
    Data->Snapshots.push_back(std::move(S));
  }
  return Data;
}

/// Samples the run's BDD manager statistics into the global gauges and
/// counters at a span boundary (end of solve). Gauges report the last
/// run's state; the counters accumulate across runs so exported hit
/// rates are process-wide.
void sampleBddMetrics(const BddManager &M, Span &S) {
  // Volatile: at --jobs > 1 which duplicate request wins the result-cache
  // race — and therefore how many solver runs these tallies cover — varies
  // with scheduling, so they are excluded from --stable metrics output.
  static Gauge &Live = MetricRegistry::global().gauge(
      "xsa_bdd_live_nodes", "Live BDD nodes of the last solver run",
      /*Volatile=*/true);
  static Gauge &Peak = MetricRegistry::global().gauge(
      "xsa_bdd_peak_nodes", "Peak BDD nodes of the last solver run",
      /*Volatile=*/true);
  static Counter &ULook = MetricRegistry::global().counter(
      "xsa_bdd_unique_lookups_total", "Unique-table (hash-cons) probes",
      /*Volatile=*/true);
  static Counter &UHit = MetricRegistry::global().counter(
      "xsa_bdd_unique_hits_total", "Unique-table probe hits",
      /*Volatile=*/true);
  static Counter &OLook = MetricRegistry::global().counter(
      "xsa_bdd_opcache_lookups_total", "BDD operation-cache probes",
      /*Volatile=*/true);
  static Counter &OHit = MetricRegistry::global().counter(
      "xsa_bdd_opcache_hits_total", "BDD operation-cache hits",
      /*Volatile=*/true);
  Live.set(static_cast<double>(M.numNodes()));
  Peak.set(static_cast<double>(M.peakNodes()));
  ULook.add(M.uniqueLookups());
  UHit.add(M.uniqueHits());
  OLook.add(M.opCacheLookups());
  OHit.add(M.opCacheHits());
  if (S.active()) {
    S.arg("bdd_peak_nodes", static_cast<double>(M.peakNodes()));
    S.arg("bdd_unique_hit_rate",
          M.uniqueLookups()
              ? static_cast<double>(M.uniqueHits()) / M.uniqueLookups()
              : 0);
    S.arg("bdd_opcache_hit_rate",
          M.opCacheLookups()
              ? static_cast<double>(M.opCacheHits()) / M.opCacheLookups()
              : 0);
  }
}

} // namespace

SolverResult BddSolver::solve(Formula Psi) {
  auto Start = std::chrono::steady_clock::now();
  assert(FF.isClosed(Psi) && "solver input must be closed");
  assert(isCycleFree(Psi) && "solver input must be cycle free");
  // Shared, so a memo flush before the publish below cannot free it.
  std::shared_ptr<const std::string> Key;
  if (Opts.Cache) {
    Key = FF.canonicalText(Psi);
    if (std::shared_ptr<const SolverResult> Hit =
            Opts.Cache->lookup(*Key, solverOptionsKey(Opts))) {
      SolverResult R = *Hit;
      R.FromCache = true;
      return R;
    }
  }
  Span SolveSpan("solver.solve");
  Formula Phi = plungeFormula(FF, Psi);
  if (Opts.EnforceSingleMark)
    Phi = FF.conj(singleMarkFormula(FF), Phi);

  // Stage 1: lean, variable order, sharing key.
  Span LeanSpan("solver.lean");
  LeanPlan Plan(FF, Phi, Opts.Order);
  LeanSpan.arg("bits", static_cast<double>(Plan.numBits()));
  LeanSpan.end();

  // Stage 2: the transition system over this run's manager.
  Span ChiSpan("solver.chi");
  BddManager M;
  TransitionSystem TS(FF, Plan, Opts, M);
  ChiSpan.end();

  // Seed lookup: a stored prefix of this lean's iterate sequence. The
  // shared_ptr pins the entry for the whole run; the loop imports its
  // snapshots lazily as it replays them.
  uint32_t FpKey = fixpointOptionsKey(Opts);
  std::shared_ptr<const FixpointSeedData> Seed;
  if (Opts.Fixpoints)
    Seed = Opts.Fixpoints->lookup(Plan.signature(), FpKey);

  const Lean &L = Plan.lean();
  Bdd RootCond = (!TS.x(L.diamTopIndex(Program::ParentInv))) &
                 (!TS.x(L.diamTopIndex(Program::SiblingInv)));
  if (Opts.RequireSingleRoot)
    RootCond &= !TS.x(L.diamTopIndex(Program::Sibling));
  Bdd FinalCond = RootCond & TS.statusBdd(Phi, /*YCopy=*/false);

  // Stage 3: the Upd iteration, replaying the seed first.
  Span FixSpan("solver.fixpoint");
  FixpointLoop Loop(TS);
  FixpointLoop::Outcome Out = Loop.run(FinalCond, Seed.get());
  FixSpan.arg("iterations", static_cast<double>(Out.Iterations));
  FixSpan.arg("replayed", static_cast<double>(Out.Replayed));
  FixSpan.end();

  SolverResult Result;
  Result.Satisfiable = Out.Sat;
  Result.Stats.LeanSize = Plan.numBits();
  Result.Stats.Iterations = Out.Iterations;
  Result.Stats.IterationsReplayed = Out.Replayed;
  Result.Stats.PeakBddNodes = M.peakNodes();

  // Publish when this run extended what the store had (a run fully
  // served by its seed has nothing new to offer).
  if (Opts.Fixpoints && Out.Iterations > Out.Replayed) {
    Span PubSpan("solver.publish");
    Opts.Fixpoints->publish(
        Plan.signature(), FpKey,
        exportSequence(M, Loop.snapshots(), Out.Converged));
  }

  if (Out.Sat && Opts.ExtractModel) {
    Span ExtractSpan("solver.extract");
    ModelExtractor Extractor(TS, Loop.snapshots());
    Result.Model = Extractor.extract(Out.Final);
  }
  Result.Stats.TimeMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count();
  static Histogram &SolveLatency = MetricRegistry::global().histogram(
      "xsa_solve_latency_ms", "Full solver-run latency (cache misses only)");
  SolveLatency.observe(Result.Stats.TimeMs);
  SolveSpan.arg("sat", Out.Sat ? 1 : 0);
  sampleBddMetrics(M, SolveSpan);
  if (Opts.StatsHook)
    Opts.StatsHook(Result.Stats);
  if (Opts.Cache)
    Opts.Cache->publish(*Key, solverOptionsKey(Opts),
                        std::make_shared<const SolverResult>(Result));
  return Result;
}
