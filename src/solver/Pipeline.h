//===- Pipeline.h - Staged symbolic solver pipeline --------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic satisfiability run of §7, split into explicit stages so
/// each can be reasoned about — and shared — independently:
///
///  * LeanPlan (stage 1): the Lean, the interleaved unprimed/primed
///    variable order, and the *canonical lean signature* — the ordered
///    canonical texts of the lean members, printed straight from the
///    members, with no formula built. No BDD work. The signature is the
///    cross-request sharing key: every quantity the later stages compute
///    up to the final condition is a function of the lean alone.
///
///  * TransitionSystem (stage 2): the status translation χ, the type
///    constraint χTypes, and the ∆a compatibility clauses (§7.3) over a
///    concrete BddManager. Clause construction is lazy: a run whose
///    fixpoint is fully replayed from a seed never builds ∆a at all.
///
///  * FixpointLoop (stage 3): the two-line Upd iteration of §7.1 — one
///    full Upd image per round — with seed/snapshot hooks. A seed is a
///    prefix of the lean's canonical iterate sequence T^1, T^2, ...; the
///    loop replays it — checking the final condition against each
///    replayed iterate exactly as a cold run would — before computing
///    further iterates. Replay is output-invisible: snapshots, verdict,
///    model and iteration count are identical to a cold run (DESIGN.md
///    proves why), only the expensive relational products are skipped.
///
///  * ModelExtractor (§7.2): top-down model reconstruction over the
///    retained snapshots.
///
/// BddSolver::solve orchestrates the stages and the fixpoint store
/// (SolverOptions::Fixpoints).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SOLVER_PIPELINE_H
#define XSA_SOLVER_PIPELINE_H

#include "bdd/Bdd.h"
#include "solver/BddSolver.h"
#include "tree/Document.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace xsa {

/// Stage 1: lean + variable order + canonical lean signature.
class LeanPlan {
public:
  LeanPlan(FormulaFactory &FF, Formula Phi, LeanOrder Order);

  const Lean &lean() const { return L; }
  unsigned numBits() const { return NumBits; }
  unsigned xVar(unsigned I) const { return 2 * I; }
  unsigned yVar(unsigned I) const { return 2 * I + 1; }
  const std::vector<unsigned> &xToY() const { return XToY; }

  /// The canonical lean signature (Lean::signature), computed on first
  /// use, in a `solver.signature` span — only runs that talk to a
  /// fixpoint store pay for it.
  const std::string &signature() const;

private:
  Lean L;
  unsigned NumBits;
  std::vector<unsigned> XToY;
  mutable std::string Sig;
};

/// Stage 2: χ / χTypes / ∆a over a concrete manager.
class TransitionSystem {
public:
  TransitionSystem(FormulaFactory &FF, const LeanPlan &Plan,
                   const SolverOptions &Opts, BddManager &M);

  FormulaFactory &factory() { return FF; }
  const LeanPlan &plan() const { return Plan; }
  const SolverOptions &options() const { return Opts; }
  BddManager &manager() { return M; }

  Bdd x(unsigned I) { return M.var(Plan.xVar(I)); }
  Bdd y(unsigned I) { return M.var(Plan.yVar(I)); }
  Bdd shiftToY(const Bdd &F) { return M.remapVars(F, Plan.xToY()); }

  /// The truth-status BDD of \p F over the unprimed (x) or primed (y)
  /// copy (Fig. 15 as boolean functions; memoized).
  Bdd statusBdd(Formula F, bool YCopy);

  /// χTypes: the Hintikka conditions of §6.1 (memoized).
  Bdd typesBdd();

  /// χWita: the witness condition for program \p A against the primed
  /// iterate \p TY. Builds the ∆a clauses on first use.
  Bdd witness(Program A, const Bdd &TY);

private:
  void ensureDelta();
  void buildDeltaClauses(Program A);
  Bdd witnessEarlyQuantified(Program A, const Bdd &TY);
  Bdd witnessMonolithic(Program A, const Bdd &TY);

  FormulaFactory &FF;
  const LeanPlan &Plan;
  const SolverOptions &Opts;
  BddManager &M;

  std::unordered_map<Formula, Bdd> StatusMemo[2]; // [0]=x copy, [1]=y copy
  Bdd TypesMemo;

  // ∆a as equivalence clauses (index 0: program 1, index 1: program 2).
  struct Clause {
    Bdd R;                       ///< the clause over x and y variables
    std::vector<unsigned> YDeps; ///< primed variables it depends on
  };
  std::vector<Clause> Delta[2];
  Bdd MonolithicDelta[2];
  bool DeltaBuilt = false;
};

/// Stage 3: the §7.1 Upd iteration with seed/snapshot hooks.
class FixpointLoop {
public:
  explicit FixpointLoop(TransitionSystem &TS) : TS(TS) {}

  struct Outcome {
    bool Sat = false;
    /// TNext ∧ FinalCond of the terminating round (zero when unsat).
    Bdd Final;
    /// Upd images taken — replay included, so this is the count a cold
    /// run reports.
    size_t Iterations = 0;
    /// Of Iterations, how many came from the seed.
    size_t Replayed = 0;
    /// True when the loop ended by reaching Upd's fixpoint (as opposed
    /// to an early satisfiable exit).
    bool Converged = false;
  };

  /// Runs the iteration. \p Seed (may be null) is a stored iterate
  /// sequence of the same lean, one node table shared by its iterates;
  /// replaying iterate i builds the table's nodes in TS's manager up to
  /// i's prefix end and wraps only i's root — lazily, since an
  /// early-terminating run may consume one iterate of a long sequence.
  /// Replayed iterates stand in for computed ones under the exact cold
  /// control flow, and are held in snapshots() for the whole run, which
  /// keeps the table's built nodes alive across a GC between rounds.
  /// Early termination follows TS.options().EarlyTermination and is
  /// checked after every round.
  Outcome run(const Bdd &FinalCond, const FixpointSeedData *Seed);

  /// T^1, T^2, ... as retained for model reconstruction; identical to a
  /// cold run's sequence whether or not a seed was replayed.
  const std::vector<Bdd> &snapshots() const { return Snapshots; }

private:
  TransitionSystem &TS;
  std::vector<Bdd> Snapshots;
};

/// §7.2: top-down reconstruction of a minimal satisfying tree.
class ModelExtractor {
public:
  ModelExtractor(TransitionSystem &TS, const std::vector<Bdd> &Snapshots)
      : TS(TS), Snapshots(Snapshots) {}

  /// \p Final must be a nonempty set of root types. Returns the rebuilt
  /// document with the start mark set.
  Document extract(const Bdd &Final);

private:
  struct ModelNode;
  DynBitset assignmentToType(const std::vector<bool> &Values, bool YCopy);
  std::unique_ptr<ModelNode> rebuildNode(const DynBitset &T, int MaxSnapshot);
  Document modelToDocument(const ModelNode &Root);

  TransitionSystem &TS;
  const std::vector<Bdd> &Snapshots;
  std::vector<Bdd> SnapshotsY; ///< lazily computed y-copies
};

} // namespace xsa

#endif // XSA_SOLVER_PIPELINE_H
