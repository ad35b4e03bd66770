//===- Pipeline.cpp - Staged symbolic solver pipeline ----------------------===//

#include "solver/Pipeline.h"

#include "bdd/Snapshot.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace xsa;

//===----------------------------------------------------------------------===//
// LeanPlan
//===----------------------------------------------------------------------===//

LeanPlan::LeanPlan(FormulaFactory &FF, Formula Phi, LeanOrder Order)
    : L(Lean::compute(FF, Phi, Order)),
      NumBits(static_cast<unsigned>(L.size())) {
  XToY.resize(2 * NumBits);
  for (unsigned I = 0; I < NumBits; ++I)
    XToY[2 * I] = 2 * I + 1;
}

const std::string &LeanPlan::signature() const {
  if (Sig.empty()) {
    Span S("solver.signature");
    Sig = L.signature();
  }
  return Sig;
}

//===----------------------------------------------------------------------===//
// TransitionSystem
//===----------------------------------------------------------------------===//

TransitionSystem::TransitionSystem(FormulaFactory &FF, const LeanPlan &Plan,
                                   const SolverOptions &Opts, BddManager &M)
    : FF(FF), Plan(Plan), Opts(Opts), M(M) {
  M.ensureVars(2 * Plan.numBits());
}

Bdd TransitionSystem::statusBdd(Formula F, bool YCopy) {
  auto &Memo = StatusMemo[YCopy];
  auto It = Memo.find(F);
  if (It != Memo.end())
    return It->second;
  auto Var = [&](unsigned I) { return YCopy ? y(I) : x(I); };
  const Lean &L = Plan.lean();
  Bdd R;
  switch (F->kind()) {
  case FormulaKind::True:
    R = M.one();
    break;
  case FormulaKind::False:
    R = M.zero();
    break;
  case FormulaKind::Prop:
    R = Var(L.propIndex(F->sym()));
    break;
  case FormulaKind::NegProp:
    R = !Var(L.propIndex(F->sym()));
    break;
  case FormulaKind::Start:
    R = Var(L.startIndex());
    break;
  case FormulaKind::NegStart:
    R = !Var(L.startIndex());
    break;
  case FormulaKind::Var:
    assert(false && "status of an open formula");
    R = M.zero();
    break;
  case FormulaKind::And:
    R = statusBdd(F->lhs(), YCopy) & statusBdd(F->rhs(), YCopy);
    break;
  case FormulaKind::Or:
    R = statusBdd(F->lhs(), YCopy) | statusBdd(F->rhs(), YCopy);
    break;
  case FormulaKind::Exist: {
    unsigned I = L.existIndex(F);
    assert(I != ~0u && "modal formula outside the lean");
    R = Var(I);
    break;
  }
  case FormulaKind::NegExistTop:
    R = !Var(L.diamTopIndex(F->program()));
    break;
  case FormulaKind::Mu:
    R = statusBdd(FF.unfold(F), YCopy);
    break;
  }
  Memo.emplace(F, R);
  return R;
}

Bdd TransitionSystem::typesBdd() {
  if (TypesMemo.valid())
    return TypesMemo;
  const Lean &L = Plan.lean();
  unsigned NumBits = Plan.numBits();
  Bdd T = M.one();
  // Modal consistency: ⟨a⟩φ ⇒ ⟨a⟩⊤.
  for (unsigned I = 0; I < NumBits; ++I) {
    Formula F = L.members()[I];
    if (!F->is(FormulaKind::Exist) || F->lhs() == FF.trueF())
      continue;
    T &= x(I).implies(x(L.diamTopIndex(F->program())));
  }
  // Not both a first child and a second child.
  T &= !(x(L.diamTopIndex(Program::ParentInv)) &
         x(L.diamTopIndex(Program::SiblingInv)));
  // Exactly one atomic proposition.
  Bdd None = M.one(), One = M.zero();
  for (Symbol S : L.props()) {
    Bdd P = x(L.propIndex(S));
    One = (One & !P) | (None & P);
    None &= !P;
  }
  T &= One;
  TypesMemo = T;
  return T;
}

void TransitionSystem::ensureDelta() {
  if (DeltaBuilt)
    return;
  DeltaBuilt = true;
  Span DeltaSpan("solver.delta");
  buildDeltaClauses(Program::Child);
  buildDeltaClauses(Program::Sibling);
  if (DeltaSpan.active())
    DeltaSpan.arg("clauses",
                  static_cast<double>(Delta[0].size() + Delta[1].size()));
}

void TransitionSystem::buildDeltaClauses(Program A) {
  int Idx = A == Program::Child ? 0 : 1;
  const Lean &L = Plan.lean();
  Program ABar = converse(A);
  for (unsigned I = 0; I < Plan.numBits(); ++I) {
    Formula F = L.members()[I];
    if (!F->is(FormulaKind::Exist))
      continue;
    Bdd R;
    if (F->program() == A)
      R = x(I).iff(statusBdd(F->lhs(), /*YCopy=*/true));
    else if (F->program() == ABar)
      R = y(I).iff(statusBdd(F->lhs(), /*YCopy=*/false));
    else
      continue;
    std::vector<unsigned> YDeps;
    for (unsigned V : M.support(R))
      if (V & 1)
        YDeps.push_back(V);
    Delta[Idx].push_back({std::move(R), std::move(YDeps)});
  }
  if (!Opts.EarlyQuantification) {
    Bdd D = M.one();
    for (const Clause &C : Delta[Idx])
      D &= C.R;
    MonolithicDelta[Idx] = D;
  }
}

Bdd TransitionSystem::witness(Program A, const Bdd &TY) {
  ensureDelta();
  Bdd H = Opts.EarlyQuantification ? witnessEarlyQuantified(A, TY)
                                   : witnessMonolithic(A, TY);
  // isparent_a(x) → ∃y [...]: nodes without an a-child need no witness.
  return (!x(Plan.lean().diamTopIndex(A))) | H;
}

Bdd TransitionSystem::witnessMonolithic(Program A, const Bdd &TY) {
  int Idx = A == Program::Child ? 0 : 1;
  std::vector<unsigned> AllY;
  for (unsigned I = 0; I < Plan.numBits(); ++I)
    AllY.push_back(Plan.yVar(I));
  Bdd H = TY & y(Plan.lean().diamTopIndex(converse(A)));
  return M.andExists(H, MonolithicDelta[Idx], M.cube(AllY));
}

Bdd TransitionSystem::witnessEarlyQuantified(Program A, const Bdd &TY) {
  // §7.3: order the clauses R_i so that primed variables can be
  // quantified out as early as possible, choosing at each step the
  // variable of minimum cost (sum of |D_i| over the clauses containing
  // it), then fold with relational products.
  int Idx = A == Program::Child ? 0 : 1;
  const std::vector<Clause> &Clauses = Delta[Idx];
  std::vector<bool> Used(Clauses.size(), false);
  std::vector<size_t> Order;
  for (;;) {
    // Cost of each not-yet-consumed variable.
    std::unordered_map<unsigned, size_t> Cost;
    for (size_t I = 0; I < Clauses.size(); ++I) {
      if (Used[I])
        continue;
      for (unsigned V : Clauses[I].YDeps)
        Cost[V] += Clauses[I].YDeps.size();
    }
    if (Cost.empty()) {
      // Remaining clauses have no primed variables: append them.
      for (size_t I = 0; I < Clauses.size(); ++I)
        if (!Used[I])
          Order.push_back(I);
      break;
    }
    unsigned Best = Cost.begin()->first;
    for (const auto &[V, C] : Cost)
      if (C < Cost[Best] || (C == Cost[Best] && V < Best))
        Best = V;
    for (size_t I = 0; I < Clauses.size(); ++I)
      if (!Used[I] &&
          std::find(Clauses[I].YDeps.begin(), Clauses[I].YDeps.end(), Best) !=
              Clauses[I].YDeps.end()) {
        Used[I] = true;
        Order.push_back(I);
      }
  }
  // E_p = D_ρ(p) \ ∪_{j>p} D_ρ(j).
  std::vector<std::vector<unsigned>> Elim(Order.size());
  std::unordered_map<unsigned, bool> SeenLater;
  for (size_t P = Order.size(); P-- > 0;) {
    for (unsigned V : Clauses[Order[P]].YDeps)
      if (!SeenLater.count(V))
        Elim[P].push_back(V);
    for (unsigned V : Clauses[Order[P]].YDeps)
      SeenLater.emplace(V, true);
  }
  Bdd H = TY & y(Plan.lean().diamTopIndex(converse(A)));
  for (size_t P = 0; P < Order.size(); ++P) {
    const Clause &C = Clauses[Order[P]];
    if (Elim[P].empty())
      H &= C.R;
    else
      H = M.andExists(H, C.R, M.cube(Elim[P]));
  }
  // Quantify primed variables that appear in no clause (e.g. lean bits
  // constrained only by χT).
  std::vector<unsigned> Rest;
  for (unsigned V : M.support(H))
    if (V & 1)
      Rest.push_back(V);
  if (!Rest.empty())
    H = M.exists(H, M.cube(Rest));
  return H;
}

//===----------------------------------------------------------------------===//
// FixpointLoop
//===----------------------------------------------------------------------===//

FixpointLoop::Outcome FixpointLoop::run(const Bdd &FinalCond,
                                        const FixpointSeedData *Seed) {
  BddManager &M = TS.manager();
  bool EarlyTermination = TS.options().EarlyTermination;
  Outcome Out;
  Out.Final = M.zero();
  Bdd T = M.zero();
  size_t SeedLen = Seed ? Seed->Iterates.numRoots() : 0;
  // Stored variables are lean-member indices; the manager's unprimed
  // copy of bit I is variable 2I, remapped on the fly so the shared
  // table is never cloned. The importer's buffer of raw node ids lives
  // for the whole run, and its ids stay valid across a GC between
  // rounds: replaying T^k built entries that some T^j, j <= k, reaches,
  // and Snapshots holds every replayed T^j until the run ends
  // (bdd/Snapshot.h, DESIGN.md fact 3).
  std::optional<SnapshotImporter> Import;
  if (SeedLen)
    Import.emplace(M, Seed->Iterates, [](unsigned V) { return 2 * V; });
  // §7.1 verbatim: one full Upd image per round.
  for (;;) {
    // While the seed lasts, the stored iterate stands in for the computed
    // one. By lean-determinism of Upd this is the value the image would
    // have produced, so everything downstream — the early-termination
    // check, the convergence test, the snapshot record — behaves exactly
    // as in a cold run. Imported lazily: an early exit on replayed
    // iterate i never builds the table past i's prefix.
    bool Replay = Out.Iterations < SeedLen;
    Span RoundSpan("fixpoint.round");
    if (RoundSpan.active()) {
      RoundSpan.arg("round", static_cast<double>(Out.Iterations));
      RoundSpan.arg("replayed", Replay ? 1 : 0);
    }
    Bdd TNext;
    if (Replay) {
      size_t Built = Import->built();
      TNext = Import->root(Out.Iterations);
      if (RoundSpan.active())
        RoundSpan.arg("imported",
                      static_cast<double>(Import->built() - Built));
      ++Out.Replayed;
    } else {
      Bdd TY = TS.shiftToY(T);
      TNext = T | (TS.typesBdd() & TS.witness(Program::Child, TY) &
                   TS.witness(Program::Sibling, TY));
    }
    ++Out.Iterations;
    Snapshots.push_back(TNext);
    if (EarlyTermination) {
      Out.Final = TNext & FinalCond;
      if (!Out.Final.isZero()) {
        Out.Sat = true;
        break;
      }
    }
    if (TNext == T) {
      Out.Converged = true;
      if (!EarlyTermination) {
        Out.Final = TNext & FinalCond;
        Out.Sat = !Out.Final.isZero();
      }
      break;
    }
    T = TNext;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// ModelExtractor
//===----------------------------------------------------------------------===//

/// A single binary tree node of a reconstructed model.
struct ModelExtractor::ModelNode {
  Symbol Label = 0;
  bool Marked = false;
  std::unique_ptr<ModelNode> Child1, Child2;
};

DynBitset ModelExtractor::assignmentToType(const std::vector<bool> &Values,
                                           bool YCopy) {
  const LeanPlan &Plan = TS.plan();
  DynBitset T(Plan.numBits());
  for (unsigned I = 0; I < Plan.numBits(); ++I)
    if (Values[YCopy ? Plan.yVar(I) : Plan.xVar(I)])
      T.set(I);
  return T;
}

Document ModelExtractor::extract(const Bdd &Final) {
  // §7.2: pick a root type, then search successors in the earliest
  // intermediate sets first to minimize model depth.
  std::vector<bool> Values;
  bool Ok = TS.manager().satOne(Final, Values);
  assert(Ok && "final set nonempty but no assignment");
  (void)Ok;
  DynBitset RootType = assignmentToType(Values, /*YCopy=*/false);
  std::unique_ptr<ModelNode> Root =
      rebuildNode(RootType, static_cast<int>(Snapshots.size()) - 1);
  return modelToDocument(*Root);
}

std::unique_ptr<ModelExtractor::ModelNode>
ModelExtractor::rebuildNode(const DynBitset &T, int MaxSnapshot) {
  const Lean &L = TS.plan().lean();
  unsigned NumBits = TS.plan().numBits();
  BddManager &M = TS.manager();
  auto Node = std::make_unique<ModelNode>();
  for (Symbol S : L.props())
    if (T.test(L.propIndex(S))) {
      Node->Label = S;
      break;
    }
  Node->Marked = T.test(L.startIndex());

  for (Program A : {Program::Child, Program::Sibling}) {
    if (!T.test(L.diamTopIndex(A)))
      continue;
    // Constraints on the a-child: ∆a with the parent fixed to T, kept as a
    // list. Their conjunction is the monolithic ∆a that §7.3's
    // partitioning avoids building, so each snapshot meets them one at a
    // time instead, stopping at zero. The result is the same function, so
    // satOne picks the same child.
    Program ABar = converse(A);
    std::vector<Bdd> Constraints;
    for (unsigned I = 0; I < NumBits; ++I) {
      Formula F = L.members()[I];
      if (!F->is(FormulaKind::Exist))
        continue;
      if (F->program() == A) {
        Bdd S = TS.statusBdd(F->lhs(), /*YCopy=*/true);
        Constraints.push_back(T.test(I) ? S : !S);
      } else if (F->program() == ABar) {
        Constraints.push_back(L.status(TS.factory(), F->lhs(), T) ? TS.y(I)
                                                                  : !TS.y(I));
      }
    }
    // Earliest snapshot containing a compatible child.
    Bdd ConverseTop = TS.y(L.diamTopIndex(ABar));
    std::unique_ptr<ModelNode> Child;
    for (int J = 0; J < MaxSnapshot; ++J) {
      if (SnapshotsY.size() <= static_cast<size_t>(J))
        SnapshotsY.push_back(TS.shiftToY(Snapshots[J]));
      Bdd D = SnapshotsY[J] & ConverseTop;
      for (size_t K = 0; K < Constraints.size() && !D.isZero(); ++K)
        D &= Constraints[K];
      if (D.isZero())
        continue;
      std::vector<bool> Values;
      M.satOne(D, Values);
      DynBitset ChildType = assignmentToType(Values, /*YCopy=*/true);
      Child = rebuildNode(ChildType, J);
      break;
    }
    assert(Child && "missing witness during model reconstruction");
    if (A == Program::Child)
      Node->Child1 = std::move(Child);
    else
      Node->Child2 = std::move(Child);
  }
  return Node;
}

Document ModelExtractor::modelToDocument(const ModelNode &Root) {
  Document Doc;
  Symbol Other = TS.plan().lean().otherProp();
  // Labels σx stand for "any name not in the formula": print as "_any".
  Symbol AnyName = internSymbol("_any");
  auto Emit = [&](auto &&Self, const ModelNode *N, NodeId Parent) -> void {
    for (const ModelNode *Cur = N; Cur; Cur = Cur->Child2.get()) {
      NodeId Id =
          Doc.addNode(Cur->Label == Other ? AnyName : Cur->Label, Parent);
      if (Cur->Marked)
        Doc.setMark(Id);
      if (Cur->Child1)
        Self(Self, Cur->Child1.get(), Id);
    }
  };
  Emit(Emit, &Root, InvalidNodeId);
  return Doc;
}
