//===- Lean.cpp - Fisher-Ladner closure and the Lean (§6.1) ----------------===//

#include "logic/Lean.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace xsa;

Lean Lean::compute(FormulaFactory &FF, Formula Psi, LeanOrder Order) {
  // Traverse the expanded formula graph collecting, in encounter order,
  // the atomic propositions and the modal subformulas ⟨a⟩φ of cl(ψ).
  // Fixpoints are stepped through via unfold (their one-step unwinding is
  // in the closure); hash consing plus the factory's unfold memo keep the
  // set of visited nodes finite for cycle-free (guarded) formulas.
  // Lean members (propositions and modal subformulas alike) are kept in
  // encounter order: §7.4's locality heuristic — an element name stays
  // next to the modal obligations that mention it, which is what keeps
  // the type-formula BDDs small.
  std::vector<Formula> Mixed; // props (as Prop nodes) and ⟨a⟩φ members
  std::unordered_map<Formula, bool> Visited;
  std::unordered_map<Symbol, bool> PropSeen;
  std::unordered_map<Formula, bool> ExistSeen;

  std::deque<Formula> Queue;
  Queue.push_back(Psi);
  bool Bfs = Order != LeanOrder::DepthFirst;
  while (!Queue.empty()) {
    Formula F;
    if (Bfs) {
      F = Queue.front();
      Queue.pop_front();
    } else {
      F = Queue.back();
      Queue.pop_back();
    }
    if (Visited.count(F))
      continue;
    Visited.emplace(F, true);
    switch (F->kind()) {
    case FormulaKind::True:
    case FormulaKind::False:
    case FormulaKind::Start:
    case FormulaKind::NegStart:
    case FormulaKind::NegExistTop:
      break;
    case FormulaKind::Prop:
    case FormulaKind::NegProp:
      if (!PropSeen.count(F->sym())) {
        PropSeen.emplace(F->sym(), true);
        Mixed.push_back(FF.prop(F->sym()));
      }
      break;
    case FormulaKind::Var:
      assert(false && "lean of a formula with free variables");
      break;
    case FormulaKind::And:
    case FormulaKind::Or:
      Queue.push_back(F->lhs());
      Queue.push_back(F->rhs());
      break;
    case FormulaKind::Exist:
      if (F->lhs() != FF.trueF() && !ExistSeen.count(F)) {
        ExistSeen.emplace(F, true);
        Mixed.push_back(F);
      }
      Queue.push_back(F->lhs());
      break;
    case FormulaKind::Mu:
      Queue.push_back(FF.unfold(F));
      break;
    }
  }

  Lean L;
  auto Add = [&](Formula F) {
    L.Members.push_back(F);
    return static_cast<unsigned>(L.Members.size() - 1);
  };

  // Fixed topological members first: ⟨1⟩⊤ ⟨2⟩⊤ ⟨1̄⟩⊤ ⟨2̄⟩⊤, then s.
  for (int A = 0; A < 4; ++A)
    L.DiamTopIdx[A] =
        Add(FF.diamond(static_cast<Program>(A), FF.trueF()));
  L.StartIdx = Add(FF.start());
  // Then every other member in traversal order.
  if (Order == LeanOrder::Reversed)
    std::reverse(Mixed.begin(), Mixed.end());
  L.OtherSym = internSymbol("#other");
  for (Formula F : Mixed) {
    if (F->is(FormulaKind::Prop)) {
      assert(F->sym() != L.OtherSym && "reserved label #other in a formula");
      L.PropIdx.emplace(F->sym(), Add(F));
      L.PropSyms.push_back(F->sym());
    } else {
      L.ExistIdx.emplace(F, Add(F));
    }
  }
  // The fresh "other name" proposition σx closes the alphabet.
  L.PropIdx.emplace(L.OtherSym, Add(FF.prop(L.OtherSym)));
  L.PropSyms.push_back(L.OtherSym);
  // ⟨a⟩⊤ participate in the exist index too.
  for (int A = 0; A < 4; ++A)
    L.ExistIdx.emplace(L.Members[L.DiamTopIdx[A]], L.DiamTopIdx[A]);
  return L;
}

bool Lean::isValidType(const DynBitset &T) const {
  assert(T.size() == Members.size());
  // Modal consistency: ⟨a⟩φ ∈ t ⇒ ⟨a⟩⊤ ∈ t.
  for (unsigned I = 0; I < Members.size(); ++I) {
    if (!Members[I]->is(FormulaKind::Exist) || !T.test(I))
      continue;
    if (!T.test(DiamTopIdx[static_cast<int>(Members[I]->program())]))
      return false;
  }
  // A node cannot be both a first child and a second child.
  if (T.test(diamTopIndex(Program::ParentInv)) &&
      T.test(diamTopIndex(Program::SiblingInv)))
    return false;
  // Exactly one atomic proposition.
  unsigned NumProps = 0;
  for (Symbol S : PropSyms)
    NumProps += T.test(PropIdx.at(S));
  return NumProps == 1;
}

bool Lean::status(FormulaFactory &FF, Formula F, const DynBitset &T) const {
  switch (F->kind()) {
  case FormulaKind::True:
    return true;
  case FormulaKind::False:
    return false;
  case FormulaKind::Prop: {
    auto It = PropIdx.find(F->sym());
    // A label not in the lean can never be the (single) label of a type.
    return It != PropIdx.end() && T.test(It->second);
  }
  case FormulaKind::NegProp: {
    auto It = PropIdx.find(F->sym());
    return It == PropIdx.end() || !T.test(It->second);
  }
  case FormulaKind::Start:
    return T.test(StartIdx);
  case FormulaKind::NegStart:
    return !T.test(StartIdx);
  case FormulaKind::Var:
    assert(false && "status of an open formula");
    return false;
  case FormulaKind::And:
    return status(FF, F->lhs(), T) && status(FF, F->rhs(), T);
  case FormulaKind::Or:
    return status(FF, F->lhs(), T) || status(FF, F->rhs(), T);
  case FormulaKind::Exist: {
    auto It = ExistIdx.find(F);
    assert(It != ExistIdx.end() && "modal formula outside the lean");
    return T.test(It->second);
  }
  case FormulaKind::NegExistTop:
    return !T.test(DiamTopIdx[static_cast<int>(F->program())]);
  case FormulaKind::Mu:
    return status(FF, FF.unfold(F), T);
  }
  return false;
}

std::string Lean::signature() const {
  // Label abstraction (see the header): same-shaped queries over
  // per-request alphabets, which bench workloads are full of, print
  // identical signatures.
  std::unordered_map<Symbol, unsigned> Labels;
  std::string Sig;
  for (Formula F : Members) {
    size_t Start = Sig.size();
    appendFormula(Sig, F, /*PositionalBinders=*/true, &Labels);
    Sig.insert(Start, std::to_string(Sig.size() - Start) + ':');
  }
  return Sig;
}
