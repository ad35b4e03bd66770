//===- Eval.cpp - Direct semantics of Lµ on finite trees -------------------===//

#include "logic/Eval.h"

#include <cassert>
#include <unordered_map>

using namespace xsa;

namespace {

class Evaluator {
public:
  Evaluator(const Document &Doc, FormulaFactory &FF, FixpointSemantics Sem)
      : Doc(Doc), FF(FF), Sem(Sem), N(Doc.size()) {}

  DynBitset eval(Formula F) {
    switch (F->kind()) {
    case FormulaKind::True:
      return all();
    case FormulaKind::False:
      return none();
    case FormulaKind::Prop: {
      DynBitset R = none();
      for (size_t I = 0; I < N; ++I)
        if (Doc.label(static_cast<NodeId>(I)) == F->sym())
          R.set(I);
      return R;
    }
    case FormulaKind::NegProp: {
      DynBitset R = none();
      for (size_t I = 0; I < N; ++I)
        if (Doc.label(static_cast<NodeId>(I)) != F->sym())
          R.set(I);
      return R;
    }
    case FormulaKind::Start: {
      DynBitset R = none();
      if (Doc.markedNode() != InvalidNodeId)
        R.set(Doc.markedNode());
      return R;
    }
    case FormulaKind::NegStart: {
      DynBitset R = all();
      if (Doc.markedNode() != InvalidNodeId)
        R.reset(Doc.markedNode());
      return R;
    }
    case FormulaKind::Var: {
      auto It = Env.find(F->sym());
      assert(It != Env.end() && "unbound recursion variable");
      return It->second;
    }
    case FormulaKind::And:
      return eval(F->lhs()) & eval(F->rhs());
    case FormulaKind::Or:
      return eval(F->lhs()) | eval(F->rhs());
    case FormulaKind::Exist: {
      // n ⊨ ⟨a⟩φ iff n⟨a⟩ is defined and satisfies φ.
      DynBitset Sub = eval(F->lhs());
      DynBitset R = none();
      int A = static_cast<int>(F->program());
      for (size_t I = 0; I < N; ++I) {
        NodeId Target = Doc.follow(static_cast<NodeId>(I), A);
        if (Target != InvalidNodeId && Sub.test(Target))
          R.set(I);
      }
      return R;
    }
    case FormulaKind::NegExistTop: {
      DynBitset R = none();
      int A = static_cast<int>(F->program());
      for (size_t I = 0; I < N; ++I)
        if (Doc.follow(static_cast<NodeId>(I), A) == InvalidNodeId)
          R.set(I);
      return R;
    }
    case FormulaKind::Mu: {
      // Simultaneous n-ary fixpoint: Kleene iteration from ∅ (µ) or from
      // the full node set (ν); finite lattice, so it terminates.
      std::vector<std::pair<Symbol, DynBitset>> Saved;
      for (const MuBinding &B : F->bindings()) {
        auto It = Env.find(B.Var);
        if (It != Env.end())
          Saved.push_back({B.Var, It->second});
        Env[B.Var] =
            Sem == FixpointSemantics::Least ? none() : all();
      }
      for (;;) {
        bool Changed = false;
        for (const MuBinding &B : F->bindings()) {
          DynBitset New = eval(B.Def);
          if (New != Env[B.Var]) {
            Env[B.Var] = std::move(New);
            Changed = true;
          }
        }
        if (!Changed)
          break;
      }
      DynBitset R = eval(F->body());
      for (const MuBinding &B : F->bindings())
        Env.erase(B.Var);
      for (auto &[S, V] : Saved)
        Env[S] = std::move(V);
      return R;
    }
    }
    return none();
  }

private:
  DynBitset all() {
    DynBitset R(N);
    for (size_t I = 0; I < N; ++I)
      R.set(I);
    return R;
  }
  DynBitset none() { return DynBitset(N); }

  const Document &Doc;
  [[maybe_unused]] FormulaFactory &FF;
  FixpointSemantics Sem;
  size_t N;
  std::unordered_map<Symbol, DynBitset> Env;
};

} // namespace

DynBitset xsa::evalFormula(const Document &Doc, FormulaFactory &FF, Formula F,
                           FixpointSemantics Sem) {
  Evaluator E(Doc, FF, Sem);
  return E.eval(F);
}
