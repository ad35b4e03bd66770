//===- Binarize.cpp - Unranked DTD to binary tree types (Fig. 13) ----------===//

#include "xtype/Binarize.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>
#include <unordered_map>

using namespace xsa;

std::vector<Symbol> BinaryTypeGrammar::terminals() const {
  std::map<Symbol, bool> Seen;
  for (const Var &V : Vars)
    for (const Alt &A : V.Alts)
      Seen.emplace(A.Label, true);
  std::vector<Symbol> R;
  for (auto &[S, _] : Seen)
    R.push_back(S);
  return R;
}

std::string BinaryTypeGrammar::toString() const {
  std::ostringstream OS;
  for (size_t I = 0; I < Vars.size(); ++I) {
    const Var &V = Vars[I];
    OS << "$" << V.Name << " ->";
    bool First = true;
    if (V.Nullable) {
      OS << " EPSILON";
      First = false;
    }
    for (const Alt &A : V.Alts) {
      OS << (First ? " " : "\n    | ") << symbolName(A.Label) << "(";
      OS << (A.X1 == EpsilonVar ? std::string("$Epsilon")
                                : "$" + Vars[A.X1].Name);
      OS << ", ";
      OS << (A.X2 == EpsilonVar ? std::string("$Epsilon")
                                : "$" + Vars[A.X2].Name);
      OS << ")";
      First = false;
    }
    OS << "\n";
  }
  OS << "Start Symbol is $"
     << (Start == EpsilonVar ? std::string("Epsilon") : Vars[Start].Name)
     << "\n";
  return OS.str();
}

namespace {

/// Merges variables with identical (nullable, alternatives) signatures,
/// iterating to a fixpoint — Hopcroft-style partition refinement on the
/// grammar viewed as a deterministic structure over alt multisets.
void minimizeGrammar(BinaryTypeGrammar &G) {
  size_t N = G.Vars.size();
  if (N == 0)
    return;
  // Initial classes: by nullability.
  std::vector<int> Class(N);
  for (size_t I = 0; I < N; ++I)
    Class[I] = G.Vars[I].Nullable ? 1 : 0;
  for (;;) {
    // Signature of a variable under the current partition.
    std::map<std::pair<int, std::vector<std::tuple<Symbol, int, int>>>, int>
        Sig2Class;
    std::vector<int> NewClass(N);
    for (size_t I = 0; I < N; ++I) {
      std::vector<std::tuple<Symbol, int, int>> Alts;
      for (const BinaryTypeGrammar::Alt &A : G.Vars[I].Alts)
        Alts.emplace_back(A.Label,
                          A.X1 == BinaryTypeGrammar::EpsilonVar
                              ? -1
                              : Class[A.X1],
                          A.X2 == BinaryTypeGrammar::EpsilonVar
                              ? -1
                              : Class[A.X2]);
      std::sort(Alts.begin(), Alts.end());
      Alts.erase(std::unique(Alts.begin(), Alts.end()), Alts.end());
      auto Key = std::make_pair(Class[I], Alts);
      auto It = Sig2Class.find(Key);
      if (It == Sig2Class.end())
        It = Sig2Class.emplace(Key, static_cast<int>(Sig2Class.size())).first;
      NewClass[I] = It->second;
    }
    if (NewClass == Class)
      break;
    Class = std::move(NewClass);
  }
  // Rebuild one variable per class, keeping the first representative.
  int NumClasses = 0;
  for (int C : Class)
    NumClasses = std::max(NumClasses, C + 1);
  std::vector<int> Representative(NumClasses, -1);
  for (size_t I = 0; I < N; ++I)
    if (Representative[Class[I]] < 0)
      Representative[Class[I]] = static_cast<int>(I);
  std::vector<BinaryTypeGrammar::Var> NewVars(NumClasses);
  for (int C = 0; C < NumClasses; ++C) {
    const BinaryTypeGrammar::Var &Old = G.Vars[Representative[C]];
    BinaryTypeGrammar::Var V;
    V.Name = std::to_string(C + 1);
    V.Nullable = Old.Nullable;
    for (const BinaryTypeGrammar::Alt &A : Old.Alts) {
      BinaryTypeGrammar::Alt NA = A;
      if (NA.X1 != BinaryTypeGrammar::EpsilonVar)
        NA.X1 = Class[NA.X1];
      if (NA.X2 != BinaryTypeGrammar::EpsilonVar)
        NA.X2 = Class[NA.X2];
      bool Dup = false;
      for (const BinaryTypeGrammar::Alt &Existing : V.Alts)
        if (Existing == NA)
          Dup = true;
      if (!Dup)
        V.Alts.push_back(NA);
    }
    NewVars[C] = std::move(V);
  }
  G.Start = Class[G.Start];
  G.Vars = std::move(NewVars);
}

/// Replaces references to empty nullable variables (no alternatives,
/// matches only ε) by $Epsilon and drops those variables.
void elideEpsilonVars(BinaryTypeGrammar &G) {
  std::vector<int> Remap(G.Vars.size());
  std::vector<BinaryTypeGrammar::Var> Kept;
  for (size_t I = 0; I < G.Vars.size(); ++I) {
    if (G.Vars[I].Alts.empty() && G.Vars[I].Nullable) {
      Remap[I] = BinaryTypeGrammar::EpsilonVar;
    } else {
      Remap[I] = static_cast<int>(Kept.size());
      Kept.push_back(G.Vars[I]);
    }
  }
  for (BinaryTypeGrammar::Var &V : Kept)
    for (BinaryTypeGrammar::Alt &A : V.Alts) {
      if (A.X1 != BinaryTypeGrammar::EpsilonVar)
        A.X1 = Remap[A.X1];
      if (A.X2 != BinaryTypeGrammar::EpsilonVar)
        A.X2 = Remap[A.X2];
    }
  assert(G.Start != BinaryTypeGrammar::EpsilonVar);
  if (Remap[G.Start] == BinaryTypeGrammar::EpsilonVar) {
    // Degenerate: the root matches only ε; keep a start variable so the
    // grammar stays well-formed (no tree satisfies it -- caught upstream).
    G.Vars.clear();
    G.Start = BinaryTypeGrammar::EpsilonVar;
    return;
  }
  G.Start = Remap[G.Start];
  G.Vars = std::move(Kept);
  // Renumber names densely.
  for (size_t I = 0; I < G.Vars.size(); ++I)
    G.Vars[I].Name = std::to_string(I + 1);
}

/// Folds a nullable variable N into a non-nullable variable M that has
/// exactly the same alternatives (the pattern produced by + loops, whose
/// Glushkov start state and position state share transitions): every
/// reference σ(..N..) is expanded into the ε / M alternatives, and N is
/// dropped. This reproduces the shape of the paper's Figure 13, e.g.
/// $5 -> edit($6, $Epsilon) | edit($6, $5) for (edit)+.
bool foldNullableDuplicates(BinaryTypeGrammar &G) {
  for (size_t N = 0; N < G.Vars.size(); ++N) {
    if (!G.Vars[N].Nullable || static_cast<int>(N) == G.Start)
      continue;
    int M = -1;
    for (size_t C = 0; C < G.Vars.size(); ++C)
      if (C != N && !G.Vars[C].Nullable && G.Vars[C].Alts == G.Vars[N].Alts) {
        M = static_cast<int>(C);
        break;
      }
    if (M < 0)
      continue;
    // Rewrite every reference to N (in X1 and X2 positions) into the
    // two-way expansion {ε, M}.
    for (BinaryTypeGrammar::Var &V : G.Vars) {
      std::vector<BinaryTypeGrammar::Alt> NewAlts;
      for (const BinaryTypeGrammar::Alt &A : V.Alts) {
        std::vector<int> X1s{A.X1}, X2s{A.X2};
        if (A.X1 == static_cast<int>(N))
          X1s = {BinaryTypeGrammar::EpsilonVar, M};
        if (A.X2 == static_cast<int>(N))
          X2s = {BinaryTypeGrammar::EpsilonVar, M};
        for (int X1 : X1s)
          for (int X2 : X2s) {
            BinaryTypeGrammar::Alt NA{A.Label, X1, X2};
            bool Dup = false;
            for (const BinaryTypeGrammar::Alt &E : NewAlts)
              if (E == NA)
                Dup = true;
            if (!Dup)
              NewAlts.push_back(NA);
          }
      }
      V.Alts = std::move(NewAlts);
    }
    // Drop N.
    std::vector<int> Remap(G.Vars.size());
    std::vector<BinaryTypeGrammar::Var> Kept;
    for (size_t I = 0; I < G.Vars.size(); ++I) {
      if (I == N) {
        Remap[I] = BinaryTypeGrammar::EpsilonVar; // unreferenced now
        continue;
      }
      Remap[I] = static_cast<int>(Kept.size());
      Kept.push_back(G.Vars[I]);
    }
    for (BinaryTypeGrammar::Var &V : Kept)
      for (BinaryTypeGrammar::Alt &A : V.Alts) {
        if (A.X1 != BinaryTypeGrammar::EpsilonVar)
          A.X1 = Remap[A.X1];
        if (A.X2 != BinaryTypeGrammar::EpsilonVar)
          A.X2 = Remap[A.X2];
      }
    G.Start = Remap[G.Start];
    G.Vars = std::move(Kept);
    for (size_t I = 0; I < G.Vars.size(); ++I)
      G.Vars[I].Name = std::to_string(I + 1);
    return true;
  }
  return false;
}

} // namespace

BinaryTypeGrammar xsa::binarize(const Dtd &D, bool Minimize) {
  BinaryTypeGrammar G;
  // One Glushkov automaton per *distinct* content model (real DTDs —
  // XHTML in particular — repeat the same parameter-entity content over
  // dozens of elements); one variable per automaton state. This sharing
  // is what keeps XHTML at the few-hundred-variable scale of Table 1.
  std::vector<Glushkov> Automata;
  std::vector<int> ModelBase;                  // model -> var of state 0
  std::unordered_map<std::string, int> ModelOf; // content text -> model id
  std::unordered_map<Symbol, int> ElementModel;
  for (Symbol E : D.elements()) {
    std::string Key = toString(D.content(E));
    auto It = ModelOf.find(Key);
    if (It == ModelOf.end()) {
      It = ModelOf.emplace(Key, static_cast<int>(Automata.size())).first;
      Automata.push_back(buildGlushkov(D.content(E)));
      ModelBase.push_back(static_cast<int>(G.Vars.size()));
      const Glushkov &A = Automata.back();
      for (size_t Q = 0; Q < A.numStates(); ++Q) {
        BinaryTypeGrammar::Var V;
        V.Name = std::to_string(G.Vars.size() + 1);
        V.Nullable = A.accepting(static_cast<int>(Q));
        G.Vars.push_back(std::move(V));
      }
    }
    ElementModel[E] = It->second;
  }
  // Fill alternatives: from state q, reading child σ moves to position
  // p; the child's subtree is σ's content start variable, the remaining
  // siblings are state p's variable.
  for (size_t M = 0; M < Automata.size(); ++M) {
    const Glushkov &A = Automata[M];
    int Base = ModelBase[M];
    for (size_t Q = 0; Q < A.numStates(); ++Q) {
      BinaryTypeGrammar::Var &V = G.Vars[Base + Q];
      for (int P : A.transitions(static_cast<int>(Q))) {
        Symbol ChildSym = A.symbolOf(P);
        assert(D.isDeclared(ChildSym) &&
               "content model uses an undeclared element");
        V.Alts.push_back(
            {ChildSym, ModelBase[ElementModel.at(ChildSym)], Base + P});
      }
    }
  }
  // Start variable: root(contentVar(root), ε) — a single root element
  // with no following sibling.
  BinaryTypeGrammar::Var StartVar;
  StartVar.Name = std::to_string(G.Vars.size() + 1);
  StartVar.Nullable = false;
  StartVar.Alts.push_back(
      {D.root(), ModelBase[ElementModel.at(D.root())],
       BinaryTypeGrammar::EpsilonVar});
  G.Start = static_cast<int>(G.Vars.size());
  G.Vars.push_back(std::move(StartVar));

  elideEpsilonVars(G);
  if (Minimize) {
    minimizeGrammar(G);
    elideEpsilonVars(G);
    while (foldNullableDuplicates(G)) {
      minimizeGrammar(G);
      elideEpsilonVars(G);
    }
  }
  return G;
}
