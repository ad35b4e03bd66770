//===- Formula.cpp - Lµ formula construction and transformation -----------===//

#include "logic/Formula.h"

#include <algorithm>
#include <cassert>

using namespace xsa;

const char *xsa::programName(Program P) {
  switch (P) {
  case Program::Child:
    return "1";
  case Program::Sibling:
    return "2";
  case Program::ParentInv:
    return "-1";
  case Program::SiblingInv:
    return "-2";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Hash consing
//===----------------------------------------------------------------------===//

static size_t hashCombine(size_t H, size_t V) {
  return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
}

static uint32_t computeHash(const FormulaNode &N) {
  size_t H = static_cast<size_t>(N.kind());
  H = hashCombine(H, static_cast<size_t>(N.program()));
  H = hashCombine(H, N.sym());
  H = hashCombine(H, reinterpret_cast<size_t>(N.lhs()));
  H = hashCombine(H, reinterpret_cast<size_t>(N.rhs()));
  for (const MuBinding &B : N.bindings()) {
    H = hashCombine(H, B.Var);
    H = hashCombine(H, reinterpret_cast<size_t>(B.Def));
  }
  H = hashCombine(H, reinterpret_cast<size_t>(N.body()));
  // The table indexes by the low bits; the high half of a Fibonacci
  // product depends on every bit of H.
  return static_cast<uint32_t>((H * 0x9e3779b97f4a7c15ull) >> 32);
}

static bool sameNode(const FormulaNode &A, const FormulaNode &B) {
  return A.kind() == B.kind() && A.program() == B.program() &&
         A.sym() == B.sym() && A.lhs() == B.lhs() && A.rhs() == B.rhs() &&
         A.bindings() == B.bindings() && A.body() == B.body();
}

FormulaFactory::FormulaFactory() : Unique(size_t(1) << 10) {
  FormulaNode T;
  T.Kind = FormulaKind::True;
  TrueF = intern(std::move(T));
  FormulaNode F;
  F.Kind = FormulaKind::False;
  FalseF = intern(std::move(F));
  FormulaNode S;
  S.Kind = FormulaKind::Start;
  StartF = intern(std::move(S));
  FormulaNode NS;
  NS.Kind = FormulaKind::NegStart;
  NegStartF = intern(std::move(NS));
}

Formula FormulaFactory::intern(FormulaNode &&N) {
  // Compute size.
  unsigned Size = 1;
  if (N.Lhs)
    Size += N.Lhs->size();
  if (N.Rhs)
    Size += N.Rhs->size();
  for (const MuBinding &B : N.Bindings)
    Size += B.Def->size();
  if (N.Body)
    Size += N.Body->size();
  N.Size = Size;
  N.HashValue = computeHash(N);
  size_t Mask = Unique.size() - 1;
  size_t Slot = N.HashValue & Mask;
  for (; Unique[Slot]; Slot = (Slot + 1) & Mask)
    if (Unique[Slot]->HashValue == N.HashValue && sameNode(*Unique[Slot], N))
      return Unique[Slot];
  Formula Result = &Arena.emplace_back(std::move(N));
  if (2 * Arena.size() <= Unique.size()) {
    Unique[Slot] = Result;
    return Result;
  }
  // Past half load: double the table and place every node again.
  Unique.assign(2 * Unique.size(), nullptr);
  for (const FormulaNode &Node : Arena)
    place(&Node);
  return Result;
}

void FormulaFactory::place(Formula N) {
  size_t Mask = Unique.size() - 1;
  size_t Slot = N->HashValue & Mask;
  while (Unique[Slot])
    Slot = (Slot + 1) & Mask;
  Unique[Slot] = N;
}

void FormulaFactory::clear() {
  // The constants are entries 0-3, so they keep their blocks.
  Arena.resize(4);
  std::fill(Unique.begin(), Unique.end(), nullptr);
  for (const FormulaNode &Node : Arena)
    place(&Node);
  UnfoldMemo.clear();
  CanonTextMemo.clear();
  FreshCounter = 0;
}

Formula FormulaFactory::prop(Symbol S) {
  FormulaNode N;
  N.Kind = FormulaKind::Prop;
  N.Sym = S;
  return intern(std::move(N));
}

Formula FormulaFactory::negProp(Symbol S) {
  FormulaNode N;
  N.Kind = FormulaKind::NegProp;
  N.Sym = S;
  return intern(std::move(N));
}

Formula FormulaFactory::var(Symbol S) {
  FormulaNode N;
  N.Kind = FormulaKind::Var;
  N.Sym = S;
  return intern(std::move(N));
}

Formula FormulaFactory::conj(Formula A, Formula B) {
  assert(A && B);
  if (A == TrueF)
    return B;
  if (B == TrueF)
    return A;
  if (A == FalseF || B == FalseF)
    return FalseF;
  if (A == B)
    return A;
  FormulaNode N;
  N.Kind = FormulaKind::And;
  N.Lhs = A;
  N.Rhs = B;
  return intern(std::move(N));
}

Formula FormulaFactory::disj(Formula A, Formula B) {
  assert(A && B);
  if (A == FalseF)
    return B;
  if (B == FalseF)
    return A;
  if (A == TrueF || B == TrueF)
    return TrueF;
  if (A == B)
    return A;
  FormulaNode N;
  N.Kind = FormulaKind::Or;
  N.Lhs = A;
  N.Rhs = B;
  return intern(std::move(N));
}

Formula FormulaFactory::diamond(Program A, Formula F) {
  assert(F);
  if (F == FalseF)
    return FalseF; // ⟨a⟩⊥ has no witness
  FormulaNode N;
  N.Kind = FormulaKind::Exist;
  N.Prog = A;
  N.Lhs = F;
  return intern(std::move(N));
}

Formula FormulaFactory::negDiamondTop(Program A) {
  FormulaNode N;
  N.Kind = FormulaKind::NegExistTop;
  N.Prog = A;
  return intern(std::move(N));
}

Formula FormulaFactory::mu(std::vector<MuBinding> Bindings, Formula Body) {
  assert(!Bindings.empty() && "fixpoint needs at least one binding");
  FormulaNode N;
  N.Kind = FormulaKind::Mu;
  N.Bindings = std::move(Bindings);
  N.Body = Body;
  return intern(std::move(N));
}

Formula FormulaFactory::mu(Symbol Var, Formula Def) {
  // §4 defines µX.φ as µX = φ in φ; we use the equivalent µX = φ in X,
  // which unfolds identically but keeps the syntactic size linear under
  // nesting (Prop 5.1(3) counts tree size).
  return mu({{Var, Def}}, var(Var));
}

Symbol FormulaFactory::freshVar(std::string_view Prefix) {
  std::string Name = std::string(Prefix) + std::to_string(++FreshCounter);
  return internSymbol(Name);
}

//===----------------------------------------------------------------------===//
// Negation (§4 dualities; valid on finite trees by Lemma 4.2)
//===----------------------------------------------------------------------===//

Formula FormulaFactory::negate(Formula F) {
  std::unordered_set<Symbol> Flipped;
  std::unordered_map<Formula, Formula> Memo;
  return negateRec(F, Flipped, Memo);
}

Formula FormulaFactory::negateRec(Formula F,
                                  std::unordered_set<Symbol> &FlippedVars,
                                  std::unordered_map<Formula, Formula> &Memo) {
  auto It = Memo.find(F);
  if (It != Memo.end())
    return It->second;
  Formula R = nullptr;
  switch (F->kind()) {
  case FormulaKind::True:
    R = FalseF;
    break;
  case FormulaKind::False:
    R = TrueF;
    break;
  case FormulaKind::Prop:
    R = negProp(F->sym());
    break;
  case FormulaKind::NegProp:
    R = prop(F->sym());
    break;
  case FormulaKind::Start:
    R = NegStartF;
    break;
  case FormulaKind::NegStart:
    R = StartF;
    break;
  case FormulaKind::Var:
    // ¬µX̄=φ̄ in ψ = µX̄ = ¬φ̄{X̄/¬X̄} in ¬ψ{X̄/¬X̄}: under the flipped
    // binder, the new variable stands for the negation of the old one.
    assert(FlippedVars.count(F->sym()) &&
           "negation of a free recursion variable");
    R = F;
    break;
  case FormulaKind::And:
    R = disj(negateRec(F->lhs(), FlippedVars, Memo),
             negateRec(F->rhs(), FlippedVars, Memo));
    break;
  case FormulaKind::Or:
    R = conj(negateRec(F->lhs(), FlippedVars, Memo),
             negateRec(F->rhs(), FlippedVars, Memo));
    break;
  case FormulaKind::Exist:
    // ¬⟨a⟩φ = ¬⟨a⟩⊤ ∨ ⟨a⟩¬φ.
    R = disj(negDiamondTop(F->program()),
             diamond(F->program(), negateRec(F->lhs(), FlippedVars, Memo)));
    break;
  case FormulaKind::NegExistTop:
    R = diamond(F->program(), TrueF);
    break;
  case FormulaKind::Mu: {
    std::vector<Symbol> Added;
    for (const MuBinding &B : F->bindings())
      if (FlippedVars.insert(B.Var).second)
        Added.push_back(B.Var);
    std::vector<MuBinding> NewBindings;
    NewBindings.reserve(F->bindings().size());
    for (const MuBinding &B : F->bindings())
      NewBindings.push_back({B.Var, negateRec(B.Def, FlippedVars, Memo)});
    Formula NewBody = negateRec(F->body(), FlippedVars, Memo);
    for (Symbol S : Added)
      FlippedVars.erase(S);
    R = mu(std::move(NewBindings), NewBody);
    break;
  }
  }
  Memo.emplace(F, R);
  return R;
}

//===----------------------------------------------------------------------===//
// Substitution and unfolding
//===----------------------------------------------------------------------===//

Formula FormulaFactory::substitute(
    Formula F, const std::unordered_map<Symbol, Formula> &Map) {
  if (Map.empty())
    return F;
  std::unordered_map<Formula, Formula> Memo;
  return substituteRec(F, Map, Memo);
}

Formula FormulaFactory::substituteRec(
    Formula F, const std::unordered_map<Symbol, Formula> &Map,
    std::unordered_map<Formula, Formula> &Memo) {
  auto It = Memo.find(F);
  if (It != Memo.end())
    return It->second;
  Formula R = F;
  switch (F->kind()) {
  case FormulaKind::True:
  case FormulaKind::False:
  case FormulaKind::Prop:
  case FormulaKind::NegProp:
  case FormulaKind::Start:
  case FormulaKind::NegStart:
  case FormulaKind::NegExistTop:
    break;
  case FormulaKind::Var: {
    auto MI = Map.find(F->sym());
    if (MI != Map.end())
      R = MI->second;
    break;
  }
  case FormulaKind::And:
    R = conj(substituteRec(F->lhs(), Map, Memo),
             substituteRec(F->rhs(), Map, Memo));
    break;
  case FormulaKind::Or:
    R = disj(substituteRec(F->lhs(), Map, Memo),
             substituteRec(F->rhs(), Map, Memo));
    break;
  case FormulaKind::Exist:
    R = diamond(F->program(), substituteRec(F->lhs(), Map, Memo));
    break;
  case FormulaKind::Mu: {
    // Binders shadow: drop re-bound variables from the substitution.
    bool Shadows = false;
    for (const MuBinding &B : F->bindings())
      if (Map.count(B.Var)) {
        Shadows = true;
        break;
      }
    if (Shadows) {
      std::unordered_map<Symbol, Formula> Reduced(Map);
      for (const MuBinding &B : F->bindings())
        Reduced.erase(B.Var);
      R = substitute(F, Reduced); // fresh memo: different environment
      break;
    }
    std::vector<MuBinding> NewBindings;
    NewBindings.reserve(F->bindings().size());
    bool Changed = false;
    for (const MuBinding &B : F->bindings()) {
      Formula D = substituteRec(B.Def, Map, Memo);
      Changed |= D != B.Def;
      NewBindings.push_back({B.Var, D});
    }
    Formula NewBody = substituteRec(F->body(), Map, Memo);
    Changed |= NewBody != F->body();
    if (Changed)
      R = mu(std::move(NewBindings), NewBody);
    break;
  }
  }
  Memo.emplace(F, R);
  return R;
}

Formula FormulaFactory::unfold(Formula MuF) {
  assert(MuF->is(FormulaKind::Mu) && "unfold expects a fixpoint formula");
  auto It = UnfoldMemo.find(MuF);
  if (It != UnfoldMemo.end())
    return It->second;
  // Each bound variable maps to its projection µX̄ = φ̄ in Xk.
  std::unordered_map<Symbol, Formula> Map;
  for (const MuBinding &B : MuF->bindings()) {
    std::vector<MuBinding> Bs(MuF->bindings());
    Map.emplace(B.Var, mu(std::move(Bs), var(B.Var)));
  }
  Formula Target = MuF->body();
  if (Target->is(FormulaKind::Var)) {
    // A projection: step through the binding (one Kleene iteration) so
    // that the expansion makes progress for guarded formulas.
    for (const MuBinding &B : MuF->bindings())
      if (B.Var == Target->sym()) {
        Target = B.Def;
        break;
      }
  }
  Formula R = substitute(Target, Map);
  UnfoldMemo.emplace(MuF, R);
  return R;
}

std::unordered_set<Symbol> FormulaFactory::freeVars(Formula F) {
  std::unordered_set<Symbol> Free;
  std::vector<Symbol> BoundStack;
  // Recursive lambda over the DAG; no memo (bound context varies), fine
  // for the formula sizes we build.
  auto Rec = [&](auto &&Self, Formula G) -> void {
    switch (G->kind()) {
    case FormulaKind::Var:
      for (Symbol S : BoundStack)
        if (S == G->sym())
          return;
      Free.insert(G->sym());
      return;
    case FormulaKind::And:
    case FormulaKind::Or:
      Self(Self, G->lhs());
      Self(Self, G->rhs());
      return;
    case FormulaKind::Exist:
      Self(Self, G->lhs());
      return;
    case FormulaKind::Mu: {
      size_t Before = BoundStack.size();
      for (const MuBinding &B : G->bindings())
        BoundStack.push_back(B.Var);
      for (const MuBinding &B : G->bindings())
        Self(Self, B.Def);
      Self(Self, G->body());
      BoundStack.resize(Before);
      return;
    }
    default:
      return;
    }
  };
  Rec(Rec, F);
  return Free;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

struct Printer {
  std::string &Out;
  bool PositionalBinders;
  std::unordered_map<Symbol, unsigned> *Labels;
  /// The binders in scope, innermost last: a variable resolves to the
  /// last entry naming it.
  struct Binder {
    Symbol Var;
    unsigned Depth, Index;
  };
  std::vector<Binder> Scope;

  // Precedence levels: Or = 1, And = 2, unary/atomic = 3. Depth counts
  // the enclosing µs.
  void print(Formula F, int Parent, unsigned Depth) {
    switch (F->kind()) {
    case FormulaKind::True:
      Out += 'T';
      return;
    case FormulaKind::False:
      Out += 'F';
      return;
    case FormulaKind::Prop:
      label(F->sym());
      return;
    case FormulaKind::NegProp:
      Out += '~';
      label(F->sym());
      return;
    case FormulaKind::Start:
      Out += "#s";
      return;
    case FormulaKind::NegStart:
      Out += "~#s";
      return;
    case FormulaKind::Var:
      if (PositionalBinders)
        for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
          if (It->Var == F->sym())
            return binder(It->Var, It->Depth, It->Index);
      Out += '$';
      Out += symbolName(F->sym());
      return;
    case FormulaKind::And:
    case FormulaKind::Or: {
      int Level = F->is(FormulaKind::And) ? 2 : 1;
      if (Parent > Level)
        Out += '(';
      print(F->lhs(), Level, Depth);
      Out += Level == 2 ? " & " : " | ";
      print(F->rhs(), Level, Depth);
      if (Parent > Level)
        Out += ')';
      return;
    }
    case FormulaKind::Exist:
      Out += '<';
      Out += programName(F->program());
      Out += '>';
      print(F->lhs(), 3, Depth);
      return;
    case FormulaKind::NegExistTop:
      Out += "~<";
      Out += programName(F->program());
      Out += ">T";
      return;
    case FormulaKind::Mu: {
      const std::vector<MuBinding> &Bs = F->bindings();
      if (Parent > 0)
        Out += '(';
      Out += "let ";
      size_t Outer = Scope.size();
      for (unsigned I = 0; I < Bs.size(); ++I)
        Scope.push_back({Bs[I].Var, Depth, I});
      for (unsigned I = 0; I < Bs.size(); ++I) {
        if (I)
          Out += "; ";
        binder(Bs[I].Var, Depth, I);
        Out += " = ";
        print(Bs[I].Def, 0, Depth + 1);
      }
      Out += " in ";
      print(F->body(), 0, Depth + 1);
      Scope.resize(Outer);
      if (Parent > 0)
        Out += ')';
      return;
    }
    }
  }

  void label(Symbol S) {
    if (!Labels) {
      Out += symbolName(S);
      return;
    }
    Out += '%';
    Out += std::to_string(Labels->try_emplace(S, Labels->size()).first->second);
  }

  // '%' cannot occur in a parsed identifier, so a positional name never
  // captures a free variable.
  void binder(Symbol Var, unsigned Depth, unsigned Index) {
    Out += '$';
    if (!PositionalBinders) {
      Out += symbolName(Var);
      return;
    }
    Out += "%c";
    Out += std::to_string(Depth);
    Out += '_';
    Out += std::to_string(Index);
  }
};

} // namespace

void xsa::appendFormula(std::string &Out, Formula F, bool PositionalBinders,
                        std::unordered_map<Symbol, unsigned> *Labels) {
  Printer{Out, PositionalBinders, Labels, {}}.print(F, 0, 0);
}

std::string FormulaFactory::toString(Formula F) {
  std::string Out;
  appendFormula(Out, F);
  return Out;
}

std::shared_ptr<const std::string> FormulaFactory::canonicalText(Formula F) {
  // A formula pointer stays a valid key until clear(), which empties the
  // memo.
  auto It = CanonTextMemo.find(F);
  if (It != CanonTextMemo.end())
    return It->second;
  std::string Text;
  appendFormula(Text, F, /*PositionalBinders=*/true);
  auto Shared = std::make_shared<const std::string>(std::move(Text));
  CanonTextMemo.emplace(F, Shared);
  return Shared;
}
