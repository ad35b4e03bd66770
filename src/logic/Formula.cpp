//===- Formula.cpp - Lµ formula construction and transformation -----------===//

#include "logic/Formula.h"

#include <cassert>
#include <sstream>

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

static size_t computeHash(const FormulaNode &N) {
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
  return H;
}

bool FormulaFactory::NodeEq::operator()(const FormulaNode *A,
                                        const FormulaNode *B) const {
  return A->kind() == B->kind() && A->program() == B->program() &&
         A->sym() == B->sym() && A->lhs() == B->lhs() && A->rhs() == B->rhs() &&
         A->bindings() == B->bindings() && A->body() == B->body();
}

FormulaFactory::FormulaFactory() {
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
  auto It = Unique.find(&N);
  if (It != Unique.end())
    return *It;
  N.Id = static_cast<unsigned>(Arena.size());
  Arena.push_back(std::make_unique<FormulaNode>(std::move(N)));
  Formula Result = Arena.back().get();
  Unique.insert(Result);
  return Result;
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

Formula FormulaFactory::conj(const std::vector<Formula> &Fs) {
  Formula R = TrueF;
  for (Formula F : Fs)
    R = conj(R, F);
  return R;
}

Formula FormulaFactory::disj(const std::vector<Formula> &Fs) {
  Formula R = FalseF;
  for (Formula F : Fs)
    R = disj(R, F);
  return R;
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
// Canonicalization (α-renaming of bound variables)
//===----------------------------------------------------------------------===//

Formula FormulaFactory::canonicalize(Formula F) {
  // The top-level entry always runs under the empty environment, so a
  // factory-wide memo is sound here (free variables map to themselves).
  auto It = CanonMemo.find(F);
  if (It != CanonMemo.end())
    return It->second;
  std::unordered_map<Symbol, Symbol> Env;
  std::unordered_map<Formula, Formula> Memo;
  Formula R = canonRec(F, 0, Env, Memo);
  CanonMemo.emplace(F, R);
  return R;
}

Formula FormulaFactory::canonRec(
    Formula F, unsigned Depth, const std::unordered_map<Symbol, Symbol> &Env,
    std::unordered_map<Formula, Formula> &Memo) {
  // Like substituteRec, the memo is only valid while the environment is
  // unchanged; entering a µ switches to a fresh memo for its subtree.
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
    auto MI = Env.find(F->sym());
    if (MI != Env.end())
      R = var(MI->second);
    break;
  }
  case FormulaKind::And:
    R = conj(canonRec(F->lhs(), Depth, Env, Memo),
             canonRec(F->rhs(), Depth, Env, Memo));
    break;
  case FormulaKind::Or:
    R = disj(canonRec(F->lhs(), Depth, Env, Memo),
             canonRec(F->rhs(), Depth, Env, Memo));
    break;
  case FormulaKind::Exist:
    R = diamond(F->program(), canonRec(F->lhs(), Depth, Env, Memo));
    break;
  case FormulaKind::Mu: {
    // A binder's canonical name is a function of its position only: the
    // nesting depth of enclosing µs and the index within this µ's
    // binding vector. Nested binders differ in depth, sibling µs in
    // disjoint scopes may share names harmlessly.
    std::unordered_map<Symbol, Symbol> NewEnv(Env);
    std::vector<Symbol> Canon;
    Canon.reserve(F->bindings().size());
    for (size_t I = 0; I < F->bindings().size(); ++I) {
      // '%' cannot occur in a parsed identifier, so canonical names can
      // never capture a free variable of the input.
      Symbol C = internSymbol("%c" + std::to_string(Depth) + "_" +
                              std::to_string(I));
      Canon.push_back(C);
      NewEnv[F->bindings()[I].Var] = C;
    }
    std::unordered_map<Formula, Formula> SubMemo;
    std::vector<MuBinding> NewBindings;
    NewBindings.reserve(F->bindings().size());
    for (size_t I = 0; I < F->bindings().size(); ++I)
      NewBindings.push_back(
          {Canon[I], canonRec(F->bindings()[I].Def, Depth + 1, NewEnv, SubMemo)});
    Formula NewBody = canonRec(F->body(), Depth + 1, NewEnv, SubMemo);
    R = mu(std::move(NewBindings), NewBody);
    break;
  }
  }
  Memo.emplace(F, R);
  return R;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

// Precedence levels: Or = 1, And = 2, unary/atomic = 3.
void print(Formula F, int Parent, std::ostringstream &OS) {
  switch (F->kind()) {
  case FormulaKind::True:
    OS << "T";
    return;
  case FormulaKind::False:
    OS << "F";
    return;
  case FormulaKind::Prop:
    OS << symbolName(F->sym());
    return;
  case FormulaKind::NegProp:
    OS << "~" << symbolName(F->sym());
    return;
  case FormulaKind::Start:
    OS << "#s";
    return;
  case FormulaKind::NegStart:
    OS << "~#s";
    return;
  case FormulaKind::Var:
    OS << "$" << symbolName(F->sym());
    return;
  case FormulaKind::And: {
    if (Parent > 2)
      OS << "(";
    print(F->lhs(), 2, OS);
    OS << " & ";
    print(F->rhs(), 2, OS);
    if (Parent > 2)
      OS << ")";
    return;
  }
  case FormulaKind::Or: {
    if (Parent > 1)
      OS << "(";
    print(F->lhs(), 1, OS);
    OS << " | ";
    print(F->rhs(), 1, OS);
    if (Parent > 1)
      OS << ")";
    return;
  }
  case FormulaKind::Exist:
    OS << "<" << programName(F->program()) << ">";
    print(F->lhs(), 3, OS);
    return;
  case FormulaKind::NegExistTop:
    OS << "~<" << programName(F->program()) << ">T";
    return;
  case FormulaKind::Mu: {
    if (Parent > 0)
      OS << "(";
    OS << "let ";
    bool First = true;
    for (const MuBinding &B : F->bindings()) {
      if (!First)
        OS << "; ";
      First = false;
      OS << "$" << symbolName(B.Var) << " = ";
      print(B.Def, 0, OS);
    }
    OS << " in ";
    print(F->body(), 0, OS);
    if (Parent > 0)
      OS << ")";
    return;
  }
  }
}

} // namespace

std::string FormulaFactory::toString(Formula F) {
  std::ostringstream OS;
  print(F, 0, OS);
  return OS.str();
}

std::shared_ptr<const std::string> FormulaFactory::canonicalText(Formula F) {
  // Formulas are never freed, so a canonical pointer stays a valid key.
  Formula Canonical = canonicalize(F);
  auto It = CanonTextMemo.find(Canonical);
  if (It != CanonTextMemo.end())
    return It->second;
  if (CanonTextMemo.size() >= MaxCanonTextMemo)
    CanonTextMemo.clear();
  auto Text = std::make_shared<const std::string>(toString(Canonical));
  CanonTextMemo.emplace(Canonical, Text);
  return Text;
}
