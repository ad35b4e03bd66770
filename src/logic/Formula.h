//===- Formula.h - The logic Lµ (§4 of the paper) ----------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The logic Lµ: an alternation-free modal µ-calculus with converse,
/// restricted to cycle-free formulas and interpreted over finite focused
/// trees (Figure 1 of the paper):
///
///   φ, ψ ::= ⊤ | σ | ¬σ | s | ¬s | X | φ∨ψ | φ∧ψ
///          | ⟨a⟩φ | ¬⟨a⟩⊤ | µXi = φi in ψ        a ∈ {1, 2, 1̄, 2̄}
///
/// Because least and greatest fixpoints collapse on finite trees for
/// cycle-free formulas (Lemma 4.2), only the n-ary least fixpoint is
/// represented; negation is the syntactic dual of §4 (De Morgan extended to
/// eventualities and fixpoints), so the logic is closed under negation and
/// every formula is kept in negation normal form. An explicit ⊥ is provided
/// for convenience (the paper encodes it as σ∧¬σ).
///
/// Formulas are immutable hash-consed DAG nodes owned by a FormulaFactory;
/// pointer equality is semantic-syntactic equality modulo the factory's
/// smart constructors.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_LOGIC_FORMULA_H
#define XSA_LOGIC_FORMULA_H

#include "support/StringInterner.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace xsa {

/// The four navigation programs, numbered to match Document::follow and
/// FocusedTree::follow.
enum class Program : uint8_t {
  Child = 0,       ///< ⟨1⟩ first child
  Sibling = 1,     ///< ⟨2⟩ next sibling
  ParentInv = 2,   ///< ⟨1̄⟩ parent (from a leftmost sibling)
  SiblingInv = 3,  ///< ⟨2̄⟩ previous sibling
};

/// ā: the converse program (1↔1̄, 2↔2̄).
inline Program converse(Program P) {
  return static_cast<Program>((static_cast<uint8_t>(P) + 2) & 3);
}

/// Printable name of a program: "1", "2", "-1", "-2".
const char *programName(Program P);

enum class FormulaKind : uint8_t {
  True,
  False,
  Prop,        ///< σ
  NegProp,     ///< ¬σ
  Start,       ///< s (the start mark)
  NegStart,    ///< ¬s
  Var,         ///< recursion variable X
  And,
  Or,
  Exist,       ///< ⟨a⟩φ
  NegExistTop, ///< ¬⟨a⟩⊤
  Mu,          ///< µ X̄ = φ̄ in ψ (n-ary least fixpoint)
};

class FormulaNode;
/// Formulas are passed as raw pointers into the owning factory's arena.
using Formula = const FormulaNode *;

/// One binding Xi = φi of an n-ary fixpoint.
struct MuBinding {
  Symbol Var;
  Formula Def;
  bool operator==(const MuBinding &O) const {
    return Var == O.Var && Def == O.Def;
  }
};

/// An immutable hash-consed formula node.
class FormulaNode {
public:
  FormulaKind kind() const { return Kind; }
  bool is(FormulaKind K) const { return Kind == K; }

  /// Label of a Prop/NegProp, or name of a Var.
  Symbol sym() const { return Sym; }

  /// Program of an Exist/NegExistTop.
  Program program() const { return Prog; }

  /// Left operand of And/Or; child of Exist.
  Formula lhs() const { return Lhs; }
  /// Right operand of And/Or.
  Formula rhs() const { return Rhs; }

  /// Bindings and body of a Mu.
  const std::vector<MuBinding> &bindings() const { return Bindings; }
  Formula body() const { return Body; }

  /// Dense id within the owning factory (stable for maps/sorting).
  unsigned id() const { return Id; }

  /// Syntactic size (number of AST nodes; Mu counts bindings + body).
  unsigned size() const { return Size; }

  size_t hash() const { return HashValue; }

private:
  friend class FormulaFactory;

  FormulaKind Kind = FormulaKind::True;
  Program Prog = Program::Child;
  Symbol Sym = 0;
  Formula Lhs = nullptr;
  Formula Rhs = nullptr;
  std::vector<MuBinding> Bindings;
  Formula Body = nullptr;
  unsigned Id = 0;
  unsigned Size = 1;
  size_t HashValue = 0;
};

/// Creates, interns and transforms formulas. All formulas returned by a
/// factory live as long as the factory.
class FormulaFactory {
public:
  FormulaFactory();
  FormulaFactory(const FormulaFactory &) = delete;
  FormulaFactory &operator=(const FormulaFactory &) = delete;

  Formula trueF() { return TrueF; }
  Formula falseF() { return FalseF; }
  Formula prop(Symbol S);
  Formula prop(std::string_view S) { return prop(internSymbol(S)); }
  Formula negProp(Symbol S);
  Formula negProp(std::string_view S) { return negProp(internSymbol(S)); }
  Formula start() { return StartF; }
  Formula negStart() { return NegStartF; }
  Formula var(Symbol S);
  Formula var(std::string_view S) { return var(internSymbol(S)); }

  /// φ∧ψ with unit/absorbing/idempotence simplification.
  Formula conj(Formula A, Formula B);
  /// φ∨ψ with unit/absorbing/idempotence simplification.
  Formula disj(Formula A, Formula B);
  /// n-ary helpers (⊤ for empty conjunction, ⊥ for empty disjunction).
  Formula conj(const std::vector<Formula> &Fs);
  Formula disj(const std::vector<Formula> &Fs);

  /// ⟨a⟩φ (⊥ child collapses to ⊥).
  Formula diamond(Program A, Formula F);
  /// ¬⟨a⟩⊤.
  Formula negDiamondTop(Program A);

  /// µ X̄ = φ̄ in ψ.
  Formula mu(std::vector<MuBinding> Bindings, Formula Body);
  /// Unary sugar: µX.φ, i.e. µX = φ in φ (§4).
  Formula mu(Symbol Var, Formula Def);

  /// A fresh recursion variable with the given prefix (X -> $X17).
  Symbol freshVar(std::string_view Prefix = "X");

  /// Negation by the dualities of §4; the result is in NNF. Only valid
  /// for cycle-free formulas on finite trees (fixpoint collapse).
  Formula negate(Formula F);

  /// Capture-avoiding substitution of variables (binders shadow).
  Formula substitute(Formula F,
                     const std::unordered_map<Symbol, Formula> &Map);

  /// exp(µ X̄ = φ̄ in ψ): replaces each Xk of the body by the projection
  /// µ X̄ = φ̄ in Xk. When the body is itself a bound variable Xj the
  /// unfolding steps through the binding φj (one Kleene step), which keeps
  /// the relation of Fig. 15 terminating for guarded (cycle-free) formulas.
  Formula unfold(Formula Mu);

  /// Free recursion variables of \p F.
  std::unordered_set<Symbol> freeVars(Formula F);
  bool isClosed(Formula F) { return freeVars(F).empty(); }

  /// α-renames every bound recursion variable to a canonical name derived
  /// from its binding position (depth of the enclosing µ and index within
  /// its binding vector), so two formulas that differ only in the names
  /// chosen by freshVar intern to the same node:
  ///
  ///   canonicalize(φ) == canonicalize(ψ)  ⇔  φ ≡α ψ
  ///
  /// (up to the semantics-preserving simplifications of the smart
  /// constructors, which can only merge equivalent formulas). This is the
  /// key for semantic result caching: repeated compilations of the same
  /// XPath/type query produce α-variants (fresh µ-variables each time),
  /// and all of them canonicalize to one representative.
  Formula canonicalize(Formula F);

  /// Hash of the canonical representative; equal for α-equivalent
  /// formulas. Use canonicalize() itself as a map key for exactness.
  size_t canonicalHash(Formula F) { return canonicalize(F)->hash(); }

  /// Pretty-prints in the textual syntax understood by parseFormula.
  std::string toString(Formula F);

  /// toString(canonicalize(F)), memoized on the canonical formula: the
  /// result cache's key text, equal for α-equivalent formulas. Shared,
  /// so a text the caller holds outlives a flush of the memo.
  std::shared_ptr<const std::string> canonicalText(Formula F);

  /// Number of distinct nodes created so far.
  size_t numNodes() const { return Arena.size(); }

private:
  Formula intern(FormulaNode &&N);
  Formula negateRec(Formula F,
                    std::unordered_set<Symbol> &FlippedVars,
                    std::unordered_map<Formula, Formula> &Memo);
  Formula substituteRec(Formula F,
                        const std::unordered_map<Symbol, Formula> &Map,
                        std::unordered_map<Formula, Formula> &Memo);
  Formula canonRec(Formula F, unsigned Depth,
                   const std::unordered_map<Symbol, Symbol> &Env,
                   std::unordered_map<Formula, Formula> &Memo);

  struct NodeHash {
    size_t operator()(const FormulaNode *N) const { return N->hash(); }
  };
  struct NodeEq {
    bool operator()(const FormulaNode *A, const FormulaNode *B) const;
  };

  std::vector<std::unique_ptr<FormulaNode>> Arena;
  std::unordered_set<const FormulaNode *, NodeHash, NodeEq> Unique;
  std::unordered_map<Formula, Formula> UnfoldMemo;
  std::unordered_map<Formula, Formula> CanonMemo;
  /// Canonical texts run to KBs for DTD-constrained formulas, so this
  /// memo is bounded: past MaxCanonTextMemo entries it is dropped whole
  /// (the next request re-prints once) rather than LRU-tracked.
  static constexpr size_t MaxCanonTextMemo = 4096;
  std::unordered_map<Formula, std::shared_ptr<const std::string>>
      CanonTextMemo;
  unsigned FreshCounter = 0;

  Formula TrueF = nullptr;
  Formula FalseF = nullptr;
  Formula StartF = nullptr;
  Formula NegStartF = nullptr;
};

} // namespace xsa

#endif // XSA_LOGIC_FORMULA_H
