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
/// Formulas are immutable hash-consed DAG nodes owned by a FormulaFactory
/// until its next clear(); pointer equality is semantic-syntactic
/// equality modulo the factory's smart constructors.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_LOGIC_FORMULA_H
#define XSA_LOGIC_FORMULA_H

#include "support/StringInterner.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace xsa {

/// The four navigation programs, numbered to match Document::follow.
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

  /// Syntactic size (number of AST nodes; Mu counts bindings + body).
  unsigned size() const { return Size; }

private:
  friend class FormulaFactory;

  FormulaKind Kind = FormulaKind::True;
  Program Prog = Program::Child;
  Symbol Sym = 0;
  unsigned Size = 1;
  /// The hash-cons hash, compared before the node itself on a probe.
  uint32_t HashValue = 0;
  Formula Lhs = nullptr;
  Formula Rhs = nullptr;
  Formula Body = nullptr;
  std::vector<MuBinding> Bindings;
};

/// Creates, interns and transforms formulas. A formula returned by a
/// factory lives until the factory's next clear(); the four constants
/// (⊤, ⊥, s, ¬s) live as long as the factory.
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

  /// Pretty-prints in the textual syntax understood by parseFormula.
  std::string toString(Formula F);

  /// \p F printed with positional binder names (appendFormula), memoized
  /// on F: the result cache's key text. Two formulas print the same text
  /// iff they differ only in the names of bound variables (freshVar draws
  /// new ones for every compilation), up to the grouping of a chain of
  /// one operator, which the grammar leaves unparenthesized. Shared, so a
  /// text the caller holds outlives clear().
  std::shared_ptr<const std::string> canonicalText(Formula F);

  /// Nodes held now; 4 after clear().
  size_t numNodes() const { return Arena.size(); }

  /// Starts a new epoch: drops every node but the four constants, which
  /// keep their addresses, empties the hash-cons table (keeping its
  /// capacity) and the unfold and canonical-text memos, and restarts
  /// freshVar's counter, so fresh names recur in every epoch. Every
  /// other formula the factory returned is invalid afterwards.
  void clear();

private:
  Formula intern(FormulaNode &&N);
  /// Places \p N in an empty slot of Unique; the table has room.
  void place(Formula N);
  Formula negateRec(Formula F,
                    std::unordered_set<Symbol> &FlippedVars,
                    std::unordered_map<Formula, Formula> &Memo);
  Formula substituteRec(Formula F,
                        const std::unordered_map<Symbol, Formula> &Map,
                        std::unordered_map<Formula, Formula> &Memo);

  /// The nodes, in blocks: addresses are stable and clear() frees whole
  /// blocks.
  std::deque<FormulaNode> Arena;
  /// The hash-cons table: open addressing with linear probing over a
  /// power-of-two number of slots, null when empty, doubled at half
  /// load and never shrunk.
  std::vector<Formula> Unique;
  std::unordered_map<Formula, Formula> UnfoldMemo;
  std::unordered_map<Formula, std::shared_ptr<const std::string>>
      CanonTextMemo;
  unsigned FreshCounter = 0;

  Formula TrueF = nullptr;
  Formula FalseF = nullptr;
  Formula StartF = nullptr;
  Formula NegStartF = nullptr;
};

/// Appends \p F to \p Out in toString's grammar, the one Lµ printer.
/// With \p PositionalBinders a bound variable prints as
/// `$%c<depth>_<index>` after its binder's place (depth counts the µs
/// enclosing the binder, index is its place in the binding list) instead
/// of by name; a free variable keeps its name. With \p Labels an atomic
/// proposition prints as `%<n>`, n its first-occurrence index in the map,
/// which the caller may carry across calls; without, by name.
void appendFormula(std::string &Out, Formula F, bool PositionalBinders = false,
                   std::unordered_map<Symbol, unsigned> *Labels = nullptr);

} // namespace xsa

#endif // XSA_LOGIC_FORMULA_H
