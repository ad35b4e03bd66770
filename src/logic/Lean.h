//===- Lean.h - Fisher-Ladner closure and the Lean (§6.1) --------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *Lean* of a formula ψ (§6.1, after Pan–Sattler–Vardi):
///
///   Lean(ψ) = {⟨a⟩⊤ | a ∈ {1,2,1̄,2̄}} ∪ Σ(ψ) ∪ {σx} ∪ {s}
///           ∪ {⟨a⟩φ ∈ cl(ψ)}
///
/// where cl(ψ) is the Fisher–Ladner closure (subformulas, with fixpoints
/// unwound once) and σx is a fresh atomic proposition standing for every
/// label not occurring in ψ. A ψ-type (Hintikka set) is a subset of the
/// Lean satisfying modal consistency, "not both a first and a second
/// child", and "exactly one atomic proposition".
///
/// Lean members are ordered by a breadth-first traversal of ψ, which is
/// the BDD variable-order heuristic of §7.4 (it keeps sister subformulas
/// close). Alternative orders are available for the ablation benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_LOGIC_LEAN_H
#define XSA_LOGIC_LEAN_H

#include "logic/Formula.h"
#include "support/DynBitset.h"

#include <unordered_map>
#include <vector>

namespace xsa {

/// How Lean members (and hence BDD variables) are ordered.
enum class LeanOrder {
  BreadthFirst, ///< §7.4 heuristic (default)
  DepthFirst,   ///< ablation: depth-first encounter order
  Reversed,     ///< ablation: breadth-first reversed
};

class Lean {
public:
  /// Computes the Lean of \p Psi (which must be closed and cycle-free).
  static Lean compute(FormulaFactory &FF, Formula Psi,
                      LeanOrder Order = LeanOrder::BreadthFirst);

  /// All lean members in variable order. Atomic propositions appear as
  /// Prop formulas, the start mark as Start, modal members as Exist.
  const std::vector<Formula> &members() const { return Members; }
  size_t size() const { return Members.size(); }

  /// Bit index of ⟨a⟩⊤.
  unsigned diamTopIndex(Program A) const {
    return DiamTopIdx[static_cast<int>(A)];
  }

  /// Bit index of the start proposition s.
  unsigned startIndex() const { return StartIdx; }

  /// Bit index of atomic proposition σ; σ must be in props().
  unsigned propIndex(Symbol S) const { return PropIdx.at(S); }
  bool hasProp(Symbol S) const { return PropIdx.count(S) != 0; }

  /// All atomic propositions (Σ(ψ) followed by σx).
  const std::vector<Symbol> &props() const { return PropSyms; }

  /// The "some other label" proposition σx.
  Symbol otherProp() const { return OtherSym; }

  /// Bit index of a modal lean member ⟨a⟩φ (⊤ child included);
  /// returns ~0u if absent.
  unsigned existIndex(Formula Diamond) const {
    auto It = ExistIdx.find(Diamond);
    return It == ExistIdx.end() ? ~0u : It->second;
  }

  /// Indices of all modal members ⟨a⟩φ with program \p A (including ⟨a⟩⊤).
  std::vector<unsigned> existsOfProgram(Program A) const;

  /// True if bit \p I is a modal member (⟨a⟩φ for some a, including ⟨a⟩⊤).
  bool isExist(unsigned I) const {
    return Members[I]->is(FormulaKind::Exist);
  }

  /// Checks the ψ-type (Hintikka) conditions of §6.1 on a bit vector.
  bool isValidType(const DynBitset &T) const;

  /// The truth-assignment relation φ .∈ t of Figure 15, evaluated on a
  /// ψ-type given as a bit vector over the lean. \p F must be built from
  /// lean members (any formula in cl*(ψ)).
  bool status(FormulaFactory &FF, Formula F, const DynBitset &T) const;

  /// Human-readable description of lean member \p I.
  std::string memberName(FormulaFactory &FF, unsigned I) const;

  /// Canonical lean signature: the ordered canonical texts of all lean
  /// members — binders renamed to their binding positions
  /// (canonicalize) and atomic propositions renamed to their
  /// first-occurrence index over the member list — length-prefix framed
  /// so the concatenation is injective. Members are closed (compute()
  /// steps through fixpoints by unfolding), so the signature is
  /// factory-independent: two leans have equal signatures iff their
  /// member lists agree up to binder names and an order-preserving
  /// relabeling of the alphabet — exactly the condition under which the
  /// solver's §7.1 iterate sequence, which addresses propositions only
  /// through lean indices, is bit-for-bit the same for both. This is
  /// the sharing key of the cross-request fixpoint store
  /// (SharedFixpointStore, solver/BddSolver.h).
  std::string signature(FormulaFactory &FF) const;

private:
  std::vector<Formula> Members;
  unsigned DiamTopIdx[4] = {0, 0, 0, 0};
  unsigned StartIdx = 0;
  std::vector<Symbol> PropSyms;
  Symbol OtherSym = 0;
  std::unordered_map<Symbol, unsigned> PropIdx;
  std::unordered_map<Formula, unsigned> ExistIdx;
};

} // namespace xsa

#endif // XSA_LOGIC_LEAN_H
