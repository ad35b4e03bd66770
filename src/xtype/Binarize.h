//===- Binarize.h - Unranked DTD to binary tree types (Fig. 13) --*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary regular tree type expressions (§5.2):
///
///   T ::= ∅ | ε | T₁ ∪ T₂ | σ(X₁, X₂) | let X̄.T̄ in T
///
/// and the standard isomorphism from unranked regular tree grammars
/// (DTDs) to binary ones: X₁ describes the first child's list, X₂ the
/// list of following siblings (first-child / next-sibling encoding).
/// Variables are the states of each content model's Glushkov automaton;
/// a hedge-automaton-style minimization merges equivalent variables,
/// producing grammars of the size reported in the paper (Fig. 13: the
/// Wikipedia DTD yields 9 type variables over 9 terminals).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_XTYPE_BINARIZE_H
#define XSA_XTYPE_BINARIZE_H

#include "xtype/Dtd.h"

#include <string>
#include <vector>

namespace xsa {

/// A binary regular tree type grammar over variables $1..$n.
struct BinaryTypeGrammar {
  /// Reference to $Epsilon (the empty-list type).
  static constexpr int EpsilonVar = -1;

  /// One alternative σ(X1, X2) of a variable's union.
  struct Alt {
    Symbol Label;
    int X1; ///< first-child list variable, or EpsilonVar
    int X2; ///< next-sibling list variable, or EpsilonVar
    bool operator==(const Alt &O) const {
      return Label == O.Label && X1 == O.X1 && X2 == O.X2;
    }
  };

  struct Var {
    std::string Name;
    bool Nullable = false; ///< the union includes ε
    std::vector<Alt> Alts;
  };

  std::vector<Var> Vars;
  int Start = EpsilonVar;

  /// Number of type variables (Table 1's "Binary Type Variables").
  size_t numVars() const { return Vars.size(); }

  /// Terminals (labels) used.
  std::vector<Symbol> terminals() const;

  /// Pretty-prints in the style of Figure 13.
  std::string toString() const;
};

/// Binarizes \p D rooted at Dtd::root(). Empty nullable variables become
/// $Epsilon; when \p Minimize is set (the default), equivalent variables
/// are merged by partition refinement and the +-loop ε-alternatives are
/// folded into the Fig. 13 shape.
BinaryTypeGrammar binarize(const Dtd &D, bool Minimize = true);

} // namespace xsa

#endif // XSA_XTYPE_BINARIZE_H
