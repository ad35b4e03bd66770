//===- Eval.h - Direct semantics of Lµ on finite trees -----------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct (non-symbolic) evaluator of Lµ formulas over a concrete
/// Document, computing the set of nodes whose focused tree belongs to the
/// interpretation of Figure 2. The document's mark plays the role of the
/// start mark s.
///
/// This evaluator is *not* the decision procedure — it checks one finite
/// tree. It serves as the semantic ground truth for testing: translation
/// correctness (Prop 5.1), solver soundness (extracted models must satisfy
/// the formula), negation, and the least/greatest fixpoint collapse of
/// Lemma 4.2 (both semantics are implemented).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_LOGIC_EVAL_H
#define XSA_LOGIC_EVAL_H

#include "logic/Formula.h"
#include "support/DynBitset.h"
#include "tree/Document.h"

namespace xsa {

enum class FixpointSemantics {
  Least,    ///< µ: iterate from ∅ (the logic's official semantics)
  Greatest, ///< ν: iterate from all nodes (for Lemma 4.2 tests)
};

/// Returns the bit set of nodes of \p Doc at which the closed formula
/// \p F holds.
DynBitset evalFormula(const Document &Doc, FormulaFactory &FF, Formula F,
                      FixpointSemantics Sem = FixpointSemantics::Least);

} // namespace xsa

#endif // XSA_LOGIC_EVAL_H
