//===- Compile.h - XPath to Lµ translation (Figs. 7, 8, 10) ------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear translation of the XPath fragment into Lµ (§5.1):
///
///  * A→⟦a⟧χ — "navigational" translation of axes: holds at every node
///    reachable through axis a from a node satisfying χ (Fig. 7);
///  * E→⟦e⟧χ, P→⟦p⟧χ — translation of expressions and paths; a relative
///    path marks its initial context with the start proposition s, an
///    absolute path restarts from the root (Fig. 8);
///  * Q←⟦q⟧χ, P←⟦p⟧χ, A←⟦a⟧χ — "filtering" translation for qualifiers,
///    which asserts the existence of a path without moving the focus,
///    using the symmetric axes (Fig. 10).
///
/// The translated formula is cycle free and of size linear in |e| + |χ|
/// (Prop 5.1), which is what keeps the overall decision procedure at
/// 2^O(n).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_XPATH_COMPILE_H
#define XSA_XPATH_COMPILE_H

#include "logic/Formula.h"
#include "xpath/Ast.h"

namespace xsa {

/// A→⟦a⟧χ (Fig. 7).
Formula compileAxis(FormulaFactory &FF, Axis A, Formula Chi);

/// E→⟦e⟧χ (Fig. 8): the formula holding exactly at the nodes selected by
/// \p E when evaluation starts from the (marked) context satisfying
/// \p Chi. Pass FF.trueF() for an unconstrained context, or a type
/// formula for evaluation under a regular tree type (§8).
Formula compileXPath(FormulaFactory &FF, const ExprRef &E, Formula Chi);

/// P→⟦p⟧χ (Fig. 8).
Formula compilePath(FormulaFactory &FF, const PathRef &P, Formula Chi);

/// µZ.(¬⟨1̄⟩⊤ ∧ (¬⟨2̄⟩⊤ ∨ ⟨2̄⟩Z)): the focus is at the root. This is the
/// restriction §5.2 recommends conjoining to a type formula when the
/// type is used by an absolute XPath expression, so that the query's
/// root and the type's root coincide.
Formula rootFormula(FormulaFactory &FF);

} // namespace xsa

#endif // XSA_XPATH_COMPILE_H
