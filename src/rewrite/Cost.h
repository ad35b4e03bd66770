//===- Cost.h - XPath evaluation cost model ----------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static cost model for the XPath fragment, used by the rewrite
/// engine to rank candidates and to insist that accepted rewrites are
/// strictly cheaper. The model is deliberately simple — an estimated
/// step count with structural penalties — because its job is to *order*
/// solver-certified equivalent expressions, not to predict wall time:
///
///   * every step costs StepCost;
///   * reverse axes (parent, ancestor, anc-or-self, prec-sibling,
///     preceding) add ReverseAxisPenalty — streaming and index-backed
///     evaluators pay disproportionately for upward/backward navigation,
///     which is why reverse-axis elimination is a classic rewrite
///     target;
///   * transitive iteration (p)+ multiplies the body by IteratePenalty;
///   * qualifier content is discounted by QualifierDiscount per nesting
///     level (a filter existence check prunes early and is cheaper than
///     materializing the same steps on the selection path), while deep
///     predicate nesting still shows up in the total.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_REWRITE_COST_H
#define XSA_REWRITE_COST_H

#include "xpath/Ast.h"

namespace xsa {

/// Reverse axes in the Fig. 4 fragment: navigation against document
/// order / towards the root.
bool isReverseAxis(Axis A);

struct CostModel {
  static constexpr double StepCost = 1.0;
  static constexpr double ReverseAxisPenalty = 3.0;
  static constexpr double IteratePenalty = 2.0;
  static constexpr double QualifierDiscount = 0.5;

  double cost(const ExprRef &E) const;
  /// \p Scale is the accumulated qualifier discount (1.0 on the
  /// selection path).
  double cost(const PathRef &P, double Scale = 1.0) const;
  double cost(const QualifRef &Q, double Scale = 1.0) const;
};

} // namespace xsa

#endif // XSA_REWRITE_COST_H
