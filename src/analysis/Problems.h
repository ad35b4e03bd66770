//===- Problems.h - XPath decision problems (§8) -----------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision problems of §8, each reduced to (un)satisfiability of an
/// Lµ formula built from the XPath and type translations:
///
///   containment      E→⟦e1⟧⟦T1⟧ ∧ ¬E→⟦e2⟧⟦T2⟧ unsatisfiable
///   emptiness        E→⟦e⟧⟦T⟧ unsatisfiable
///   overlap          E→⟦e1⟧⟦T1⟧ ∧ E→⟦e2⟧⟦T2⟧ satisfiable
///   coverage         E→⟦e⟧⟦T⟧ ∧ ∧ᵢ ¬E→⟦eᵢ⟧⟦Tᵢ⟧ unsatisfiable
///   type check       E→⟦e⟧⟦T1⟧ ∧ ¬⟦T2⟧ unsatisfiable
///   equivalence      containment both ways
///
/// Each result carries the counterexample/witness tree extracted by the
/// solver (§7.2), annotated with the start mark, and — when an XPath
/// expression is involved — a target node computed by re-evaluating the
/// expression on the tree with the concrete semantics of Figs. 5-6.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_ANALYSIS_PROBLEMS_H
#define XSA_ANALYSIS_PROBLEMS_H

#include "solver/BddSolver.h"
#include "xpath/Ast.h"
#include "xtype/Dtd.h"

#include <optional>
#include <string>
#include <vector>

namespace xsa {

struct AnalysisResult {
  /// Did the queried property hold (containment holds / expression is
  /// empty / expressions overlap / ...)?
  bool Holds = false;
  /// Witness or counterexample tree when the underlying formula was
  /// satisfiable; carries the start mark.
  std::optional<Document> Tree;
  /// A node of Tree relevant to the property (e.g. selected by e1 and
  /// not by e2 for containment), or InvalidNodeId.
  NodeId Target = InvalidNodeId;
  SolverStats Stats;
  /// True when the underlying satisfiability query (both directions, for
  /// equivalence) was served from the result cache (SolverOptions::Cache).
  bool FromCache = false;
};

/// Front end to the solver for the decision problems of §8. A `Chi`
/// parameter is the Lµ context/type constraint for a query — FF.trueF()
/// for none, or a compiled type formula (compileDtd / compileType).
class Analyzer {
public:
  explicit Analyzer(FormulaFactory &FF, SolverOptions Opts = {})
      : FF(FF), Opts(Opts) {
    // XPath decision problems are about XML documents, which are
    // single-rooted (see SolverOptions::RequireSingleRoot).
    this->Opts.RequireSingleRoot = true;
  }

  /// Does \p E select no node whatsoever (under \p Chi)?
  AnalysisResult emptiness(const ExprRef &E, Formula Chi);

  /// Is every node selected by \p E1 (under \p Chi1) also selected by
  /// \p E2 (under \p Chi2)?
  AnalysisResult containment(const ExprRef &E1, Formula Chi1,
                             const ExprRef &E2, Formula Chi2);

  /// Do \p E1 and \p E2 select at least one common node?
  AnalysisResult overlap(const ExprRef &E1, Formula Chi1, const ExprRef &E2,
                         Formula Chi2);

  /// Is every node selected by \p E contained in the union of the
  /// results of \p Others?
  AnalysisResult coverage(const ExprRef &E, Formula Chi,
                          const std::vector<ExprRef> &Others,
                          const std::vector<Formula> &OtherChis);

  /// Are \p E1 and \p E2 equivalent (select the same nodes)?
  AnalysisResult equivalence(const ExprRef &E1, Formula Chi1,
                             const ExprRef &E2, Formula Chi2);

  /// Is every node selected by \p E under input type \p ChiIn the root
  /// of a tree of output type \p OutType (static type checking of an
  /// annotated query)?
  AnalysisResult staticTypeCheck(const ExprRef &E, Formula ChiIn,
                                 Formula OutType);

  /// Raw satisfiability of an arbitrary formula (with model).
  SolverResult satisfiable(Formula Psi);

  /// Drops the root formula and the compile memo, which hold formulas of
  /// the factory: call it whenever the factory is cleared.
  void clear();

private:
  FormulaFactory &FF;
  SolverOptions Opts;
  /// rootFormula() mints a fresh µ-variable per call; cache one copy so
  /// repeated queries build pointer-identical contexts (which keeps the
  /// compile memo below and the factory arena from growing per call).
  Formula RootF = nullptr;
  /// E→⟦e⟧χ memo keyed on (expression, original χ). Holding the ExprRef
  /// pins the AST, so the pointer key cannot be reused while cached.
  struct CompileKey {
    ExprRef E;
    Formula Chi;
    bool operator==(const CompileKey &O) const {
      return E == O.E && Chi == O.Chi;
    }
  };
  struct CompileKeyHash {
    size_t operator()(const CompileKey &K) const {
      return std::hash<const void *>()(K.E.get()) * 31 ^
             std::hash<const void *>()(K.Chi);
    }
  };
  std::unordered_map<CompileKey, Formula, CompileKeyHash> CompileMemo;

  Formula root();
  Formula contextFor(const ExprRef &E, Formula Chi);
  /// Memoized compileXPath(FF, E, contextFor(E, Chi)).
  Formula compiled(const ExprRef &E, Formula Chi);

  AnalysisResult fromSolver(SolverResult R, bool HoldsWhenUnsat,
                            const ExprRef *Selected, const ExprRef *Excluded);
};

} // namespace xsa

#endif // XSA_ANALYSIS_PROBLEMS_H
