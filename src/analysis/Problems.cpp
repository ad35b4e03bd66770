//===- Problems.cpp - XPath decision problems (§8) -------------------------===//

#include "analysis/Problems.h"

#include "xpath/Compile.h"
#include "xpath/Eval.h"

using namespace xsa;

namespace {

/// Does the expression navigate from the root anywhere in its
/// union/intersection structure?
bool hasAbsoluteComponent(const ExprRef &E) {
  switch (E->K) {
  case XPathExpr::Absolute:
    return true;
  case XPathExpr::Relative:
    return false;
  case XPathExpr::Union:
  case XPathExpr::Intersect:
    return hasAbsoluteComponent(E->E1) || hasAbsoluteComponent(E->E2);
  }
  return false;
}

} // namespace

Formula Analyzer::root() {
  if (!RootF)
    RootF = rootFormula(FF);
  return RootF;
}

/// §5.2: when a type constrains an absolute query, anchor the type's
/// root at the document root so the query cannot navigate above it.
Formula Analyzer::contextFor(const ExprRef &E, Formula Chi) {
  if (Chi == FF.trueF() || !hasAbsoluteComponent(E))
    return Chi;
  return FF.conj(Chi, root());
}

Formula Analyzer::compiled(const ExprRef &E, Formula Chi) {
  CompileKey K{E, Chi};
  auto It = CompileMemo.find(K);
  if (It != CompileMemo.end())
    return It->second;
  Formula F = compileXPath(FF, E, contextFor(E, Chi));
  CompileMemo.emplace(std::move(K), F);
  return F;
}

void Analyzer::clear() {
  RootF = nullptr;
  CompileMemo.clear();
}

SolverResult Analyzer::satisfiable(Formula Psi) {
  BddSolver Solver(FF, Opts);
  return Solver.solve(Psi);
}

AnalysisResult Analyzer::fromSolver(SolverResult R, bool HoldsWhenUnsat,
                                    const ExprRef *Selected,
                                    const ExprRef *Excluded) {
  AnalysisResult A;
  A.Stats = R.Stats;
  A.FromCache = R.FromCache;
  A.Holds = HoldsWhenUnsat ? !R.Satisfiable : R.Satisfiable;
  if (R.Model) {
    A.Tree = std::move(R.Model);
    // Annotate a target node by re-running the concrete semantics.
    if (Selected && A.Tree->markedNode() != InvalidNodeId) {
      NodeSet Sel = evalXPath(*A.Tree, *Selected);
      if (Excluded) {
        for (NodeId N : evalXPath(*A.Tree, *Excluded))
          Sel.erase(N);
      }
      if (!Sel.empty())
        A.Target = *Sel.begin();
    }
  }
  return A;
}

AnalysisResult Analyzer::emptiness(const ExprRef &E, Formula Chi) {
  Formula Psi = compiled(E, Chi);
  return fromSolver(satisfiable(Psi), /*HoldsWhenUnsat=*/true, &E, nullptr);
}

AnalysisResult Analyzer::containment(const ExprRef &E1, Formula Chi1,
                                     const ExprRef &E2, Formula Chi2) {
  Formula Psi =
      FF.conj(compiled(E1, Chi1), FF.negate(compiled(E2, Chi2)));
  return fromSolver(satisfiable(Psi), /*HoldsWhenUnsat=*/true, &E1, &E2);
}

AnalysisResult Analyzer::overlap(const ExprRef &E1, Formula Chi1,
                                 const ExprRef &E2, Formula Chi2) {
  Formula Psi = FF.conj(compiled(E1, Chi1), compiled(E2, Chi2));
  return fromSolver(satisfiable(Psi), /*HoldsWhenUnsat=*/false, &E1, nullptr);
}

AnalysisResult Analyzer::coverage(const ExprRef &E, Formula Chi,
                                  const std::vector<ExprRef> &Others,
                                  const std::vector<Formula> &OtherChis) {
  Formula Psi = compiled(E, Chi);
  for (size_t I = 0; I < Others.size(); ++I) {
    Formula ChiI = I < OtherChis.size() ? OtherChis[I] : FF.trueF();
    Psi = FF.conj(Psi, FF.negate(compiled(Others[I], ChiI)));
  }
  return fromSolver(satisfiable(Psi), /*HoldsWhenUnsat=*/true, &E, nullptr);
}

AnalysisResult Analyzer::equivalence(const ExprRef &E1, Formula Chi1,
                                     const ExprRef &E2, Formula Chi2) {
  AnalysisResult Forward = containment(E1, Chi1, E2, Chi2);
  if (!Forward.Holds)
    return Forward;
  AnalysisResult Backward = containment(E2, Chi2, E1, Chi1);
  Backward.Stats.TimeMs += Forward.Stats.TimeMs;
  Backward.Stats.Iterations += Forward.Stats.Iterations;
  Backward.FromCache = Backward.FromCache && Forward.FromCache;
  return Backward;
}

AnalysisResult Analyzer::staticTypeCheck(const ExprRef &E, Formula ChiIn,
                                         Formula OutType) {
  Formula Psi = FF.conj(compiled(E, ChiIn), FF.negate(OutType));
  return fromSolver(satisfiable(Psi), /*HoldsWhenUnsat=*/true, &E, nullptr);
}
