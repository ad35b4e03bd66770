//===- solver_test.cpp - Satisfiability solvers (§6, §7) ------------------===//
//
// Tests the symbolic solver and the explicit reference solver: known
// (un)satisfiable formulas, soundness (extracted models satisfy the
// formula under the direct semantics), agreement between the two solvers
// on random formulas, the paper's Fig. 18 run, and solver options
// (variable orders, early quantification, early termination).
//
//===----------------------------------------------------------------------===//

#include "logic/CycleFree.h"
#include "logic/Eval.h"
#include "logic/Parser.h"
#include "solver/ExplicitSolver.h"
#include "tree/Xml.h"
#include "xpath/Compile.h"
#include "xpath/Eval.h"
#include "xpath/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace xsa;

namespace {

Formula parse(FormulaFactory &FF, const std::string &S) {
  std::string Err;
  Formula F = parseFormula(FF, S, Err);
  EXPECT_NE(F, nullptr) << Err << " in: " << S;
  return F;
}

ExprRef xp(const std::string &S) {
  std::string Err;
  ExprRef E = parseXPath(S, Err);
  EXPECT_NE(E, nullptr) << Err << " in: " << S;
  return E;
}

/// Solves with the BDD solver and, when satisfiable, checks the model
/// against the direct semantics (soundness, Lemma 6.5).
SolverResult solveChecked(FormulaFactory &FF, Formula Psi,
                          SolverOptions Opts = {}) {
  BddSolver Solver(FF, Opts);
  SolverResult R = Solver.solve(Psi);
  if (R.Satisfiable && R.Model) {
    // The plunged formula holds somewhere: ψ itself must hold at some
    // node of the model.
    DynBitset Sat = evalFormula(*R.Model, FF, Psi);
    EXPECT_TRUE(Sat.any()) << "model does not satisfy "
                           << FF.toString(Psi) << "\n"
                           << printXml(*R.Model);
    // Exactly one start mark.
    EXPECT_NE(R.Model->markedNode(), InvalidNodeId);
  }
  return R;
}

TEST(BddSolver, Basics) {
  FormulaFactory FF;
  EXPECT_TRUE(solveChecked(FF, FF.trueF()).Satisfiable);
  EXPECT_FALSE(solveChecked(FF, FF.falseF()).Satisfiable);
  EXPECT_TRUE(solveChecked(FF, FF.prop("a")).Satisfiable);
  EXPECT_FALSE(
      solveChecked(FF, FF.conj(FF.prop("a"), FF.negProp("a"))).Satisfiable);
  EXPECT_TRUE(solveChecked(FF, FF.start()).Satisfiable);
  EXPECT_TRUE(solveChecked(FF, FF.negStart()).Satisfiable);
  EXPECT_FALSE(
      solveChecked(FF, FF.conj(FF.start(), FF.negStart())).Satisfiable);
}

TEST(BddSolver, Modalities) {
  FormulaFactory FF;
  // A node with a b child under an a node.
  EXPECT_TRUE(solveChecked(FF, parse(FF, "a & <1>b")).Satisfiable);
  // A first child cannot also have a previous sibling.
  EXPECT_FALSE(solveChecked(FF, parse(FF, "<-1>a & <-2>b")).Satisfiable);
  // ⟨a⟩⊤ ∧ ¬⟨a⟩⊤ is unsatisfiable.
  EXPECT_FALSE(solveChecked(FF, parse(FF, "<1>T & ~<1>T")).Satisfiable);
  // Deep obligations are satisfiable.
  EXPECT_TRUE(
      solveChecked(FF, parse(FF, "<1>(a & <2>(b & <1>c))")).Satisfiable);
  // Both a leaf and a parent: unsatisfiable.
  EXPECT_FALSE(solveChecked(FF, parse(FF, "~<1>T & <1>a")).Satisfiable);
}

TEST(BddSolver, FixpointFormulas) {
  FormulaFactory FF;
  // Some descendant chain of a's ending with b.
  Formula F = parse(FF, "a & <1>(mu $X . b | <2>$X)");
  EXPECT_TRUE(solveChecked(FF, F).Satisfiable);
  // µX.⟨1⟩X alone is unsatisfiable on finite trees.
  EXPECT_FALSE(solveChecked(FF, parse(FF, "mu $X . <1>$X")).Satisfiable);
  // ... but µX. a | ⟨1⟩X is satisfiable (finite unfolding).
  EXPECT_TRUE(solveChecked(FF, parse(FF, "mu $X . a | <1>$X")).Satisfiable);
}

TEST(BddSolver, StartMarkUniqueness) {
  FormulaFactory FF;
  // "There are two marks in the tree" must be unsatisfiable thanks to
  // the Fig. 16 single-mark discipline: ask for a mark with a marked
  // strict descendant.
  Formula TwoMarks =
      parse(FF, "#s & <1>(mu $X . #s | <1>$X | <2>$X)");
  EXPECT_FALSE(solveChecked(FF, TwoMarks).Satisfiable);
  // A mark plus an unmarked descendant is fine.
  Formula MarkAndChild = parse(FF, "#s & <1>(b & ~#s)");
  EXPECT_TRUE(solveChecked(FF, MarkAndChild).Satisfiable);
}

TEST(BddSolver, ModelExtraction) {
  FormulaFactory FF;
  Formula F = parse(FF, "a & <1>(b & <2>c) & <-1>d");
  SolverResult R = solveChecked(FF, F);
  ASSERT_TRUE(R.Satisfiable);
  ASSERT_TRUE(R.Model.has_value());
  // The model must contain at least d[a[b c]].
  const Document &D = *R.Model;
  bool Found = false;
  for (NodeId N = 0; N < static_cast<NodeId>(D.size()); ++N)
    if (evalFormula(D, FF, F).test(N))
      Found = true;
  EXPECT_TRUE(Found);
  EXPECT_GE(D.size(), 4u);
}

TEST(BddSolver, ModelIsMinimalDepthForLeafFormulas) {
  FormulaFactory FF;
  SolverResult R = solveChecked(FF, parse(FF, "a & ~<1>T & ~<2>T"));
  ASSERT_TRUE(R.Satisfiable);
  // A single-node model suffices and the reconstruction searches the
  // earliest intermediate set first (§7.2).
  EXPECT_EQ(R.Model->size(), 1u);
  EXPECT_EQ(R.Stats.Iterations, 1u);
}

TEST(BddSolver, XPathEmptinessExamples) {
  FormulaFactory FF;
  // self::a ∩ self::b selects nodes carrying two names at once: empty.
  Formula Empty = compileXPath(FF, xp("self::a & self::b"), FF.trueF());
  EXPECT_FALSE(solveChecked(FF, Empty).Satisfiable);
  Formula NonEmpty = compileXPath(FF, xp("a/b[c]"), FF.trueF());
  EXPECT_TRUE(solveChecked(FF, NonEmpty).Satisfiable);
}

TEST(BddSolver, SingleRootOption) {
  // ⟨2⟩a at the focus of a root requires a top-level sibling: the
  // paper's hedge models allow it, single-rooted document models do not.
  FormulaFactory FF;
  Formula NeedsSibling = parse(FF, "b & ~<-1>T & ~<-2>T & <2>a");
  SolverOptions Hedge;
  SolverResult RH = solveChecked(FF, NeedsSibling, Hedge);
  EXPECT_TRUE(RH.Satisfiable);
  ASSERT_TRUE(RH.Model.has_value());
  EXPECT_GE(RH.Model->roots().size(), 2u);
  SolverOptions Single;
  Single.RequireSingleRoot = true;
  BddSolver SolverS(FF, Single);
  EXPECT_FALSE(SolverS.solve(NeedsSibling).Satisfiable);
  // An ordinary satisfiable formula stays satisfiable with a single root.
  EXPECT_TRUE(SolverS.solve(parse(FF, "a & <1>b")).Satisfiable);
}

TEST(BddSolver, HelperFormulasAreCycleFree) {
  FormulaFactory FF;
  EXPECT_TRUE(isCycleFree(singleMarkFormula(FF)));
  EXPECT_EQ(singleMarkFormula(FF), singleMarkFormula(FF))
      << "fixed binder names: every call is the same hash-consed node";
  EXPECT_TRUE(isCycleFree(plungeFormula(FF, FF.prop("a"))));
}

//===----------------------------------------------------------------------===//
// Figure 18: e1 = child::c/preceding-sibling::a[child::b],
//            e2 = child::c[child::b]; e1 ⊄ e2 with a depth-3 witness.
//===----------------------------------------------------------------------===//

TEST(BddSolver, Figure18Containment) {
  FormulaFactory FF;
  Formula F1 =
      compileXPath(FF, xp("child::c/prec-sibling::a[child::b]"), FF.trueF());
  Formula F2 = compileXPath(FF, xp("child::c[child::b]"), FF.trueF());
  Formula Psi = FF.conj(F1, FF.negate(F2));
  SolverResult R = solveChecked(FF, Psi);
  EXPECT_TRUE(R.Satisfiable) << "e1 should not be contained in e2";
  ASSERT_TRUE(R.Model.has_value());
  // The paper's counterexample has 4 nodes (root + a[b] + c) arranged
  // over 3 levels of the binary encoding; ours must at least be a valid
  // counterexample: some node selected by e1 and not by e2.
  const Document &D = *R.Model;
  NodeSet Sel1 = evalXPath(D, xp("child::c/prec-sibling::a[child::b]"));
  NodeSet Sel2 = evalXPath(D, xp("child::c[child::b]"));
  bool Diff = false;
  for (NodeId N : Sel1)
    if (!Sel2.count(N))
      Diff = true;
  EXPECT_TRUE(Diff) << printXml(D);
}

TEST(BddSolver, Figure18ReverseHolds) {
  // The other direction e2 ⊆ e1 does not hold either (c[b] selects c
  // nodes, e1 selects a nodes).
  FormulaFactory FF;
  Formula F1 =
      compileXPath(FF, xp("child::c/prec-sibling::a[child::b]"), FF.trueF());
  Formula F2 = compileXPath(FF, xp("child::c[child::b]"), FF.trueF());
  EXPECT_TRUE(solveChecked(FF, FF.conj(F2, FF.negate(F1))).Satisfiable);
  // And a containment that does hold: a[b] ⊆ a.
  Formula G1 = compileXPath(FF, xp("a[b]"), FF.trueF());
  Formula G2 = compileXPath(FF, xp("a"), FF.trueF());
  EXPECT_FALSE(solveChecked(FF, FF.conj(G1, FF.negate(G2))).Satisfiable);
  // Equivalence of syntactically different expressions:
  // a/b[c] ≡ a/b[c] ∪ (a & a)/b[c] trivially; use desc-or-self vs
  // explicit: descendant::a ≡ child::a ∪ child::*/descendant::a.
  Formula H1 = compileXPath(FF, xp("descendant::a"), FF.trueF());
  Formula H2 = compileXPath(FF, xp("a | */descendant::a"), FF.trueF());
  EXPECT_FALSE(solveChecked(FF, FF.conj(H1, FF.negate(H2))).Satisfiable);
  EXPECT_FALSE(solveChecked(FF, FF.conj(H2, FF.negate(H1))).Satisfiable);
}

//===----------------------------------------------------------------------===//
// Options: all solver configurations agree.
//===----------------------------------------------------------------------===//

class SolverOptionsTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverOptionsTest, ConfigurationsAgree) {
  int Config = GetParam();
  SolverOptions Opts;
  Opts.Order = static_cast<LeanOrder>(Config % 3);
  Opts.EarlyQuantification = (Config / 3) % 2 == 0;
  Opts.EarlyTermination = (Config / 6) % 2 == 0;
  FormulaFactory FF;
  struct Case {
    const char *Src;
    bool Sat;
  } Cases[] = {
      {"a & <1>b", true},
      {"<-1>a & <-2>b", false},
      {"a & <1>(mu $X . b | <2>$X)", true},
      {"mu $X . <1>$X", false},
      {"#s & <1>(mu $X . #s | <1>$X | <2>$X)", false},
      {"c & ~<1>T & <-2>(a & <1>b & <-1>#s)", true}, // Fig. 18-like
  };
  for (const Case &C : Cases) {
    SolverResult R = solveChecked(FF, parse(FF, C.Src), Opts);
    EXPECT_EQ(R.Satisfiable, C.Sat) << C.Src << " config " << Config;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, SolverOptionsTest, ::testing::Range(0, 12));

//===----------------------------------------------------------------------===//
// Differential testing: explicit (Fig. 16) vs symbolic (§7).
//===----------------------------------------------------------------------===//

TEST(ExplicitSolver, AgreesOnCuratedCases) {
  FormulaFactory FF;
  struct Case {
    const char *Src;
    bool Sat;
  } Cases[] = {
      {"a", true},
      {"a & ~a", false},
      {"a & <1>b", true},
      {"<1>T & ~<1>T", false},
      {"<-1>a & <-2>b", false},
      {"a & <1>(b & <2>c)", true},
      {"#s & <1>(b & ~#s)", true},
      {"#s & <1>#s", false},
      {"mu $X . a | <1>$X", true},
      {"mu $X . <1>$X", false},
  };
  for (const Case &C : Cases) {
    Formula F = parse(FF, C.Src);
    ExplicitSolver ES(FF);
    ExplicitSolver::Result ER = ES.solve(F);
    ASSERT_TRUE(ER.Feasible) << C.Src;
    EXPECT_EQ(ER.Satisfiable, C.Sat) << C.Src;
    if (ER.Satisfiable) {
      ASSERT_TRUE(ER.Model.has_value());
      EXPECT_TRUE(evalFormula(*ER.Model, FF, F).any())
          << C.Src << "\n"
          << printXml(*ER.Model);
    }
    SolverResult BR = solveChecked(FF, F);
    EXPECT_EQ(BR.Satisfiable, C.Sat) << C.Src;
  }
}

/// Random small NNF formulas for the differential sweep.
Formula randomFormula(FormulaFactory &FF, std::mt19937 &Rng, int Depth) {
  const char *Labels[] = {"a", "b"};
  switch (Rng() % (Depth <= 0 ? 4 : 8)) {
  case 0:
    return FF.prop(Labels[Rng() % 2]);
  case 1:
    return FF.negProp(Labels[Rng() % 2]);
  case 2:
    return Rng() % 2 ? FF.start() : FF.negStart();
  case 3:
    return FF.negDiamondTop(static_cast<Program>(Rng() % 4));
  case 4:
    return FF.conj(randomFormula(FF, Rng, Depth - 1),
                   randomFormula(FF, Rng, Depth - 1));
  case 5:
    return FF.disj(randomFormula(FF, Rng, Depth - 1),
                   randomFormula(FF, Rng, Depth - 1));
  default:
    return FF.diamond(static_cast<Program>(Rng() % 4),
                      randomFormula(FF, Rng, Depth - 1));
  }
}

class DifferentialSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialSolverTest, ExplicitAndSymbolicAgree) {
  std::mt19937 Rng(GetParam());
  FormulaFactory FF;
  for (int Round = 0; Round < 6; ++Round) {
    Formula F = randomFormula(FF, Rng, 3);
    ExplicitSolver ES(FF, /*MaxModalBits=*/18);
    ExplicitSolver::Result ER = ES.solve(F);
    if (!ER.Feasible)
      continue;
    SolverResult BR = solveChecked(FF, F);
    EXPECT_EQ(ER.Satisfiable, BR.Satisfiable) << FF.toString(F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSolverTest,
                         ::testing::Range(1, 13));

} // namespace
