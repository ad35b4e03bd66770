//===- logic_test.cpp - Lµ formulas, cycle-freeness, lean, semantics ------===//
//
// Tests §4 (the logic, fixpoint collapse, negation), §6.1 (lean, truth
// assignment), the parser/printer, and the direct evaluator.
//
//===----------------------------------------------------------------------===//

#include "logic/CycleFree.h"
#include "logic/Eval.h"
#include "logic/Formula.h"
#include "logic/Lean.h"
#include "logic/Parser.h"
#include "tree/Xml.h"

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

Document doc(const std::string &Xml) {
  Document D;
  std::string Err;
  EXPECT_TRUE(parseXml(Xml, D, Err)) << Err;
  return D;
}

TEST(Formula, HashConsing) {
  FormulaFactory FF;
  Formula A = FF.conj(FF.prop("a"), FF.diamond(Program::Child, FF.prop("b")));
  Formula B = FF.conj(FF.prop("a"), FF.diamond(Program::Child, FF.prop("b")));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, FF.conj(FF.prop("a"), FF.prop("b")));
}

TEST(Formula, ClearKeepsOnlyTheConstants) {
  FormulaFactory FF;
  Formula T = FF.trueF(), F = FF.falseF(), S = FF.start(), NS = FF.negStart();
  const std::string Text = "let $X = a & ~#s | <1>$X | <2>(b & ~<1>T) in $X";
  std::string Printed = FF.toString(parse(FF, Text));
  Symbol Z1 = FF.freshVar("Z");
  EXPECT_EQ(symbolName(Z1), "Z1");
  auto Build = [&](int I) {
    return FF.diamond(Program::Child, FF.prop("p" + std::to_string(I)));
  };
  // Enough distinct nodes to double the hash-cons table several times;
  // each is found again after the doublings.
  std::vector<Formula> Built;
  for (int I = 0; I < 5000; ++I)
    Built.push_back(Build(I));
  for (int I = 0; I < 5000; ++I)
    EXPECT_EQ(Build(I), Built[I]);
  EXPECT_GT(FF.numNodes(), 10000u);

  FF.clear();
  EXPECT_EQ(FF.numNodes(), 4u);
  EXPECT_EQ(FF.trueF(), T);
  EXPECT_EQ(FF.falseF(), F);
  EXPECT_EQ(FF.start(), S);
  EXPECT_EQ(FF.negStart(), NS);
  EXPECT_EQ(FF.toString(parse(FF, Text)), Printed);
  EXPECT_EQ(FF.freshVar("Z"), Z1) << "fresh names restart in a new epoch";

  // The emptied table, which keeps its capacity, still hash-conses.
  Formula A = parse(FF, Text);
  EXPECT_EQ(parse(FF, Text), A);
  Built.clear();
  for (int I = 0; I < 5000; ++I)
    Built.push_back(Build(I));
  size_t Nodes = FF.numNodes();
  for (int I = 0; I < 5000; ++I)
    EXPECT_EQ(Build(I), Built[I]);
  EXPECT_EQ(parse(FF, Text), A);
  EXPECT_EQ(FF.numNodes(), Nodes) << "building a formula twice gives one node";
}

TEST(Formula, Simplifications) {
  FormulaFactory FF;
  Formula A = FF.prop("a");
  EXPECT_EQ(FF.conj(A, FF.trueF()), A);
  EXPECT_EQ(FF.conj(FF.trueF(), A), A);
  EXPECT_EQ(FF.conj(A, FF.falseF()), FF.falseF());
  EXPECT_EQ(FF.disj(A, FF.falseF()), A);
  EXPECT_EQ(FF.disj(A, FF.trueF()), FF.trueF());
  EXPECT_EQ(FF.conj(A, A), A);
  EXPECT_EQ(FF.disj(A, A), A);
  EXPECT_EQ(FF.diamond(Program::Child, FF.falseF()), FF.falseF());
}

TEST(Formula, NegationDualities) {
  FormulaFactory FF;
  Formula A = FF.prop("a");
  EXPECT_EQ(FF.negate(A), FF.negProp("a"));
  EXPECT_EQ(FF.negate(FF.negate(A)), A);
  EXPECT_EQ(FF.negate(FF.trueF()), FF.falseF());
  EXPECT_EQ(FF.negate(FF.start()), FF.negStart());
  // ¬⟨a⟩φ = ¬⟨a⟩⊤ ∨ ⟨a⟩¬φ.
  Formula D = FF.diamond(Program::Sibling, A);
  EXPECT_EQ(FF.negate(D),
            FF.disj(FF.negDiamondTop(Program::Sibling),
                    FF.diamond(Program::Sibling, FF.negProp("a"))));
  // Double negation of a fixpoint formula is semantically the identity
  // (syntactically it may differ: ¬⟨a⟩φ introduces a ¬⟨a⟩⊤ disjunct whose
  // negation is ⟨a⟩⊤ ∧ ⟨a⟩φ).
  FormulaFactory FF2;
  Formula Mu = parse(FF2, "let $X = a | <1>$X in $X");
  Formula NotNotMu = FF2.negate(FF2.negate(Mu));
  Document Tree;
  std::string Err;
  ASSERT_TRUE(parseXml("<r><a><b/><a/></a><c/></r>", Tree, Err));
  EXPECT_EQ(evalFormula(Tree, FF2, Mu), evalFormula(Tree, FF2, NotNotMu));
}

TEST(Formula, ParserPrinterRoundTrip) {
  FormulaFactory FF;
  const char *Cases[] = {
      "T",
      "F",
      "a",
      "~a",
      "#s",
      "a & b",
      "a | b & c",
      "<1>a",
      "<2>(a | b)",
      "<-1>T",
      "<-2>a & <1>b",
      "let $X = a | <1>$X in $X",
      "let $X = <1>$Y; $Y = <2>$X | b in $X & c",
      "mu $Z . a | <2>$Z",
  };
  for (const char *Src : Cases) {
    Formula F = parse(FF, Src);
    std::string Printed = FF.toString(F);
    Formula F2 = parse(FF, Printed);
    EXPECT_EQ(F, F2) << Src << " printed as " << Printed;
  }
}

TEST(Formula, OnePrinterPinsItsThreeTexts) {
  // toString, the result-cache key and the lean signature are one
  // printer with two switches (binder names, label names). Pin their
  // bytes on a formula with nested and shadowed binders, a binding never
  // used ($U), a free variable ($Z) and a label (a) shared by two lean
  // members; the signature is of the closed part, as a lean needs.
  FormulaFactory FF;
  const std::string Closed =
      "let $X = <1>(a & (let $X = b | <2>$X; $U = a in $X)) | <2>$X in $X";
  Formula F = parse(FF, "(" + Closed + ") & <2>$Z");
  EXPECT_EQ(FF.toString(F), "(" + Closed + ") & <2>$Z");
  EXPECT_EQ(*FF.canonicalText(F),
            "(let $%c0_0 = <1>(a & (let $%c1_0 = b | <2>$%c1_0; "
            "$%c1_1 = a in $%c1_0)) | <2>$%c0_0 in $%c0_0) & <2>$Z");
  EXPECT_EQ(Lean::compute(FF, parse(FF, Closed)).signature(),
            "4:<1>T4:<2>T5:<-1>T5:<-2>T2:#s"
            "62:<1>(%0 & (let $%c0_0 = %1 | <2>$%c0_0; $%c0_1 = %0 in "
            "$%c0_0))"
            "102:<2>(let $%c0_0 = <1>(%0 & (let $%c1_0 = %1 | <2>$%c1_0; "
            "$%c1_1 = %0 in $%c1_0)) | <2>$%c0_0 in $%c0_0)"
            "2:%02:%1"
            "55:<2>(let $%c0_0 = %1 | <2>$%c0_0; $%c0_1 = %0 in $%c0_0)"
            "2:%2");
}

TEST(Formula, ParserErrors) {
  FormulaFactory FF;
  std::string Err;
  EXPECT_EQ(parseFormula(FF, "a &", Err), nullptr);
  EXPECT_EQ(parseFormula(FF, "<3>a", Err), nullptr);
  EXPECT_EQ(parseFormula(FF, "let $X = a in", Err), nullptr);
  EXPECT_EQ(parseFormula(FF, "(a | b", Err), nullptr);
  EXPECT_EQ(parseFormula(FF, "~$X", Err), nullptr); // open negation
}

TEST(Formula, SizeIsStructural) {
  FormulaFactory FF;
  Formula F = parse(FF, "a & <1>(b | c)");
  EXPECT_EQ(F->size(), 6u); // and, a, <1>, or, b, c
}

//===----------------------------------------------------------------------===//
// Cycle-freeness (Fig. 3): the paper's examples.
//===----------------------------------------------------------------------===//

TEST(CycleFree, PaperExamples) {
  FormulaFactory FF;
  struct Case {
    const char *Src;
    bool CycleFree;
  } Cases[] = {
      // ϕ = µX.⟨1⟩X ∨ ⟨1̄⟩X is not cycle free (§4).
      {"mu $X . <1>$X | <-1>$X", false},
      // "µX = ⟨1⟩(⊤ ∨ ⟨1̄⟩X) in X" is not cycle free. (The smart
      // constructors simplify ⊤ ∨ φ to ⊤, so a ∨ φ keeps the shape.)
      {"let $X = <1>(a | <-1>$X) in $X", false},
      // "µX = ⟨1⟩(X ∨ Y), Y = ⟨1̄⟩(Y ∨ ⊤) in X" is cycle free: the
      // ⟨1⟩⟨1̄⟩ cycle happens once, not once per unfolding.
      {"let $X = <1>($X | $Y); $Y = <-1>($Y | T) in $X", true},
      // µX.⟨1⟩⟨1̄⟩X is a cycle even though X need not be expanded (§4).
      {"let $X = <1><-1>$X in T", false},
      // Unguarded recursion is rejected.
      {"mu $X . a | $X", false},
      // Plain downward recursion is fine.
      {"mu $X . a | <1>$X | <2>$X", true},
      // Upward recursion is fine too.
      {"mu $X . #s | <-1>$X | <-2>$X", true},
      // A clean mixed-direction loop (up then right) has no ⟨a⟩⟨ā⟩ pair.
      {"mu $X . a | <-1><2>$X", true},
      // ... but a loop whose wrap-around forms a pair does:
      // ⟨1̄⟩⟨2⟩⟨1⟩ repeated yields ⟨1⟩⟨1̄⟩ at every period boundary.
      {"mu $X . <-1><2><1>$X", false},
      // Alternating loops whose junction forms a pair.
      {"mu $X . <1>$X | <2><-1>$X", false},
      // Mutual recursion crossing a converse pair between definitions.
      {"let $X = <1>$Y; $Y = <-1>$X in $X", false},
      // Mutual recursion with compatible directions.
      {"let $X = <1>$Y; $Y = <2>$X in $X", true},
  };
  for (const Case &C : Cases) {
    Formula F = parse(FF, C.Src);
    EXPECT_EQ(isCycleFree(F), C.CycleFree) << C.Src;
    // The polynomial graph checker agrees with the literal Fig. 3
    // judgement.
    EXPECT_EQ(isCycleFreeFig3(F), C.CycleFree) << C.Src << " (Fig3)";
  }
}

//===----------------------------------------------------------------------===//
// Direct semantics.
//===----------------------------------------------------------------------===//

TEST(Eval, Atoms) {
  FormulaFactory FF;
  Document D = doc("<a><b xsa:start=\"true\"/><c/></a>");
  EXPECT_EQ(evalFormula(D, FF, FF.trueF()).count(), 3u);
  EXPECT_EQ(evalFormula(D, FF, FF.falseF()).count(), 0u);
  DynBitset A = evalFormula(D, FF, FF.prop("a"));
  EXPECT_TRUE(A.test(0));
  EXPECT_EQ(A.count(), 1u);
  DynBitset S = evalFormula(D, FF, FF.start());
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.test(D.markedNode()));
  EXPECT_EQ(evalFormula(D, FF, FF.negStart()).count(), 2u);
}

TEST(Eval, Modalities) {
  FormulaFactory FF;
  // a[b c[d]]: ids a=0 b=1 c=2 d=3.
  Document D = doc("<a><b/><c><d/></c></a>");
  // ⟨1⟩b: nodes whose first child is b = {a}.
  DynBitset R = evalFormula(D, FF, parse(FF, "<1>b"));
  EXPECT_EQ(R.count(), 1u);
  EXPECT_TRUE(R.test(0));
  // ⟨2⟩c: nodes whose next sibling is c = {b}.
  R = evalFormula(D, FF, parse(FF, "<2>c"));
  EXPECT_EQ(R.count(), 1u);
  EXPECT_TRUE(R.test(1));
  // ⟨1̄⟩a: leftmost children of a = {b}.
  R = evalFormula(D, FF, parse(FF, "<-1>a"));
  EXPECT_EQ(R.count(), 1u);
  EXPECT_TRUE(R.test(1));
  // ⟨2̄⟩b: nodes whose previous sibling is b = {c}.
  R = evalFormula(D, FF, parse(FF, "<-2>b"));
  EXPECT_EQ(R.count(), 1u);
  EXPECT_TRUE(R.test(2));
  // ¬⟨1⟩⊤: leaves = {b, d}.
  R = evalFormula(D, FF, parse(FF, "~<1>T"));
  EXPECT_EQ(R.count(), 2u);
  EXPECT_TRUE(R.test(1));
  EXPECT_TRUE(R.test(3));
}

TEST(Eval, Fixpoints) {
  FormulaFactory FF;
  Document D = doc("<a><b/><c><d/></c></a>");
  // "Descendant-or-self of something named a" via downward recursion:
  // µX. a ∨ ⟨1̄⟩X ∨ ⟨2̄⟩X holds at every node (all are below a).
  DynBitset R = evalFormula(D, FF, parse(FF, "mu $X . a | <-1>$X | <-2>$X"));
  EXPECT_EQ(R.count(), 4u);
  // µX. d ∨ ⟨1⟩X ∨ ⟨2⟩X: nodes with d in their binary subtree: d itself,
  // c (first child d), b (sibling chain reaches c), a (child chain).
  R = evalFormula(D, FF, parse(FF, "mu $X . d | <1>$X | <2>$X"));
  EXPECT_EQ(R.count(), 4u);
  // Empty fixpoint: µX.⟨1⟩X (no base case).
  R = evalFormula(D, FF, parse(FF, "mu $X . <1>$X"));
  EXPECT_EQ(R.count(), 0u);
}

TEST(Eval, MutualFixpoints) {
  FormulaFactory FF;
  Document D = doc("<a><b/><b/><b/></a>");
  // Even-position children: first child is even(0)? Count via mutual
  // recursion on ⟨2̄⟩: $Even holds at leftmost and every second sibling.
  Formula F = parse(FF,
                    "let $Even = ~<-2>T & <-1>T | <-2>$Odd; "
                    "$Odd = <-2>$Even in $Even");
  DynBitset R = evalFormula(D, FF, F);
  EXPECT_FALSE(R.test(0)); // root: not a child
  EXPECT_TRUE(R.test(1));
  EXPECT_FALSE(R.test(2));
  EXPECT_TRUE(R.test(3));
}

TEST(Formula, NuIsAcceptedAsMu) {
  // Lemma 4.2 justifies parsing ν as µ on finite trees.
  FormulaFactory FF;
  EXPECT_EQ(parse(FF, "nu $X . a | <1>$X"), parse(FF, "mu $X . a | <1>$X"));
}

TEST(Eval, FixpointCollapseOnCycleFree) {
  // Lemma 4.2: µ and ν agree on cycle-free formulas over finite trees.
  FormulaFactory FF;
  Document D = doc("<a><b/><c><d/><b/></c></a>");
  const char *Cases[] = {
      "mu $X . b | <1>$X | <2>$X",
      "mu $X . #s | <-1>$X | <-2>$X",
      "let $X = <1>($X | $Y); $Y = <-1>($Y | c) in $X | $Y",
      "a | <1>(mu $X . d | <2>$X)",
  };
  for (const char *Src : Cases) {
    Formula F = parse(FF, Src);
    EXPECT_TRUE(isCycleFree(F)) << Src;
    EXPECT_EQ(evalFormula(D, FF, F, FixpointSemantics::Least),
              evalFormula(D, FF, F, FixpointSemantics::Greatest))
        << Src;
  }
}

TEST(Eval, FixpointsDifferOnCyclicFormulas) {
  // §4: µX.⟨1⟩⟨1̄⟩X is empty but νX.⟨1⟩⟨1̄⟩X holds wherever a first child
  // exists.
  FormulaFactory FF;
  Document D = doc("<a><b/><c><d/></c></a>");
  Formula F = parse(FF, "mu $X . <1><-1>$X");
  EXPECT_FALSE(isCycleFree(F));
  EXPECT_EQ(evalFormula(D, FF, F, FixpointSemantics::Least).count(), 0u);
  DynBitset G = evalFormula(D, FF, F, FixpointSemantics::Greatest);
  EXPECT_EQ(G.count(), 2u); // a and c have first children
  EXPECT_TRUE(G.test(0));
  EXPECT_TRUE(G.test(2));
}

TEST(Eval, NegationIsComplement) {
  FormulaFactory FF;
  Document D = doc("<a><b xsa:start=\"true\"/><c><d/><b/></c></a>");
  const char *Cases[] = {
      "b",
      "#s",
      "<1>b",
      "<-2>b & ~<1>T",
      "mu $X . d | <1>$X | <2>$X",
      "let $X = <1>($X | $Y); $Y = <-1>($Y | c) in $X | $Y",
  };
  DynBitset All = evalFormula(D, FF, FF.trueF());
  for (const char *Src : Cases) {
    Formula F = parse(FF, Src);
    DynBitset Pos = evalFormula(D, FF, F);
    DynBitset Neg = evalFormula(D, FF, FF.negate(F));
    EXPECT_EQ(Pos & Neg, DynBitset(D.size())) << Src;
    EXPECT_EQ(Pos | Neg, All) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Lean (§6.1).
//===----------------------------------------------------------------------===//

TEST(Lean, Structure) {
  FormulaFactory FF;
  Formula Psi = parse(FF, "a & <1>(mu $X . b | <2>$X)");
  Lean L = Lean::compute(FF, Psi);
  // 4 ⟨a⟩⊤ + props {a, b, #other} + s + modal members.
  EXPECT_GE(L.size(), 4u + 3u + 1u + 1u);
  EXPECT_EQ(L.props().size(), 3u);
  EXPECT_TRUE(L.hasProp(internSymbol("a")));
  EXPECT_TRUE(L.hasProp(internSymbol("b")));
  // ⟨a⟩⊤ members are modal members too.
  for (int A = 0; A < 4; ++A)
    EXPECT_TRUE(L.isExist(L.diamTopIndex(static_cast<Program>(A))));
}

TEST(Lean, TypesValidity) {
  FormulaFactory FF;
  Formula Psi = parse(FF, "a & <1>b");
  Lean L = Lean::compute(FF, Psi);
  DynBitset T(L.size());
  // No proposition: invalid.
  EXPECT_FALSE(L.isValidType(T));
  T.set(L.propIndex(internSymbol("a")));
  EXPECT_TRUE(L.isValidType(T));
  // Two propositions: invalid.
  T.set(L.propIndex(internSymbol("b")));
  EXPECT_FALSE(L.isValidType(T));
  T.reset(L.propIndex(internSymbol("b")));
  // Modal member without ⟨a⟩⊤: invalid.
  unsigned I = L.existIndex(FF.diamond(Program::Child, FF.prop("b")));
  ASSERT_NE(I, ~0u);
  T.set(I);
  EXPECT_FALSE(L.isValidType(T));
  T.set(L.diamTopIndex(Program::Child));
  EXPECT_TRUE(L.isValidType(T));
  // Both a first and a second child: invalid.
  T.set(L.diamTopIndex(Program::ParentInv));
  T.set(L.diamTopIndex(Program::SiblingInv));
  EXPECT_FALSE(L.isValidType(T));
}

TEST(Lean, StatusMatchesSemantics) {
  // The truth assignment of Fig. 15 against a type built from a concrete
  // node agrees with the direct evaluator.
  FormulaFactory FF;
  Formula Psi = parse(FF, "a & <1>(mu $X . b | <2>$X) | <-1>(a & #s)");
  Lean L = Lean::compute(FF, Psi);
  Document D = doc("<a xsa:start=\"true\"><c/><b/><a><b/></a></a>");
  for (NodeId N = 0; N < static_cast<NodeId>(D.size()); ++N) {
    // Build the type of node N: evaluate every lean member directly.
    // A label outside Σ(ψ) is represented by σx (§6.1).
    DynBitset T(L.size());
    for (unsigned I = 0; I < L.size(); ++I)
      if (evalFormula(D, FF, L.members()[I]).test(N))
        T.set(I);
    if (!L.hasProp(D.label(N)))
      T.set(L.propIndex(L.otherProp()));
    EXPECT_TRUE(L.isValidType(T)) << "node " << N;
    EXPECT_EQ(L.status(FF, Psi, T), evalFormula(D, FF, Psi).test(N))
        << "node " << N;
  }
}

//===----------------------------------------------------------------------===//
// Unfolding.
//===----------------------------------------------------------------------===//

TEST(Formula, UnfoldStepsThroughProjections) {
  FormulaFactory FF;
  Formula Mu = parse(FF, "let $X = a | <1>$X in $X");
  ASSERT_TRUE(Mu->is(FormulaKind::Mu));
  Formula U = FF.unfold(Mu);
  // Unfolding the projection steps through the definition: a ∨ ⟨1⟩(µ...).
  ASSERT_TRUE(U->is(FormulaKind::Or));
  EXPECT_EQ(U->lhs(), FF.prop("a"));
  ASSERT_TRUE(U->rhs()->is(FormulaKind::Exist));
  EXPECT_TRUE(U->rhs()->lhs()->is(FormulaKind::Mu));
  // Unfolding is memoized and stable.
  EXPECT_EQ(U, FF.unfold(Mu));
}

TEST(Formula, SubstituteShadows) {
  FormulaFactory FF;
  Formula Inner = parse(FF, "let $X = a | <1>$X in $X");
  // Substituting X inside a binder for X must not touch bound occurrences.
  std::unordered_map<Symbol, Formula> Map{{internSymbol("X"), FF.prop("b")}};
  EXPECT_EQ(FF.substitute(Inner, Map), Inner);
  Formula Open = FF.conj(FF.var("X"), Inner);
  Formula Substituted = FF.substitute(Open, Map);
  EXPECT_EQ(Substituted, FF.conj(FF.prop("b"), Inner));
}

} // namespace
