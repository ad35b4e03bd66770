//===- Compile.cpp - XPath to Lµ translation (Figs. 7, 8, 10) --------------===//

#include "xpath/Compile.h"

using namespace xsa;

namespace {

using P = Program;

/// P←⟦p⟧χ of Fig. 10 (forward declaration; mutually recursive with the
/// qualifier translation).
Formula compilePathBack(FormulaFactory &FF, const PathRef &Path, Formula Chi);

} // namespace

Formula xsa::compileAxis(FormulaFactory &FF, Axis A, Formula Chi) {
  switch (A) {
  case Axis::Self:
    return Chi;
  case Axis::Child: {
    // µZ. ⟨1̄⟩χ ∨ ⟨2̄⟩Z.
    Symbol Z = FF.freshVar("Z");
    return FF.mu(Z, FF.disj(FF.diamond(P::ParentInv, Chi),
                            FF.diamond(P::SiblingInv, FF.var(Z))));
  }
  case Axis::FollSibling: {
    // µZ. ⟨2̄⟩χ ∨ ⟨2̄⟩Z.
    Symbol Z = FF.freshVar("Z");
    return FF.mu(Z, FF.disj(FF.diamond(P::SiblingInv, Chi),
                            FF.diamond(P::SiblingInv, FF.var(Z))));
  }
  case Axis::PrecSibling: {
    // µZ. ⟨2⟩χ ∨ ⟨2⟩Z.
    Symbol Z = FF.freshVar("Z");
    return FF.mu(Z, FF.disj(FF.diamond(P::Sibling, Chi),
                            FF.diamond(P::Sibling, FF.var(Z))));
  }
  case Axis::Parent: {
    // ⟨1⟩ µZ. χ ∨ ⟨2⟩Z.
    Symbol Z = FF.freshVar("Z");
    return FF.diamond(
        P::Child, FF.mu(Z, FF.disj(Chi, FF.diamond(P::Sibling, FF.var(Z)))));
  }
  case Axis::Descendant: {
    // µZ. ⟨1̄⟩(χ ∨ Z) ∨ ⟨2̄⟩Z.
    Symbol Z = FF.freshVar("Z");
    return FF.mu(Z, FF.disj(FF.diamond(P::ParentInv, FF.disj(Chi, FF.var(Z))),
                            FF.diamond(P::SiblingInv, FF.var(Z))));
  }
  case Axis::DescOrSelf: {
    // µZ. χ ∨ µY. ⟨1̄⟩(Y ∨ Z) ∨ ⟨2̄⟩Y.
    Symbol Z = FF.freshVar("Z");
    Symbol Y = FF.freshVar("Y");
    Formula Inner = FF.mu(
        Y, FF.disj(FF.diamond(P::ParentInv, FF.disj(FF.var(Y), FF.var(Z))),
                   FF.diamond(P::SiblingInv, FF.var(Y))));
    return FF.mu(Z, FF.disj(Chi, Inner));
  }
  case Axis::Ancestor: {
    // ⟨1⟩ µZ. χ ∨ ⟨1⟩Z ∨ ⟨2⟩Z.
    Symbol Z = FF.freshVar("Z");
    return FF.diamond(
        P::Child,
        FF.mu(Z, FF.disj(FF.disj(Chi, FF.diamond(P::Child, FF.var(Z))),
                         FF.diamond(P::Sibling, FF.var(Z)))));
  }
  case Axis::AncOrSelf: {
    // µZ. χ ∨ ⟨1⟩ µY. Z ∨ ⟨2⟩Y.
    Symbol Z = FF.freshVar("Z");
    Symbol Y = FF.freshVar("Y");
    Formula Inner =
        FF.mu(Y, FF.disj(FF.var(Z), FF.diamond(P::Sibling, FF.var(Y))));
    return FF.mu(Z, FF.disj(Chi, FF.diamond(P::Child, Inner)));
  }
  case Axis::Following:
    // desc-or-self(foll-sibling(anc-or-self χ)).
    return compileAxis(
        FF, Axis::DescOrSelf,
        compileAxis(FF, Axis::FollSibling,
                    compileAxis(FF, Axis::AncOrSelf, Chi)));
  case Axis::Preceding:
    return compileAxis(
        FF, Axis::DescOrSelf,
        compileAxis(FF, Axis::PrecSibling,
                    compileAxis(FF, Axis::AncOrSelf, Chi)));
  }
  return Chi;
}

namespace {

/// A←⟦a⟧χ = A→⟦symmetric(a)⟧χ (Fig. 10).
Formula compileAxisBack(FormulaFactory &FF, Axis A, Formula Chi) {
  return compileAxis(FF, symmetricAxis(A), Chi);
}

/// Q←⟦q⟧χ (Fig. 10).
Formula compileQualifRec(FormulaFactory &FF, const QualifRef &Q, Formula Chi) {
  switch (Q->K) {
  case XPathQualif::And:
    return FF.conj(compileQualifRec(FF, Q->Q1, Chi),
                   compileQualifRec(FF, Q->Q2, Chi));
  case XPathQualif::Or:
    return FF.disj(compileQualifRec(FF, Q->Q1, Chi),
                   compileQualifRec(FF, Q->Q2, Chi));
  case XPathQualif::Not:
    return FF.negate(compileQualifRec(FF, Q->Q1, Chi));
  case XPathQualif::Path:
    return compilePathBack(FF, Q->P, Chi);
  }
  return Chi;
}

Formula compilePathBack(FormulaFactory &FF, const PathRef &Path, Formula Chi) {
  switch (Path->K) {
  case XPathPath::Compose:
    // P←⟦p1/p2⟧χ = P←⟦p1⟧(P←⟦p2⟧χ).
    return compilePathBack(FF, Path->P1, compilePathBack(FF, Path->P2, Chi));
  case XPathPath::Qualified:
    // P←⟦p[q]⟧χ = P←⟦p⟧(χ ∧ Q←⟦q⟧⊤).
    return compilePathBack(
        FF, Path->P1,
        FF.conj(Chi, compileQualifRec(FF, Path->Q, FF.trueF())));
  case XPathPath::Step: {
    // P←⟦a::σ⟧χ = A←⟦a⟧(χ ∧ σ); P←⟦a::*⟧χ = A←⟦a⟧χ.
    Formula Inner =
        Path->Test ? FF.conj(Chi, FF.prop(*Path->Test)) : Chi;
    return compileAxisBack(FF, Path->A, Inner);
  }
  case XPathPath::Alt:
    return FF.disj(compilePathBack(FF, Path->P1, Chi),
                   compilePathBack(FF, Path->P2, Chi));
  case XPathPath::Iterate: {
    // P←⟦(p)+⟧χ = µZ. P←⟦p⟧(χ ∨ Z): there is a 1+-fold p-path to a
    // χ node.
    Symbol Z = FF.freshVar("It");
    return FF.mu(Z, compilePathBack(FF, Path->P1, FF.disj(Chi, FF.var(Z))));
  }
  }
  return Chi;
}

} // namespace

Formula xsa::compilePath(FormulaFactory &FF, const PathRef &Path,
                         Formula Chi) {
  switch (Path->K) {
  case XPathPath::Compose:
    // P→⟦p1/p2⟧χ = P→⟦p2⟧(P→⟦p1⟧χ).
    return compilePath(FF, Path->P2, compilePath(FF, Path->P1, Chi));
  case XPathPath::Qualified:
    // P→⟦p[q]⟧χ = P→⟦p⟧χ ∧ Q←⟦q⟧⊤.
    return FF.conj(compilePath(FF, Path->P1, Chi),
                   compileQualifRec(FF, Path->Q, FF.trueF()));
  case XPathPath::Step: {
    // P→⟦a::σ⟧χ = σ ∧ A→⟦a⟧χ; P→⟦a::*⟧χ = A→⟦a⟧χ.
    Formula Nav = compileAxis(FF, Path->A, Chi);
    return Path->Test ? FF.conj(FF.prop(*Path->Test), Nav) : Nav;
  }
  case XPathPath::Alt:
    return FF.disj(compilePath(FF, Path->P1, Chi),
                   compilePath(FF, Path->P2, Chi));
  case XPathPath::Iterate: {
    // P→⟦(p)+⟧χ = µZ. P→⟦p⟧(χ ∨ Z): reachable from χ by 1+ p-steps
    // (conditional XPath, Marx [34]).
    Symbol Z = FF.freshVar("It");
    return FF.mu(Z, compilePath(FF, Path->P1, FF.disj(Chi, FF.var(Z))));
  }
  }
  return Chi;
}

Formula xsa::rootFormula(FormulaFactory &FF) {
  // Following the previous-sibling chain, the leftmost sibling has no
  // parent. The ⟨1̄⟩ and ⟨2̄⟩ obligations are checked together: a
  // non-leftmost inner child also satisfies ¬⟨1̄⟩⊤ on its own.
  Symbol Z = FF.freshVar("Root");
  return FF.mu(Z, FF.conj(FF.negDiamondTop(P::ParentInv),
                          FF.disj(FF.negDiamondTop(P::SiblingInv),
                                  FF.diamond(P::SiblingInv, FF.var(Z)))));
}

Formula xsa::compileXPath(FormulaFactory &FF, const ExprRef &E, Formula Chi) {
  switch (E->K) {
  case XPathExpr::Absolute: {
    // E→⟦/p⟧χ = P→⟦p⟧((µZ.¬⟨1̄⟩⊤ ∨ ⟨2̄⟩Z) ∧ (µY.(χ∧s) ∨ ⟨1⟩Y ∨ ⟨2⟩Y)):
    // the focus is a root and the marked context lies at or below it in
    // the binary encoding.
    Formula IsRoot = rootFormula(FF);
    Symbol Y = FF.freshVar("Y");
    Formula MarkBelow = FF.mu(
        Y, FF.disj(FF.disj(FF.conj(Chi, FF.start()),
                           FF.diamond(P::Child, FF.var(Y))),
                   FF.diamond(P::Sibling, FF.var(Y))));
    return compilePath(FF, E->P, FF.conj(IsRoot, MarkBelow));
  }
  case XPathExpr::Relative:
    // E→⟦p⟧χ = P→⟦p⟧(χ ∧ s).
    return compilePath(FF, E->P, FF.conj(Chi, FF.start()));
  case XPathExpr::Union:
    return FF.disj(compileXPath(FF, E->E1, Chi),
                   compileXPath(FF, E->E2, Chi));
  case XPathExpr::Intersect:
    return FF.conj(compileXPath(FF, E->E1, Chi),
                   compileXPath(FF, E->E2, Chi));
  }
  return Chi;
}
