//===- xtype_test.cpp - Content models, DTDs, binarization, types ---------===//
//
// Tests §5.2: DTD parsing, Glushkov construction, validation, the binary
// encoding of Fig. 13 (including the paper's variable counts) and the
// type-to-Lµ translation checked against the validator.
//
//===----------------------------------------------------------------------===//

#include "logic/CycleFree.h"
#include "logic/Eval.h"
#include "tree/Xml.h"
#include "xtype/BuiltinDtds.h"
#include "xtype/Compile.h"
#include "xtype/Validate.h"

#include <gtest/gtest.h>

#include <random>

using namespace xsa;

namespace {

Document doc(const std::string &Xml) {
  Document D;
  std::string Err;
  EXPECT_TRUE(parseXml(Xml, D, Err)) << Err;
  return D;
}

std::vector<Symbol> word(std::initializer_list<const char *> Names) {
  std::vector<Symbol> W;
  for (const char *N : Names)
    W.push_back(internSymbol(N));
  return W;
}

TEST(ContentModel, GlushkovMatching) {
  // (a, (b | c)*, d?)
  auto R = ContentModel::seq(
      ContentModel::sym("a"),
      ContentModel::seq(ContentModel::star(ContentModel::choice(
                            ContentModel::sym("b"), ContentModel::sym("c"))),
                        ContentModel::opt(ContentModel::sym("d"))));
  Glushkov G = buildGlushkov(R);
  EXPECT_TRUE(glushkovMatches(G, word({"a"})));
  EXPECT_TRUE(glushkovMatches(G, word({"a", "b", "c", "b"})));
  EXPECT_TRUE(glushkovMatches(G, word({"a", "d"})));
  EXPECT_TRUE(glushkovMatches(G, word({"a", "c", "d"})));
  EXPECT_FALSE(glushkovMatches(G, word({})));
  EXPECT_FALSE(glushkovMatches(G, word({"b"})));
  EXPECT_FALSE(glushkovMatches(G, word({"a", "d", "b"})));
  EXPECT_FALSE(glushkovMatches(G, word({"a", "a"})));
}

TEST(Dtd, ParseWikipedia) {
  const Dtd &D = wikipediaDtd();
  EXPECT_EQ(D.numSymbols(), 9u); // Fig. 13: 9 terminals
  EXPECT_EQ(symbolName(D.root()), "article");
  EXPECT_TRUE(D.isDeclared(internSymbol("edit")));
  EXPECT_EQ(toString(D.content(internSymbol("redirect"))), "EMPTY");
}

TEST(Dtd, ParseErrors) {
  Dtd D;
  std::string Err;
  EXPECT_FALSE(parseDtd("<!ELEMENT a (b>", D, Err));
  Dtd D2;
  EXPECT_FALSE(parseDtd("<!ELEMENT a (%undefined;)>", D2, Err));
  EXPECT_NE(Err.find("undefined"), std::string::npos);
  Dtd D3;
  EXPECT_FALSE(parseDtd("<!ELEMENT a ANY>", D3, Err));
}

TEST(Dtd, UndeclaredElementsAndEmptyDtdsAreRejected) {
  // Binarization needs a model for the root and for every element a
  // content model names; the parser checks both once the whole DTD is
  // read, and names the offending element.
  std::string Err;
  const char *Undeclared[][2] = {
      {"<!ELEMENT a (b)>", "element 'b'"},
      {"<!ELEMENT a (#PCDATA|b)*>", "element 'b'"},
      {"<!ELEMENT b EMPTY>\n<!ELEMENT a (c?, b)>", "element 'c'"}};
  for (auto [Src, Named] : Undeclared) {
    SCOPED_TRACE(Src);
    Dtd D;
    EXPECT_FALSE(parseDtd(Src, D, Err));
    EXPECT_NE(Err.find(Named), std::string::npos) << Err;
    EXPECT_NE(Err.find("never declared"), std::string::npos) << Err;
  }
  for (const char *Src : {"", "<!-- no declarations -->",
                          "<!ATTLIST a id CDATA #IMPLIED>"}) {
    SCOPED_TRACE(Src);
    Dtd D;
    EXPECT_FALSE(parseDtd(Src, D, Err));
    EXPECT_NE(Err.find("no element"), std::string::npos) << Err;
  }
  // Declarations may come in any order: a forward reference parses,
  // the first declared element stays the root, and the type compiles.
  Dtd D;
  ASSERT_TRUE(parseDtd("<!ELEMENT a (b, c*)>\n<!ELEMENT b (#PCDATA)>\n"
                       "<!ELEMENT c EMPTY>",
                       D, Err))
      << Err;
  EXPECT_EQ(symbolName(D.root()), "a");
  FormulaFactory FF;
  EXPECT_NE(compileDtd(FF, D), nullptr);
}

TEST(Dtd, EntityExpansion) {
  Dtd D;
  std::string Err;
  const char *Src = R"(
    <!ENTITY % inline "b | c">
    <!ELEMENT a (%inline;)*>
    <!ELEMENT b EMPTY>
    <!ELEMENT c EMPTY>
  )";
  ASSERT_TRUE(parseDtd(Src, D, Err)) << Err;
  Glushkov G = buildGlushkov(D.content(internSymbol("a")));
  EXPECT_TRUE(glushkovMatches(G, word({"b", "c", "b"})));
  EXPECT_TRUE(glushkovMatches(G, word({})));
  EXPECT_FALSE(glushkovMatches(G, word({"a"})));
}

TEST(Dtd, BuiltinTable1Sizes) {
  // Table 1 of the paper.
  EXPECT_EQ(smil10Dtd().numSymbols(), 19u);
  EXPECT_EQ(xhtml10StrictDtd().numSymbols(), 77u);
}

TEST(Validate, Wikipedia) {
  const Dtd &D = wikipediaDtd();
  EXPECT_TRUE(validate(
      doc("<article><meta><title/></meta><text/></article>"), D));
  EXPECT_TRUE(validate(
      doc("<article><meta><title/><status/><interwiki/><interwiki/>"
          "<history><edit><text/></edit><edit/></history></meta>"
          "<redirect/></article>"),
      D));
  std::string Why;
  // Missing meta.
  EXPECT_FALSE(validate(doc("<article><text/></article>"), D, &Why));
  // Wrong order.
  EXPECT_FALSE(
      validate(doc("<article><text/><meta><title/></meta></article>"), D));
  // Wrong root.
  EXPECT_FALSE(validate(doc("<meta><title/></meta>"), D, &Why));
  // Undeclared element.
  EXPECT_FALSE(validate(doc("<article><meta><title/></meta><bogus/></article>"),
                        D, &Why));
  EXPECT_NE(Why.find("bogus"), std::string::npos);
  // history requires at least one edit.
  EXPECT_FALSE(validate(
      doc("<article><meta><title/><history/></meta><text/></article>"), D));
}

TEST(Validate, Xhtml) {
  const Dtd &D = xhtml10StrictDtd();
  EXPECT_TRUE(validate(
      doc("<html><head><title/></head><body><p><a><span><a/></span></a></p>"
          "</body></html>"),
      D));
  // Direct a-in-a is prohibited...
  EXPECT_FALSE(validate(
      doc("<html><head><title/></head><body><p><a><a/></a></p></body></html>"),
      D));
  // ...but table needs rows.
  EXPECT_FALSE(validate(
      doc("<html><head><title/></head><body><table/></body></html>"), D));
  EXPECT_TRUE(validate(
      doc("<html><head><title/></head><body><table><tr><td/></tr></table>"
          "</body></html>"),
      D));
}

TEST(Binarize, WikipediaMatchesFig13) {
  BinaryTypeGrammar G = binarize(wikipediaDtd());
  // Figure 13: 9 type variables over 9 terminals.
  EXPECT_EQ(G.terminals().size(), 9u);
  EXPECT_EQ(G.numVars(), 9u) << G.toString();
}

TEST(Binarize, Smil10Table1) {
  BinaryTypeGrammar G = binarize(smil10Dtd());
  // Table 1 reports 11 binary type variables for SMIL 1.0; the exact
  // count depends on the minimization, so accept the same order.
  EXPECT_GE(G.numVars(), 5u);
  EXPECT_LE(G.numVars(), 20u);
}

TEST(Binarize, XhtmlTable1) {
  // Table 1 reports 325 binary type variables. The raw (unminimized)
  // construction is of that order; our minimizing construction merges
  // the many %Inline;-equivalent states far below it.
  BinaryTypeGrammar Raw = binarize(xhtml10StrictDtd(), /*Minimize=*/false);
  EXPECT_GE(Raw.numVars(), 150u);
  EXPECT_LE(Raw.numVars(), 700u);
  BinaryTypeGrammar Min = binarize(xhtml10StrictDtd());
  EXPECT_LT(Min.numVars(), Raw.numVars());
  EXPECT_GE(Min.numVars(), 10u);
}

TEST(Binarize, StartHasNoSibling) {
  BinaryTypeGrammar G = binarize(wikipediaDtd());
  ASSERT_NE(G.Start, BinaryTypeGrammar::EpsilonVar);
  for (const auto &A : G.Vars[G.Start].Alts) {
    EXPECT_EQ(symbolName(A.Label), "article");
    EXPECT_EQ(A.X2, BinaryTypeGrammar::EpsilonVar);
  }
}

//===----------------------------------------------------------------------===//
// Type-to-Lµ translation (§5.2) against the validator.
//===----------------------------------------------------------------------===//

void expectTypeFormulaMatchesValidator(const Dtd &D, const Document &Doc) {
  FormulaFactory FF;
  Formula T = compileDtd(FF, D);
  EXPECT_TRUE(isCycleFree(T));
  bool Valid = validate(Doc, D);
  // The compiled formula holds at the root iff the document validates.
  // (The document must have a single root for the comparison.)
  if (Doc.roots().size() != 1)
    return;
  bool Holds = evalFormula(Doc, FF, T).test(Doc.roots()[0]);
  EXPECT_EQ(Holds, Valid);
}

TEST(TypeCompile, WikipediaAgainstValidator) {
  const Dtd &D = wikipediaDtd();
  const char *Docs[] = {
      "<article><meta><title/></meta><text/></article>",
      "<article><meta><title/><status/></meta><redirect/></article>",
      "<article><text/></article>",
      "<article><meta><title/></meta><text/><text/></article>",
      "<article><meta><status/><title/></meta><text/></article>",
      "<article><meta><title/><history><edit/></history></meta><text/>"
      "</article>",
      "<text/>",
  };
  for (const char *Src : Docs)
    expectTypeFormulaMatchesValidator(D, doc(Src));
}

TEST(TypeCompile, RandomDocumentsAgainstValidator) {
  // Random small trees over the Wikipedia alphabet: formula ⟺ validator.
  const Dtd &D = wikipediaDtd();
  std::mt19937 Rng(7);
  std::vector<Symbol> Alphabet = D.elements();
  for (int Round = 0; Round < 60; ++Round) {
    Document Doc;
    int N = 1 + static_cast<int>(Rng() % 8);
    for (int I = 0; I < N; ++I) {
      NodeId Parent =
          Doc.empty() ? InvalidNodeId
                      : static_cast<NodeId>(Rng() % (Doc.size() + 1)) - 1;
      Doc.addNode(Alphabet[Rng() % Alphabet.size()], Parent);
    }
    if (Doc.roots().size() != 1)
      continue;
    expectTypeFormulaMatchesValidator(D, Doc);
  }
}

TEST(TypeCompile, UsesOnlyDownwardModalities) {
  FormulaFactory FF;
  Formula T = compileDtd(FF, wikipediaDtd());
  // §5.2: "the translation of a regular tree type uses only downward
  // modalities". Walk the formula and check.
  std::vector<Formula> Stack{T};
  std::unordered_map<Formula, bool> Seen;
  while (!Stack.empty()) {
    Formula F = Stack.back();
    Stack.pop_back();
    if (Seen.count(F))
      continue;
    Seen.emplace(F, true);
    switch (F->kind()) {
    case FormulaKind::Exist:
    case FormulaKind::NegExistTop:
      EXPECT_TRUE(F->program() == Program::Child ||
                  F->program() == Program::Sibling);
      if (F->is(FormulaKind::Exist))
        Stack.push_back(F->lhs());
      break;
    case FormulaKind::And:
    case FormulaKind::Or:
      Stack.push_back(F->lhs());
      Stack.push_back(F->rhs());
      break;
    case FormulaKind::Mu:
      for (const MuBinding &B : F->bindings())
        Stack.push_back(B.Def);
      Stack.push_back(F->body());
      break;
    default:
      break;
    }
  }
}

} // namespace
