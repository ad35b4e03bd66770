//===- tree_test.cpp - Focused trees, documents, XML ----------------------===//
//
// Tests §3's zipper navigation laws (FocusedTree.h, the test oracle), the
// Document arena, conversions, and XML round-trips.
//
//===----------------------------------------------------------------------===//

#include "FocusedTree.h"
#include "tree/Document.h"
#include "tree/Xml.h"

#include <gtest/gtest.h>

#include <random>

using namespace xsa;

namespace {

/// Builds the running example of the paper: a[b[ε]] with focus at root.
FocusedTree paperExample() {
  TreeRef B = makeTree(internSymbol("b"), false, nullptr);
  TreeRef A = makeTree(internSymbol("a"), false, cons(B, nullptr));
  return FocusedTree::atRoot(A);
}

TEST(FocusedTree, BasicNavigation) {
  FocusedTree F1 = paperExample();
  EXPECT_EQ(symbolName(F1.name()), "a");
  // f2 = f1⟨1⟩.
  auto F2 = F1.down1();
  ASSERT_TRUE(F2.has_value());
  EXPECT_EQ(symbolName(F2->name()), "b");
  // f2⟨1̄⟩ = f1 (the worked example of §4).
  auto Back = F2->up1();
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, F1);
}

TEST(FocusedTree, UndefinedMoves) {
  FocusedTree F = paperExample();
  EXPECT_FALSE(F.down2().has_value()); // no sibling
  EXPECT_FALSE(F.up1().has_value());   // at top
  EXPECT_FALSE(F.up2().has_value());   // no previous sibling
  auto Child = F.down1();
  ASSERT_TRUE(Child.has_value());
  EXPECT_FALSE(Child->down1().has_value()); // leaf
  EXPECT_FALSE(Child->down2().has_value());
  EXPECT_FALSE(Child->up2().has_value());
}

TEST(FocusedTree, SiblingNavigation) {
  // r[x y z]
  TreeRef X = makeTree(internSymbol("x"), false, nullptr);
  TreeRef Y = makeTree(internSymbol("y"), false, nullptr);
  TreeRef Z = makeTree(internSymbol("z"), false, nullptr);
  TreeRef R =
      makeTree(internSymbol("r"), false, cons(X, cons(Y, cons(Z, nullptr))));
  FocusedTree F = FocusedTree::atRoot(R);
  auto FX = F.down1();
  ASSERT_TRUE(FX);
  EXPECT_EQ(symbolName(FX->name()), "x");
  auto FY = FX->down2();
  ASSERT_TRUE(FY);
  EXPECT_EQ(symbolName(FY->name()), "y");
  auto FZ = FY->down2();
  ASSERT_TRUE(FZ);
  EXPECT_EQ(symbolName(FZ->name()), "z");
  EXPECT_FALSE(FZ->down2().has_value());
  // Only the leftmost sibling can move up with ⟨1̄⟩.
  EXPECT_FALSE(FY->up1().has_value());
  EXPECT_FALSE(FZ->up1().has_value());
  // ⟨2̄⟩ inverts ⟨2⟩.
  auto BackY = FZ->up2();
  ASSERT_TRUE(BackY);
  EXPECT_EQ(*BackY, *FY);
  // Rebuild the root from the leftmost child.
  auto BackRoot = FX->up1();
  ASSERT_TRUE(BackRoot);
  EXPECT_EQ(*BackRoot, F);
}

TEST(Document, BuildAndNavigate) {
  Document D;
  NodeId R = D.addNode("r", InvalidNodeId);
  NodeId A = D.addNode("a", R);
  NodeId B = D.addNode("b", R);
  NodeId C = D.addNode("c", A);
  EXPECT_EQ(D.size(), 4u);
  EXPECT_EQ(D.firstChild(R), A);
  EXPECT_EQ(D.nextSibling(A), B);
  EXPECT_EQ(D.prevSibling(B), A);
  EXPECT_EQ(D.parent(C), A);
  // Binary modalities.
  EXPECT_EQ(D.child1(R), A);
  EXPECT_EQ(D.child2(A), B);
  EXPECT_EQ(D.up1(A), R);              // leftmost child
  EXPECT_EQ(D.up1(B), InvalidNodeId);  // not leftmost
  EXPECT_EQ(D.up2(B), A);
  EXPECT_EQ(D.roots(), std::vector<NodeId>{R});
}

TEST(Document, Hedges) {
  Document D;
  NodeId R1 = D.addNode("r1", InvalidNodeId);
  NodeId R2 = D.addNode("r2", InvalidNodeId);
  EXPECT_EQ(D.nextSibling(R1), R2);
  EXPECT_EQ(D.up2(R2), R1);
  EXPECT_EQ(D.up1(R1), InvalidNodeId);
  EXPECT_EQ(D.roots(), (std::vector<NodeId>{R1, R2}));
}

TEST(Document, FocusAtRoundTrip) {
  Document D;
  NodeId R = D.addNode("r", InvalidNodeId);
  NodeId A = D.addNode("a", R);
  NodeId B = D.addNode("b", R);
  (void)D.addNode("c", B);
  D.setMark(A);
  // The focused tree at B must navigate like the document.
  FocusedTree F = focusAt(D, B);
  EXPECT_EQ(symbolName(F.name()), "b");
  auto Up = F.up2();
  ASSERT_TRUE(Up);
  EXPECT_EQ(symbolName(Up->name()), "a");
  EXPECT_TRUE(Up->marked());
  auto Down = F.down1();
  ASSERT_TRUE(Down);
  EXPECT_EQ(symbolName(Down->name()), "c");
}

TEST(Document, AddTreeImportsMark) {
  TreeRef B = makeTree(internSymbol("b"), true, nullptr);
  TreeRef A = makeTree(internSymbol("a"), false, cons(B, nullptr));
  Document D;
  NodeId R = addTree(D, A);
  EXPECT_EQ(D.labelName(R), "a");
  ASSERT_NE(D.markedNode(), InvalidNodeId);
  EXPECT_EQ(D.labelName(D.markedNode()), "b");
}

/// Node-for-node equality: labels, links and the mark.
bool sameDocument(const Document &A, const Document &B) {
  if (A.size() != B.size() || A.markedNode() != B.markedNode())
    return false;
  for (NodeId N = 0; N < static_cast<NodeId>(A.size()); ++N) {
    const DocNode &X = A.node(N), &Y = B.node(N);
    if (X.Label != Y.Label || X.Parent != Y.Parent ||
        X.FirstChild != Y.FirstChild || X.NextSibling != Y.NextSibling ||
        X.PrevSibling != Y.PrevSibling)
      return false;
  }
  return true;
}

TEST(Xml, ParsePrintRoundTrip) {
  const char *Src = R"(<a><b xsa:start="true"><c/></b><d/></a>)";
  Document D;
  std::string Err;
  ASSERT_TRUE(parseXml(Src, D, Err)) << Err;
  EXPECT_EQ(D.size(), 4u);
  ASSERT_NE(D.markedNode(), InvalidNodeId);
  EXPECT_EQ(D.labelName(D.markedNode()), "b");
  std::string Printed = printXml(D);
  Document D2;
  ASSERT_TRUE(parseXml(Printed, D2, Err)) << Err;
  EXPECT_TRUE(sameDocument(D, D2));
}

TEST(Xml, SkipsTextCommentsAndAttributes) {
  const char *Src =
      "<?xml version=\"1.0\"?><!DOCTYPE a><a id=\"1\">hello<!-- note "
      "--><b class='x'/>world</a>";
  Document D;
  std::string Err;
  ASSERT_TRUE(parseXml(Src, D, Err)) << Err;
  EXPECT_EQ(D.size(), 2u);
  EXPECT_EQ(D.labelName(0), "a");
  EXPECT_EQ(D.labelName(1), "b");
}

TEST(Xml, Errors) {
  Document D;
  std::string Err;
  EXPECT_FALSE(parseXml("<a><b></a>", D, Err));
  EXPECT_NE(Err.find("mismatched"), std::string::npos);
  Document D2;
  EXPECT_FALSE(parseXml("<a>", D2, Err));
  Document D3;
  EXPECT_FALSE(parseXml("", D3, Err));
  Document D4;
  EXPECT_FALSE(parseXml(
      "<a xsa:start=\"true\"><b xsa:start=\"true\"/></a>", D4, Err));
}

//===----------------------------------------------------------------------===//
// Property sweep: on random documents, every defined zipper move has the
// documented inverse, and Document/FocusedTree navigation agree.
//===----------------------------------------------------------------------===//

Document randomDocument(std::mt19937 &Rng, int MaxNodes) {
  Document D;
  const char *Labels[] = {"a", "b", "c", "d"};
  int N = 1 + static_cast<int>(Rng() % MaxNodes);
  for (int I = 0; I < N; ++I) {
    NodeId Parent =
        D.empty() ? InvalidNodeId
                  : static_cast<NodeId>(Rng() % (D.size() + 1)) - 1;
    if (Parent >= static_cast<NodeId>(D.size()))
      Parent = InvalidNodeId;
    D.addNode(Labels[Rng() % 4], Parent);
  }
  D.setMark(static_cast<NodeId>(Rng() % D.size()));
  return D;
}

class TreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TreePropertyTest, ZipperLawsAndAgreementWithDocument) {
  std::mt19937 Rng(GetParam());
  Document D = randomDocument(Rng, 24);
  for (NodeId N = 0; N < static_cast<NodeId>(D.size()); ++N) {
    FocusedTree F = focusAt(D, N);
    EXPECT_EQ(F.name(), D.label(N));
    EXPECT_EQ(F.marked(), D.isMarked(N));
    for (int A = 0; A < 4; ++A) {
      auto Moved = F.follow(A);
      NodeId DocMoved = D.follow(N, A);
      ASSERT_EQ(Moved.has_value(), DocMoved != InvalidNodeId)
          << "node " << N << " modality " << A;
      if (!Moved)
        continue;
      EXPECT_EQ(Moved->name(), D.label(DocMoved));
      // Inverse law: f⟨a⟩⟨ā⟩ = f.
      int Inverse = (A + 2) & 3;
      auto Back = Moved->follow(Inverse);
      ASSERT_TRUE(Back.has_value());
      EXPECT_EQ(*Back, F) << "node " << N << " modality " << A;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest, ::testing::Range(1, 21));

} // namespace
