//===- FocusedTree.h - Trees with focus (§3 of the paper) --------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Focused trees: the paper's data model (§3), a zipper à la Huet over
/// finite unranked ordered labeled trees, with an optional *start mark* on
/// exactly one node (the context node where XPath evaluation begins).
/// tree_test checks Document's navigation against this model.
///
/// A focused tree is a pair (t, c) of the subtree in focus and its context:
///
///   t  ::= σ[tl]                      tree
///   tl ::= ε | t :: tl                list of trees
///   c  ::= (tl, Top, tl)              root of the tree
///        | (tl, c[σ], tl)             context node
///
/// Navigation is in *binary style* with four modalities:
///   ⟨1⟩ first child, ⟨2⟩ next sibling,
///   ⟨1̄⟩ parent (only from a leftmost sibling), ⟨2̄⟩ previous sibling.
///
/// All structures are immutable and shared, so navigation is O(1) and a
/// focused tree value can be freely copied.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_TESTS_FOCUSEDTREE_H
#define XSA_TESTS_FOCUSEDTREE_H

#include "tree/Document.h"

#include <cassert>
#include <memory>
#include <optional>
#include <vector>

namespace xsa {

struct Tree;
struct TreeList;
struct Context;

using TreeRef = std::shared_ptr<const Tree>;
using TreeListRef = std::shared_ptr<const TreeList>; // nullptr = ε
using ContextRef = std::shared_ptr<const Context>;

/// σ◦[tl]: a node label, an optional start mark, and the list of children.
struct Tree {
  Symbol Label;
  bool Marked;
  TreeListRef Children;

  Tree(Symbol Label, bool Marked, TreeListRef Children)
      : Label(Label), Marked(Marked), Children(std::move(Children)) {}
};

/// A cons cell of a list of trees (ε is the null pointer).
struct TreeList {
  TreeRef Head;
  TreeListRef Tail;

  TreeList(TreeRef Head, TreeListRef Tail)
      : Head(std::move(Head)), Tail(std::move(Tail)) {}
};

/// Builds a cons cell.
inline TreeListRef cons(TreeRef Head, TreeListRef Tail) {
  return std::make_shared<const TreeList>(std::move(Head), std::move(Tail));
}

/// Builds a tree node.
inline TreeRef makeTree(Symbol Label, bool Marked, TreeListRef Children) {
  return std::make_shared<const Tree>(Label, Marked, std::move(Children));
}

/// (tl, Top, tl) or (tl, c[σ◦], tl): the left siblings in reverse order,
/// the enclosing context (null for Top), and the right siblings.
struct Context {
  TreeListRef Left;
  ContextRef Parent;      ///< null when this is the Top context
  Symbol ParentLabel = 0; ///< meaningful only when Parent context exists
  bool ParentMarked = false; ///< start mark on the enclosing element
  TreeListRef Right;
  bool HasParent = false;

  bool isTop() const { return !HasParent; }
};

/// Builds the Top context (tl_left, Top, tl_right).
inline ContextRef makeTopContext(TreeListRef Left, TreeListRef Right) {
  auto C = std::make_shared<Context>();
  C->Left = std::move(Left);
  C->Right = std::move(Right);
  return C;
}

/// Builds a context node (tl_left, c[σ◦], tl_right).
inline ContextRef makeContext(TreeListRef Left, ContextRef Parent,
                              Symbol ParentLabel, bool ParentMarked,
                              TreeListRef Right) {
  auto C = std::make_shared<Context>();
  C->Left = std::move(Left);
  C->Parent = std::move(Parent);
  C->ParentLabel = ParentLabel;
  C->ParentMarked = ParentMarked;
  C->Right = std::move(Right);
  C->HasParent = true;
  return C;
}

/// Structural equality helpers (deep comparison).
inline bool treeListEquals(const TreeListRef &A, const TreeListRef &B);

inline bool treeEquals(const TreeRef &A, const TreeRef &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return A->Label == B->Label && A->Marked == B->Marked &&
         treeListEquals(A->Children, B->Children);
}

inline bool treeListEquals(const TreeListRef &A, const TreeListRef &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return treeEquals(A->Head, B->Head) && treeListEquals(A->Tail, B->Tail);
}

inline bool contextEquals(const ContextRef &A, const ContextRef &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  if (A->isTop() != B->isTop())
    return false;
  if (!treeListEquals(A->Left, B->Left) || !treeListEquals(A->Right, B->Right))
    return false;
  if (A->isTop())
    return true;
  return A->ParentLabel == B->ParentLabel &&
         A->ParentMarked == B->ParentMarked &&
         contextEquals(A->Parent, B->Parent);
}

/// A focused tree f = (t, c). Value type; copy is O(1).
class FocusedTree {
public:
  FocusedTree(TreeRef T, ContextRef C) : T(std::move(T)), C(std::move(C)) {}

  /// Convenience: focuses a whole tree at the root with an empty top
  /// context (ε, Top, ε).
  static FocusedTree atRoot(TreeRef T) {
    return FocusedTree(std::move(T), makeTopContext(nullptr, nullptr));
  }

  /// nm(f): the label of the node in focus.
  Symbol name() const { return T->Label; }

  /// Whether the node in focus carries the start mark.
  bool marked() const { return T->Marked; }

  /// f⟨1⟩: focus on the first child.
  /// (σ◦[t :: tl], c) ⟨1⟩ = (t, (ε, c[σ◦], tl))
  std::optional<FocusedTree> down1() const {
    if (!T->Children)
      return std::nullopt;
    return FocusedTree(T->Children->Head,
                       makeContext(nullptr, C, T->Label, T->Marked,
                                   T->Children->Tail));
  }

  /// f⟨2⟩: focus on the next sibling.
  /// (t, (tll, c[σ◦], t′ :: tlr)) ⟨2⟩ = (t′, (t :: tll, c[σ◦], tlr))
  std::optional<FocusedTree> down2() const {
    if (!C->Right)
      return std::nullopt;
    return FocusedTree(C->Right->Head,
                       moved(cons(T, C->Left), C->Right->Tail));
  }

  /// f⟨1̄⟩: focus on the parent; defined only from a leftmost sibling.
  /// (t, (ε, c[σ◦], tl)) ⟨1̄⟩ = (σ◦[t :: tl], c)
  std::optional<FocusedTree> up1() const {
    if (C->Left || C->isTop())
      return std::nullopt;
    return FocusedTree(
        makeTree(C->ParentLabel, C->ParentMarked, cons(T, C->Right)),
        C->Parent);
  }

  /// f⟨2̄⟩: focus on the previous sibling.
  /// (t′, (t :: tll, c[σ◦], tlr)) ⟨2̄⟩ = (t, (tll, c[σ◦], t′ :: tlr))
  std::optional<FocusedTree> up2() const {
    if (!C->Left)
      return std::nullopt;
    return FocusedTree(C->Left->Head,
                       moved(C->Left->Tail, cons(T, C->Right)));
  }

  /// Follows modality \p A in {0:⟨1⟩, 1:⟨2⟩, 2:⟨1̄⟩, 3:⟨2̄⟩}.
  std::optional<FocusedTree> follow(int A) const {
    switch (A) {
    case 0:
      return down1();
    case 1:
      return down2();
    case 2:
      return up1();
    case 3:
      return up2();
    }
    return std::nullopt;
  }

  /// Structural equality of the whole focused tree (subtree and context).
  bool operator==(const FocusedTree &O) const {
    return treeEquals(T, O.T) && contextEquals(C, O.C);
  }
  bool operator!=(const FocusedTree &O) const { return !(*this == O); }

private:
  /// This context with its sibling lists replaced: a sideways move.
  ContextRef moved(TreeListRef Left, TreeListRef Right) const {
    if (C->isTop())
      return makeTopContext(std::move(Left), std::move(Right));
    return makeContext(std::move(Left), C->Parent, C->ParentLabel,
                       C->ParentMarked, std::move(Right));
  }

  TreeRef T;
  ContextRef C;
};

/// Converts the subtree of \p D rooted at \p N into a shared Tree.
inline TreeRef toTree(const Document &D, NodeId N) {
  // Build the children list back to front to share cons cells.
  std::vector<NodeId> Children;
  for (NodeId C = D.firstChild(N); C != InvalidNodeId; C = D.nextSibling(C))
    Children.push_back(C);
  TreeListRef List = nullptr;
  for (auto It = Children.rbegin(); It != Children.rend(); ++It)
    List = cons(toTree(D, *It), List);
  return makeTree(D.label(N), D.isMarked(N), List);
}

/// The focused tree (t, c) whose focus is node \p N of \p D; contexts are
/// reconstructed up to the Top.
inline FocusedTree focusAt(const Document &D, NodeId N) {
  // Left siblings of a node nearest-first, as the paper stores them, and
  // right siblings in order.
  auto SiblingLists = [&](NodeId Node, TreeListRef &Left, TreeListRef &Right) {
    std::vector<NodeId> Ls, Rs;
    for (NodeId S = D.prevSibling(Node); S != InvalidNodeId;
         S = D.prevSibling(S))
      Ls.push_back(S);
    for (NodeId S = D.nextSibling(Node); S != InvalidNodeId;
         S = D.nextSibling(S))
      Rs.push_back(S);
    Left = nullptr;
    for (auto It = Ls.rbegin(); It != Ls.rend(); ++It)
      Left = cons(toTree(D, *It), Left);
    Right = nullptr;
    for (auto It = Rs.rbegin(); It != Rs.rend(); ++It)
      Right = cons(toTree(D, *It), Right);
  };

  std::vector<NodeId> Ancestors; // N's ancestors, nearest first
  for (NodeId A = D.parent(N); A != InvalidNodeId; A = D.parent(A))
    Ancestors.push_back(A);

  // Start from the Top context of the outermost ancestor (or of N itself).
  NodeId Outer = Ancestors.empty() ? N : Ancestors.back();
  TreeListRef L, R;
  SiblingLists(Outer, L, R);
  ContextRef C = makeTopContext(L, R);

  // Descend: each ancestor contributes a context node.
  for (size_t I = Ancestors.size(); I-- > 0;) {
    NodeId A = Ancestors[I];
    NodeId ChildTowardN = I == 0 ? N : Ancestors[I - 1];
    TreeListRef CL, CR;
    SiblingLists(ChildTowardN, CL, CR);
    C = makeContext(CL, C, D.label(A), D.isMarked(A), CR);
  }
  return FocusedTree(toTree(D, N), C);
}

/// Imports a shared Tree into \p D under \p Parent (InvalidNodeId: as a
/// new top-level root); returns the id of the imported root. A marked
/// node sets the document mark.
inline NodeId addTree(Document &D, const TreeRef &T,
                      NodeId Parent = InvalidNodeId) {
  NodeId N = D.addNode(T->Label, Parent);
  if (T->Marked) {
    assert(D.markedNode() == InvalidNodeId &&
           "document already has a start mark");
    D.setMark(N);
  }
  for (const TreeList *P = T->Children.get(); P; P = P->Tail.get())
    addTree(D, P->Head, N);
  return N;
}

} // namespace xsa

#endif // XSA_TESTS_FOCUSEDTREE_H
