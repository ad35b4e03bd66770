//===- Document.cpp - Flat tree arena -------------------------------------===//

#include "tree/Document.h"

#include <cassert>

using namespace xsa;

NodeId Document::addNode(Symbol Label, NodeId Parent) {
  NodeId N = static_cast<NodeId>(Nodes.size());
  DocNode Node;
  Node.Label = Label;
  Node.Parent = Parent;
  if (Parent != InvalidNodeId) {
    DocNode &P = Nodes[Parent];
    if (P.FirstChild == InvalidNodeId) {
      P.FirstChild = N;
    } else {
      Nodes[P.LastChild].NextSibling = N;
      Node.PrevSibling = P.LastChild;
    }
    P.LastChild = N;
  } else {
    // Top-level root: link after the last existing root.
    NodeId LastRoot = InvalidNodeId;
    for (NodeId I = static_cast<NodeId>(Nodes.size()) - 1; I >= 0; --I) {
      if (Nodes[I].Parent == InvalidNodeId) {
        LastRoot = I;
        break;
      }
    }
    if (LastRoot != InvalidNodeId) {
      // Find the final sibling in the top-level chain.
      while (Nodes[LastRoot].NextSibling != InvalidNodeId)
        LastRoot = Nodes[LastRoot].NextSibling;
      Nodes[LastRoot].NextSibling = N;
      Node.PrevSibling = LastRoot;
    }
  }
  Nodes.push_back(Node);
  return N;
}

std::vector<NodeId> Document::roots() const {
  std::vector<NodeId> R;
  for (NodeId N = 0; N < static_cast<NodeId>(Nodes.size()); ++N)
    if (Nodes[N].Parent == InvalidNodeId && Nodes[N].PrevSibling == InvalidNodeId) {
      // Walk the top-level sibling chain from its head.
      for (NodeId S = N; S != InvalidNodeId; S = Nodes[S].NextSibling)
        R.push_back(S);
      break;
    }
  return R;
}

NodeId Document::follow(NodeId N, int A) const {
  switch (A) {
  case 0:
    return child1(N);
  case 1:
    return child2(N);
  case 2:
    return up1(N);
  case 3:
    return up2(N);
  }
  return InvalidNodeId;
}

TreeRef Document::toTree(NodeId N) const {
  // Build the children list back to front to share cons cells.
  std::vector<NodeId> Children;
  for (NodeId C = firstChild(N); C != InvalidNodeId; C = nextSibling(C))
    Children.push_back(C);
  TreeListRef List = nullptr;
  for (auto It = Children.rbegin(); It != Children.rend(); ++It)
    List = cons(toTree(*It), List);
  return makeTree(Nodes[N].Label, isMarked(N), List);
}

FocusedTree Document::focusAt(NodeId N) const {
  // Left siblings of N in reverse order, right siblings in order.
  auto SiblingLists = [&](NodeId Node, TreeListRef &Left, TreeListRef &Right) {
    Left = nullptr;
    for (NodeId S = prevSibling(Node); S != InvalidNodeId; S = prevSibling(S))
      Left = cons(toTree(S), Left);
    // Reverse: the paper stores left siblings nearest-first.
    TreeListRef Rev = nullptr;
    for (const TreeList *P = Left.get(); P; P = P->Tail.get())
      Rev = cons(P->Head, Rev);
    Left = Rev;
    Right = nullptr;
    std::vector<NodeId> Rs;
    for (NodeId S = nextSibling(Node); S != InvalidNodeId; S = nextSibling(S))
      Rs.push_back(S);
    for (auto It = Rs.rbegin(); It != Rs.rend(); ++It)
      Right = cons(toTree(*It), Right);
  };

  // Build the context chain from N upward.
  std::vector<NodeId> Ancestors; // N's ancestors, nearest first
  for (NodeId A = parent(N); A != InvalidNodeId; A = parent(A))
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
    C = makeContext(CL, C, Nodes[A].Label, isMarked(A), CR);
  }
  return FocusedTree(toTree(N), C);
}

NodeId Document::addTree(const TreeRef &T, NodeId Parent) {
  NodeId N = addNode(T->Label, Parent);
  if (T->Marked) {
    assert(Mark == InvalidNodeId && "document already has a start mark");
    Mark = N;
  }
  for (const TreeList *P = T->Children.get(); P; P = P->Tail.get())
    addTree(P->Head, N);
  return N;
}

int Document::depth(NodeId N) const {
  int D = 0;
  for (NodeId A = parent(N); A != InvalidNodeId; A = parent(A))
    ++D;
  return D;
}

bool Document::operator==(const Document &O) const {
  if (Nodes.size() != O.Nodes.size() || Mark != O.Mark)
    return false;
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const DocNode &A = Nodes[I], &B = O.Nodes[I];
    if (A.Label != B.Label || A.Parent != B.Parent ||
        A.FirstChild != B.FirstChild || A.NextSibling != B.NextSibling ||
        A.PrevSibling != B.PrevSibling)
      return false;
  }
  return true;
}
