//===- Document.cpp - Flat tree arena -------------------------------------===//

#include "tree/Document.h"

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
