//===- Document.h - Flat tree arena for evaluation --------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, indexed representation of a *hedge* (an ordered sequence of
/// labeled trees): the program's model of the paper's focused trees (§3),
/// which a node id brings into focus. It is used by the XPath evaluator
/// (Figs 5-6), the direct Lµ formula evaluator, the DTD validator, and
/// counterexample output. Navigation maps directly onto the paper's
/// binary modalities:
///
///   ⟨1⟩ = firstChild, ⟨2⟩ = nextSibling,
///   ⟨1̄⟩ = parent (only when the node is a leftmost sibling or a non-first
///          top-level root, where it is undefined),
///   ⟨2̄⟩ = prevSibling.
///
/// At most one node carries the start mark, matching the set F of finite
/// focused trees with a single mark.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_TREE_DOCUMENT_H
#define XSA_TREE_DOCUMENT_H

#include "support/StringInterner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace xsa {

/// Index of a node within a Document; InvalidNodeId means "undefined".
using NodeId = int32_t;
constexpr NodeId InvalidNodeId = -1;

/// One element node.
struct DocNode {
  Symbol Label = 0;
  NodeId Parent = InvalidNodeId;
  NodeId FirstChild = InvalidNodeId;
  NodeId LastChild = InvalidNodeId;
  NodeId NextSibling = InvalidNodeId;
  NodeId PrevSibling = InvalidNodeId;
};

/// A hedge of element nodes with O(1) navigation in all four directions.
class Document {
public:
  /// Appends a new node labeled \p Label under \p Parent (InvalidNodeId
  /// appends a new top-level root). Returns the node id.
  NodeId addNode(Symbol Label, NodeId Parent);
  NodeId addNode(std::string_view Label, NodeId Parent) {
    return addNode(internSymbol(Label), Parent);
  }

  size_t size() const { return Nodes.size(); }
  bool empty() const { return Nodes.empty(); }

  const DocNode &node(NodeId N) const { return Nodes[N]; }
  Symbol label(NodeId N) const { return Nodes[N].Label; }
  const std::string &labelName(NodeId N) const {
    return symbolName(Nodes[N].Label);
  }

  NodeId firstRoot() const { return Nodes.empty() ? InvalidNodeId : 0; }

  /// All top-level roots in document order.
  std::vector<NodeId> roots() const;

  /// Binary-style navigation (the paper's modalities). Each returns
  /// InvalidNodeId when the move is undefined.
  NodeId child1(NodeId N) const { return Nodes[N].FirstChild; }
  NodeId child2(NodeId N) const { return Nodes[N].NextSibling; }
  NodeId up1(NodeId N) const {
    return Nodes[N].PrevSibling == InvalidNodeId ? Nodes[N].Parent
                                                 : InvalidNodeId;
  }
  NodeId up2(NodeId N) const { return Nodes[N].PrevSibling; }

  /// Follows modality \p A in {0:⟨1⟩, 1:⟨2⟩, 2:⟨1̄⟩, 3:⟨2̄⟩}.
  NodeId follow(NodeId N, int A) const;

  /// Unranked-style navigation helpers used by the XPath evaluator.
  NodeId parent(NodeId N) const { return Nodes[N].Parent; }
  NodeId firstChild(NodeId N) const { return Nodes[N].FirstChild; }
  NodeId nextSibling(NodeId N) const { return Nodes[N].NextSibling; }
  NodeId prevSibling(NodeId N) const { return Nodes[N].PrevSibling; }

  /// The start mark (InvalidNodeId if absent).
  NodeId markedNode() const { return Mark; }
  void setMark(NodeId N) { Mark = N; }
  bool isMarked(NodeId N) const { return Mark == N; }

private:
  std::vector<DocNode> Nodes;
  NodeId Mark = InvalidNodeId;
};

} // namespace xsa

#endif // XSA_TREE_DOCUMENT_H
