//===- Snapshot.cpp - Portable BDD snapshots -------------------------------===//

#include "bdd/Snapshot.h"

#include <cassert>
#include <unordered_map>

using namespace xsa;

BddSnapshot xsa::exportSnapshot(BddManager &M, const std::vector<Bdd> &Roots) {
  BddSnapshot S;
  S.Roots.reserve(Roots.size());
  S.Ends.reserve(Roots.size());
  // Iterative post-order: a node is emitted only after both children, so
  // the table comes out topologically ordered. The emitted order depends
  // only on node *structure* (roots in order, low child first), never on
  // manager node ids — which is what keeps snapshots byte-identical
  // across managers.
  std::unordered_map<uint32_t, uint32_t> Ref; // manager node -> table ref
  Ref.emplace(BddManager::ZeroNode, 0);
  Ref.emplace(BddManager::OneNode, 1);
  std::vector<std::pair<uint32_t, bool>> Stack;
  for (const Bdd &F : Roots) {
    assert(F.manager() == &M && "snapshot of a foreign handle");
    Stack.push_back({F.node(), false});
    while (!Stack.empty()) {
      auto [N, ChildrenDone] = Stack.back();
      Stack.pop_back();
      if (Ref.count(N))
        continue;
      const BddManager::RawNode Nd = M.rawNode(N);
      if (!ChildrenDone) {
        Stack.push_back({N, true});
        Stack.push_back({Nd.High, false});
        Stack.push_back({Nd.Low, false});
        continue;
      }
      S.Nodes.push_back({Nd.Var, Ref.at(Nd.Low), Ref.at(Nd.High)});
      Ref.emplace(N, static_cast<uint32_t>(S.Nodes.size() - 1) + 2);
    }
    S.Roots.push_back(Ref.at(F.node()));
    S.Ends.push_back(static_cast<uint32_t>(S.Nodes.size()));
  }
  return S;
}

uint32_t SnapshotImporter::node(uint32_t Ref) const {
  if (Ref <= BddManager::OneNode)
    return Ref;
  assert(Ref - 2 < Built.size() && "snapshot reference past the built prefix");
  uint32_t N = Built[Ref - 2];
#ifndef NDEBUG
  // A GC frees a node by making it terminal, and a reused slot holds
  // another triple, so a live buffered node still shows its entry.
  auto Raw = [&](uint32_t R) { return R <= 1 ? R : Built[R - 2]; };
  const BddSnapshot::Node &E = S.Nodes[Ref - 2];
  const BddManager::Node &Nd = M.Nodes[N];
  assert(Nd.Var == (MapVar ? MapVar(E.Var) : E.Var) &&
         Nd.Low == Raw(E.Low) && Nd.High == Raw(E.High) &&
         "buffered snapshot node was collected: a returned root was "
         "dropped while importing");
#endif
  return N;
}

Bdd SnapshotImporter::root(size_t I) {
  assert(I < S.numRoots() && "snapshot root out of range");
  for (size_t E = Built.size(); E < S.Ends[I]; ++E) {
    const BddSnapshot::Node &N = S.Nodes[E];
    assert(N.Low < E + 2 && N.High < E + 2 &&
           "snapshot table not topologically ordered");
    unsigned Var = MapVar ? MapVar(N.Var) : N.Var;
    M.ensureVars(Var + 1);
    // The unique-table constructor returns the canonical node of
    // (Var, Low, High) (DESIGN.md, "BDD canonicity"), and it never
    // collects garbage, so no buffered id dies while entries are built.
    Built.push_back(M.mk(Var, node(N.Low), node(N.High)));
  }
  return M.wrap(node(S.Roots[I]));
}
