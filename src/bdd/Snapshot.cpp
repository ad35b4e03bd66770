//===- Snapshot.cpp - Portable BDD snapshots -------------------------------===//

#include "bdd/Snapshot.h"

#include <cassert>
#include <unordered_map>

using namespace xsa;

BddSnapshot xsa::exportSnapshot(BddManager &M, const Bdd &F) {
  assert(F.manager() == &M && "snapshot of a foreign handle");
  BddSnapshot S;
  if (F.node() <= 1) {
    S.Root = F.node();
    return S;
  }
  // Iterative post-order: a node is emitted only after both children, so
  // the table comes out topologically ordered. The emitted order depends
  // only on node *structure* (low child first), never on manager node
  // ids — which is what keeps snapshots byte-identical across managers.
  std::unordered_map<uint32_t, uint32_t> Ref; // manager node -> table ref
  Ref.emplace(0, 0);
  Ref.emplace(1, 1);
  std::vector<std::pair<uint32_t, bool>> Stack{{F.node(), false}};
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
  S.Root = Ref.at(F.node());
  return S;
}

Bdd xsa::importSnapshot(BddManager &M, const BddSnapshot &S,
                        unsigned (*MapVar)(unsigned)) {
  std::vector<Bdd> Built;
  Built.reserve(S.Nodes.size() + 2);
  Built.push_back(M.zero());
  Built.push_back(M.one());
  for (const BddSnapshot::Node &N : S.Nodes) {
    assert(N.Low < Built.size() && N.High < Built.size() &&
           "snapshot table not topologically ordered");
    // ite(var, high, low) re-derives the canonical node in this manager.
    unsigned Var = MapVar ? MapVar(N.Var) : N.Var;
    Built.push_back(M.ite(M.var(Var), Built[N.High], Built[N.Low]));
  }
  assert(S.Root < Built.size() && "snapshot root out of range");
  return Built[S.Root];
}
