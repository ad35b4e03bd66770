//===- Snapshot.cpp - Portable BDD snapshots -------------------------------===//

#include "bdd/Snapshot.h"

#include <cassert>
#include <charconv>
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

std::string BddSnapshot::encode() const {
  std::string Out;
  Out.reserve(12 * (Nodes.size() + 1));
  Out += std::to_string(Root);
  Out += ' ';
  Out += std::to_string(Nodes.size());
  for (const Node &N : Nodes) {
    Out += ' ';
    Out += std::to_string(N.Var);
    Out += ' ';
    Out += std::to_string(N.Low);
    Out += ' ';
    Out += std::to_string(N.High);
  }
  return Out;
}

namespace {

bool readU32(const char *&P, const char *End, uint32_t &Out) {
  while (P != End && *P == ' ')
    ++P;
  auto [Next, Ec] = std::from_chars(P, End, Out);
  if (Ec != std::errc() || Next == P)
    return false;
  P = Next;
  return true;
}

} // namespace

bool BddSnapshot::decode(const std::string &Text, BddSnapshot &Out) {
  Out = BddSnapshot();
  const char *P = Text.data(), *End = Text.data() + Text.size();
  uint32_t Count = 0;
  if (!readU32(P, End, Out.Root) || !readU32(P, End, Count))
    return false;
  // An adversarial count must not translate into an allocation; the
  // table can only be as large as the remaining text.
  if (Count > Text.size())
    return false;
  Out.Nodes.reserve(Count);
  // Variable indices translate into ensureVars allocations on import
  // (and are doubled by the solver's lean widening), so a corrupt index
  // must be rejected here, not discovered as an OOM mid-solve. Real
  // leans are a few thousand bits; 2^20 is far beyond any solvable one.
  constexpr uint32_t MaxVar = 1u << 20;
  for (uint32_t I = 0; I < Count; ++I) {
    Node N;
    if (!readU32(P, End, N.Var) || !readU32(P, End, N.Low) ||
        !readU32(P, End, N.High))
      return false;
    // Children must reference terminals or earlier entries (topological
    // order), or import would read out of range.
    if (N.Var >= MaxVar || N.Low >= I + 2 || N.High >= I + 2 ||
        N.Low == N.High)
      return false;
    Out.Nodes.push_back(N);
  }
  while (P != End && *P == ' ')
    ++P;
  if (P != End || Out.Root >= Count + 2)
    return false;
  return true;
}
