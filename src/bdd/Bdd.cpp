//===- Bdd.cpp - Binary decision diagram package --------------------------===//

#include "bdd/Bdd.h"

#include <algorithm>
#include <new>
#include <unordered_map>
#include <unordered_set>

#include <sys/mman.h>

using namespace xsa;

//===----------------------------------------------------------------------===//
// Bdd handle
//===----------------------------------------------------------------------===//

Bdd::Bdd(BddManager *Mgr, uint32_t Node, bool AlreadyReferenced)
    : Mgr(Mgr), Node(Node) {
  if (Mgr && !AlreadyReferenced)
    Mgr->ref(Node);
}

Bdd::Bdd(const Bdd &O) : Mgr(O.Mgr), Node(O.Node) {
  if (Mgr)
    Mgr->ref(Node);
}

Bdd::Bdd(Bdd &&O) noexcept : Mgr(O.Mgr), Node(O.Node) { O.Mgr = nullptr; }

Bdd &Bdd::operator=(const Bdd &O) {
  if (this == &O)
    return *this;
  if (O.Mgr)
    O.Mgr->ref(O.Node);
  if (Mgr)
    Mgr->deref(Node);
  Mgr = O.Mgr;
  Node = O.Node;
  return *this;
}

Bdd &Bdd::operator=(Bdd &&O) noexcept {
  if (this == &O)
    return *this;
  if (Mgr)
    Mgr->deref(Node);
  Mgr = O.Mgr;
  Node = O.Node;
  O.Mgr = nullptr;
  return *this;
}

Bdd::~Bdd() {
  if (Mgr)
    Mgr->deref(Node);
}

bool Bdd::isOne() const { return Mgr && Node == 1; }
bool Bdd::isZero() const { return Mgr && Node == 0; }

Bdd Bdd::operator&(const Bdd &O) const {
  assert(Mgr && Mgr == O.Mgr && "operands from different managers");
  Mgr->maybeGc();
  return Bdd(Mgr, Mgr->applyRec(BddManager::Op::And, Node, O.Node), false);
}

Bdd Bdd::operator|(const Bdd &O) const {
  assert(Mgr && Mgr == O.Mgr && "operands from different managers");
  Mgr->maybeGc();
  return Bdd(Mgr, Mgr->applyRec(BddManager::Op::Or, Node, O.Node), false);
}

Bdd Bdd::operator^(const Bdd &O) const {
  assert(Mgr && Mgr == O.Mgr && "operands from different managers");
  Mgr->maybeGc();
  return Bdd(Mgr, Mgr->applyRec(BddManager::Op::Xor, Node, O.Node), false);
}

Bdd Bdd::operator!() const {
  assert(Mgr && "invalid handle");
  Mgr->maybeGc();
  return Bdd(Mgr, Mgr->notRec(Node), false);
}

Bdd Bdd::implies(const Bdd &O) const { return (!*this) | O; }

Bdd Bdd::iff(const Bdd &O) const { return !(*this ^ O); }

//===----------------------------------------------------------------------===//
// BddManager: public operations and structural algorithms
//===----------------------------------------------------------------------===//

void BddManager::ensureVars(unsigned NewNumVars) {
  while (NumVars < NewNumVars) {
    VarNodes.push_back(mk(NumVars, ZeroNode, OneNode));
    ++NumVars;
  }
}

uint32_t BddManager::var2Node(unsigned Var) {
  ensureVars(Var + 1);
  return VarNodes[Var];
}

Bdd BddManager::one() { return wrap(OneNode); }
Bdd BddManager::zero() { return wrap(ZeroNode); }
Bdd BddManager::var(unsigned Var) { return wrap(var2Node(Var)); }

Bdd BddManager::exists(const Bdd &F, const Bdd &Cube) {
  assert(F.manager() == this && Cube.manager() == this);
  maybeGc();
  return wrap(existsRec(F.node(), Cube.node()));
}

Bdd BddManager::andExists(const Bdd &F, const Bdd &G, const Bdd &Cube) {
  assert(F.manager() == this && G.manager() == this && Cube.manager() == this);
  maybeGc();
  return wrap(andExistsRec(F.node(), G.node(), Cube.node()));
}

Bdd BddManager::cube(const std::vector<unsigned> &Vars) {
  std::vector<unsigned> Sorted(Vars);
  std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  uint32_t R = OneNode;
  for (auto It = Sorted.rbegin(); It != Sorted.rend(); ++It) {
    ensureVars(*It + 1);
    R = mk(*It, ZeroNode, R);
  }
  return wrap(R);
}

Bdd BddManager::remapVars(const Bdd &F, const std::vector<unsigned> &VarMap) {
  assert(F.manager() == this);
  maybeGc();
  std::unordered_map<uint32_t, uint32_t> Memo;
  auto Rec = [&](auto &&Self, uint32_t N) -> uint32_t {
    if (N <= 1)
      return N;
    auto It = Memo.find(N);
    if (It != Memo.end())
      return It->second;
    const RawNode Nd = rawNode(N);
    assert(Nd.Var < VarMap.size() && "remap without a mapping for a var");
    unsigned NewVar = VarMap[Nd.Var];
    ensureVars(NewVar + 1);
    uint32_t R = mk(NewVar, Self(Self, Nd.Low), Self(Self, Nd.High));
    Memo.emplace(N, R);
    return R;
  };
  return wrap(Rec(Rec, F.node()));
}

bool BddManager::satOne(const Bdd &F, std::vector<bool> &Values,
                        std::vector<bool> *DontCare) {
  assert(F.manager() == this);
  Values.assign(NumVars, false);
  if (DontCare)
    DontCare->assign(NumVars, true);
  if (F.node() == 0)
    return false;
  uint32_t N = F.node();
  while (N > 1) {
    const RawNode Nd = rawNode(N);
    // Prefer the low branch: variables default to false, which for the
    // solver's lean encoding means fewer obligations — smaller models
    // (§7.2 asks for minimal satisfying trees).
    bool TakeHigh = Nd.Low == 0;
    Values[Nd.Var] = TakeHigh;
    if (DontCare)
      (*DontCare)[Nd.Var] = false;
    N = TakeHigh ? Nd.High : Nd.Low;
  }
  assert(N == 1 && "reduced BDD path must end in a terminal");
  return true;
}

std::vector<unsigned> BddManager::support(const Bdd &F) {
  std::unordered_set<uint32_t> Seen;
  std::vector<uint32_t> Stack{F.node()};
  std::vector<bool> InSupport(NumVars, false);
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    if (N <= 1 || !Seen.insert(N).second)
      continue;
    const RawNode Nd = rawNode(N);
    InSupport[Nd.Var] = true;
    Stack.push_back(Nd.Low);
    Stack.push_back(Nd.High);
  }
  std::vector<unsigned> Result;
  for (unsigned V = 0; V < NumVars; ++V)
    if (InSupport[V])
      Result.push_back(V);
  return Result;
}

//===----------------------------------------------------------------------===//
// BddManager: node store and unique table
//===----------------------------------------------------------------------===//

static constexpr uint32_t InvalidNode = ~0u;
static constexpr size_t CacheSize = 1u << 18; // direct-mapped entries

static constexpr size_t HugePageBytes = size_t(2) << 20;

/// The op cache's storage, lent to one manager at a time. The generation
/// travels with the buffer, so it never meets a stamp it already issued,
/// whichever thread it ends up on.
struct BddManager::OpCacheBuffer {
  uint32_t Generation = 0; // advanced before first use
  CacheEntry Entries[CacheSize] = {};

  // Lookups probe random slots of 5 MB, and on 4 KB pages most of them
  // miss the TLB; on huge pages, where the OS offers them, the buffer
  // takes three TLB entries.
  static void *operator new(size_t Size) {
    size_t Rounded = (Size + HugePageBytes - 1) & ~(HugePageBytes - 1);
    void *P = ::operator new(Rounded, std::align_val_t(HugePageBytes));
#ifdef MADV_HUGEPAGE
    (void)madvise(P, Rounded, MADV_HUGEPAGE); // a hint; 4 KB pages work
#endif
    return P;
  }
  static void operator delete(void *P) {
    ::operator delete(P, std::align_val_t(HugePageBytes));
  }
};

std::unique_ptr<BddManager::OpCacheBuffer> &BddManager::spareCache() {
  thread_local std::unique_ptr<OpCacheBuffer> Spare;
  return Spare;
}

void BddManager::setSpareCacheGenerationForTest(uint32_t Generation) {
  assert(Generation >= 1 && Generation <= MaxCacheGeneration);
  std::unique_ptr<OpCacheBuffer> &Spare = spareCache();
  if (!Spare)
    Spare = std::make_unique<OpCacheBuffer>();
  Spare->Generation = Generation;
}

BddManager::BddManager(unsigned InitialVars) {
  OpCache = std::move(spareCache());
  if (!OpCache)
    OpCache = std::make_unique<OpCacheBuffer>();
  clearCaches(); // no entry an earlier manager wrote can match
  Nodes.reserve(1 << 14);
  // Terminal nodes 0 (false) and 1 (true); permanently referenced.
  Nodes.push_back({TerminalVar, 0, 0, InvalidNode, 1, false});
  Nodes.push_back({TerminalVar, 1, 1, InvalidNode, 1, false});
  NodeCount = 2;
  PeakNodeCount = 2;
  GcThreshold = 1u << 20;
  UniqueTable.assign(1u << 14, InvalidNode);
  ensureVars(InitialVars);
}

BddManager::~BddManager() {
  std::unique_ptr<OpCacheBuffer> &Spare = spareCache();
  if (!Spare)
    Spare = std::move(OpCache);
}

static inline size_t hash3(uint32_t A, uint32_t B, uint32_t C) {
  uint64_t H = (uint64_t(A) * 0x9e3779b97f4a7c15ull) ^
               (uint64_t(B) * 0xc2b2ae3d27d4eb4full) ^
               (uint64_t(C) * 0x165667b19e3779f9ull);
  H ^= H >> 29;
  return static_cast<size_t>(H);
}

uint32_t BddManager::allocNode() {
  if (FreeList != InvalidNode) {
    uint32_t N = FreeList;
    FreeList = Nodes[N].Next;
    return N;
  }
  Nodes.push_back({});
  return static_cast<uint32_t>(Nodes.size() - 1);
}

void BddManager::growUniqueTable() {
  size_t NewSize = UniqueTable.size() * 2;
  UniqueTable.assign(NewSize, InvalidNode);
  for (uint32_t N = 2; N < Nodes.size(); ++N) {
    Node &Nd = Nodes[N];
    if (Nd.Var == TerminalVar) // terminal or free slot
      continue;
    size_t Bucket = hash3(Nd.Var, Nd.Low, Nd.High) & (NewSize - 1);
    Nd.Next = UniqueTable[Bucket];
    UniqueTable[Bucket] = N;
  }
}

uint32_t BddManager::mk(uint32_t Var, uint32_t Low, uint32_t High) {
  if (Low == High)
    return Low;
  assert(Nodes[Low].Var == TerminalVar || Nodes[Low].Var > Var);
  assert(Nodes[High].Var == TerminalVar || Nodes[High].Var > Var);
  size_t Mask = UniqueTable.size() - 1;
  size_t Bucket = hash3(Var, Low, High) & Mask;
  ++UniqueLookups;
  for (uint32_t N = UniqueTable[Bucket]; N != InvalidNode; N = Nodes[N].Next) {
    const Node &Nd = Nodes[N];
    if (Nd.Var == Var && Nd.Low == Low && Nd.High == High) {
      ++UniqueHits;
      return N;
    }
  }
  uint32_t N = allocNode();
  Nodes[N] = {Var, Low, High, UniqueTable[Bucket], 0, false};
  UniqueTable[Bucket] = N;
  ++NodeCount;
  PeakNodeCount = std::max(PeakNodeCount, NodeCount);
  if (NodeCount > UniqueTable.size() * 3 / 4) {
    growUniqueTable();
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Garbage collection
//===----------------------------------------------------------------------===//

void BddManager::markRecursive(uint32_t N) {
  while (N > 1 && !Nodes[N].Mark) {
    Nodes[N].Mark = true;
    markRecursive(Nodes[N].Low);
    N = Nodes[N].High;
  }
}

void BddManager::gc() {
  // Mark phase: externally referenced nodes and the variable nodes are roots.
  for (uint32_t N = 2; N < Nodes.size(); ++N)
    if (Nodes[N].Var != TerminalVar && Nodes[N].Refs > 0)
      markRecursive(N);
  for (uint32_t V : VarNodes)
    markRecursive(V);
  // Sweep phase: rebuild the unique table with the surviving nodes only.
  std::fill(UniqueTable.begin(), UniqueTable.end(), InvalidNode);
  FreeList = InvalidNode;
  size_t Mask = UniqueTable.size() - 1;
  NodeCount = 2;
  for (uint32_t N = 2; N < Nodes.size(); ++N) {
    Node &Nd = Nodes[N];
    if (Nd.Var == TerminalVar)
      continue; // already free
    if (!Nd.Mark) {
      Nd.Var = TerminalVar;
      Nd.Next = FreeList;
      FreeList = N;
      continue;
    }
    Nd.Mark = false;
    size_t Bucket = hash3(Nd.Var, Nd.Low, Nd.High) & Mask;
    Nd.Next = UniqueTable[Bucket];
    UniqueTable[Bucket] = N;
    ++NodeCount;
  }
  clearCaches();
}

void BddManager::maybeGc() {
  if (NodeCount <= GcThreshold)
    return;
  gc();
  // If most nodes survived, grow the threshold so we do not thrash.
  if (NodeCount > GcThreshold * 4 / 5)
    GcThreshold *= 2;
}

//===----------------------------------------------------------------------===//
// Operation cache
//===----------------------------------------------------------------------===//

BddManager::CacheEntry &BddManager::cacheSlot(uint8_t OpTag, uint32_t A,
                                               uint32_t B, uint32_t C) {
  uint64_t H = hash3(A, B, C) * 0x2545f4914f6cdd1dull + OpTag;
  return OpCache->Entries[H & (CacheSize - 1)];
}

uint32_t BddManager::stamp(uint8_t OpTag) const {
  return OpCache->Generation << 8 | OpTag;
}

void BddManager::clearCaches() {
  // Once the 24-bit generation runs out, forget every stamp and restart,
  // so no entry of the generation being reissued survives.
  if (OpCache->Generation == MaxCacheGeneration) {
    std::fill(std::begin(OpCache->Entries), std::end(OpCache->Entries),
              CacheEntry{});
    OpCache->Generation = 0;
  }
  ++OpCache->Generation;
}

namespace {
// cacheSlot hashes the tag, so these values fix which entries collide:
// renumbering them would change exact mk counts.
constexpr uint8_t TagNot = 200;
constexpr uint8_t TagExists = 202;
constexpr uint8_t TagAndExists = 204;
} // namespace

//===----------------------------------------------------------------------===//
// Core recursive algorithms
//===----------------------------------------------------------------------===//

uint32_t BddManager::notRec(uint32_t F) {
  if (F <= 1)
    return F ^ 1;
  {
    ++OpCacheLookups;
    CacheEntry &E = cacheSlot(TagNot, F, 0, 0);
    if (E.Stamp == stamp(TagNot) && E.A == F && E.B == 0 && E.C == 0) {
      ++OpCacheHits;
      return E.Result;
    }
  }
  const Node Nd = Nodes[F];
  uint32_t R = mk(Nd.Var, notRec(Nd.Low), notRec(Nd.High));
  cacheSlot(TagNot, F, 0, 0) = {F, 0, 0, stamp(TagNot), R};
  return R;
}

uint32_t BddManager::applyRec(Op O, uint32_t A, uint32_t B) {
  // Terminal cases.
  switch (O) {
  case Op::And:
    if (A == B)
      return A;
    if (A == 0 || B == 0)
      return 0;
    if (A == 1)
      return B;
    if (B == 1)
      return A;
    break;
  case Op::Or:
    if (A == B)
      return A;
    if (A == 1 || B == 1)
      return 1;
    if (A == 0)
      return B;
    if (B == 0)
      return A;
    break;
  case Op::Xor:
    if (A == B)
      return 0;
    if (A == 0)
      return B;
    if (B == 0)
      return A;
    if (A == 1)
      return notRec(B);
    if (B == 1)
      return notRec(A);
    break;
  }
  if (A > B)
    std::swap(A, B); // commutative: canonicalize for the cache
  uint8_t Tag = static_cast<uint8_t>(O);
  {
    ++OpCacheLookups;
    CacheEntry &E = cacheSlot(Tag, A, B, 0);
    if (E.Stamp == stamp(Tag) && E.A == A && E.B == B && E.C == 0) {
      ++OpCacheHits;
      return E.Result;
    }
  }
  const Node NA = Nodes[A], NB = Nodes[B];
  uint32_t V = std::min(NA.Var, NB.Var);
  uint32_t A0 = NA.Var == V ? NA.Low : A;
  uint32_t A1 = NA.Var == V ? NA.High : A;
  uint32_t B0 = NB.Var == V ? NB.Low : B;
  uint32_t B1 = NB.Var == V ? NB.High : B;
  uint32_t R0 = applyRec(O, A0, B0);
  uint32_t R1 = applyRec(O, A1, B1);
  uint32_t R = mk(V, R0, R1);
  cacheSlot(Tag, A, B, 0) = {A, B, 0, stamp(Tag), R};
  return R;
}

uint32_t BddManager::existsRec(uint32_t F, uint32_t Cube) {
  if (F <= 1)
    return F;
  // Skip quantified variables above F's top variable.
  uint32_t FVar = Nodes[F].Var;
  while (Cube > 1 && Nodes[Cube].Var < FVar)
    Cube = Nodes[Cube].High;
  if (Cube <= 1)
    return F;
  {
    ++OpCacheLookups;
    CacheEntry &E = cacheSlot(TagExists, F, Cube, 0);
    if (E.Stamp == stamp(TagExists) && E.A == F && E.B == Cube && E.C == 0) {
      ++OpCacheHits;
      return E.Result;
    }
  }
  const Node NF = Nodes[F];
  uint32_t R;
  if (Nodes[Cube].Var == NF.Var) {
    uint32_t NextCube = Nodes[Cube].High;
    uint32_t R0 = existsRec(NF.Low, NextCube);
    // Short-circuit: OR with 1 is absorbing.
    if (R0 == 1)
      R = 1;
    else
      R = applyRec(Op::Or, R0, existsRec(NF.High, NextCube));
  } else {
    R = mk(NF.Var, existsRec(NF.Low, Cube), existsRec(NF.High, Cube));
  }
  cacheSlot(TagExists, F, Cube, 0) = {F, Cube, 0, stamp(TagExists), R};
  return R;
}

uint32_t BddManager::andExistsRec(uint32_t F, uint32_t G, uint32_t Cube) {
  if (F == 0 || G == 0)
    return 0;
  if (F == 1)
    return existsRec(G, Cube);
  if (G == 1 || F == G)
    return existsRec(F, Cube);
  if (Cube <= 1)
    return applyRec(Op::And, F, G);
  if (F > G)
    std::swap(F, G);
  const Node NF = Nodes[F], NG = Nodes[G];
  uint32_t V = std::min(NF.Var, NG.Var);
  while (Cube > 1 && Nodes[Cube].Var < V)
    Cube = Nodes[Cube].High;
  if (Cube <= 1)
    return applyRec(Op::And, F, G);
  {
    ++OpCacheLookups;
    CacheEntry &E = cacheSlot(TagAndExists, F, G, Cube);
    if (E.Stamp == stamp(TagAndExists) && E.A == F && E.B == G && E.C == Cube) {
      ++OpCacheHits;
      return E.Result;
    }
  }
  uint32_t F0 = NF.Var == V ? NF.Low : F, F1 = NF.Var == V ? NF.High : F;
  uint32_t G0 = NG.Var == V ? NG.Low : G, G1 = NG.Var == V ? NG.High : G;
  uint32_t R;
  if (Nodes[Cube].Var == V) {
    uint32_t NextCube = Nodes[Cube].High;
    uint32_t R0 = andExistsRec(F0, G0, NextCube);
    if (R0 == 1)
      R = 1;
    else
      R = applyRec(Op::Or, R0, andExistsRec(F1, G1, NextCube));
  } else {
    R = mk(V, andExistsRec(F0, G0, Cube), andExistsRec(F1, G1, Cube));
  }
  cacheSlot(TagAndExists, F, G, Cube) = {F, G, Cube, stamp(TagAndExists), R};
  return R;
}
