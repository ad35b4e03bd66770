//===- bdd_test.cpp - Unit and property tests for the BDD package ---------===//
//
// The symbolic solver (§7 of the paper) is only as correct as this
// substrate, so we test it exhaustively against truth tables on small
// variable counts, plus targeted tests for quantification, relational
// products, renaming, extraction and GC.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "bdd/Snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <thread>

using namespace xsa;

namespace {

/// The value of \p F when variable V is bit V of \p Asg, read by walking
/// the node structure: the truth-table oracle of the tests below.
bool eval(const BddManager &M, const Bdd &F, unsigned Asg) {
  uint32_t N = F.node();
  while (N != BddManager::ZeroNode && N != BddManager::OneNode) {
    BddManager::RawNode Nd = M.rawNode(N);
    N = (Asg >> Nd.Var) & 1 ? Nd.High : Nd.Low;
  }
  return N == BddManager::OneNode;
}

TEST(Bdd, Constants) {
  BddManager M;
  EXPECT_TRUE(M.one().isOne());
  EXPECT_TRUE(M.zero().isZero());
  EXPECT_NE(M.one(), M.zero());
  EXPECT_EQ(!M.one(), M.zero());
  EXPECT_EQ(!M.zero(), M.one());
}

TEST(Bdd, VarBasics) {
  BddManager M(4);
  Bdd X = M.var(0), Y = M.var(1);
  EXPECT_EQ(X & X, X);
  EXPECT_EQ(X | X, X);
  EXPECT_EQ(X ^ X, M.zero());
  EXPECT_EQ(X & !X, M.zero());
  EXPECT_EQ(X | !X, M.one());
  EXPECT_EQ(X & Y, Y & X);
  EXPECT_EQ(X | Y, Y | X);
  EXPECT_EQ(!(X & Y), (!X) | (!Y));
  EXPECT_EQ(!(X | Y), (!X) & (!Y));
  EXPECT_EQ(X.iff(Y), ((!X) | Y) & ((!Y) | X));
  EXPECT_EQ(X.implies(Y), (!X) | Y);
}

TEST(Bdd, NegationIsInvolutive) {
  BddManager M(3);
  Bdd F = (M.var(0) & M.var(1)) | ((!M.var(2)) & M.var(0));
  EXPECT_EQ(!(!F), F);
}

TEST(Bdd, Exists) {
  BddManager M(3);
  Bdd X = M.var(0), Y = M.var(1), Z = M.var(2);
  Bdd F = (X & Y) | (Z & !Y);
  Bdd CY = M.cube({1});
  // exists y. F = X | Z (y=1 gives X, y=0 gives Z)
  EXPECT_EQ(M.exists(F, CY), X | Z);
  // Quantifying a variable not in the support is the identity.
  Bdd C3 = M.cube({3});
  EXPECT_EQ(M.exists(F, C3), F);
  // Quantifying everything collapses to a constant.
  EXPECT_EQ(M.exists(F, M.cube({0, 1, 2})), M.one());
  // Quantification is idempotent and distributes over ∨.
  Bdd G = Y.implies(Z);
  EXPECT_EQ(M.exists(M.exists(F, CY), CY), M.exists(F, CY));
  EXPECT_EQ(M.exists(F | G, CY), M.exists(F, CY) | M.exists(G, CY));
}

TEST(Bdd, AndExistsMatchesComposition) {
  BddManager M(4);
  Bdd X = M.var(0), Y = M.var(1), Z = M.var(2), W = M.var(3);
  Bdd F = X.iff(Y) & Z.implies(W);
  Bdd G = (Y | W) & ((!Z) | X);
  Bdd C = M.cube({1, 3});
  EXPECT_EQ(M.andExists(F, G, C), M.exists(F & G, C));
}

TEST(Bdd, SatOneFindsAModel) {
  BddManager M(4);
  Bdd F = (M.var(0) ^ M.var(1)) & M.var(3);
  std::vector<bool> Values;
  ASSERT_TRUE(M.satOne(F, Values));
  EXPECT_NE(Values[0], Values[1]);
  EXPECT_TRUE(Values[3]);
  EXPECT_FALSE(M.satOne(M.zero(), Values));
  ASSERT_TRUE(M.satOne(M.one(), Values));
}

TEST(Bdd, Support) {
  BddManager M(5);
  Bdd F = (M.var(1) & M.var(3)) | M.var(4);
  EXPECT_EQ(M.support(F), (std::vector<unsigned>{1, 3, 4}));
  EXPECT_TRUE(M.support(M.one()).empty());
}

TEST(Bdd, CubeIsSortedConjunction) {
  BddManager M(5);
  EXPECT_EQ(M.cube({3, 1, 4, 1}), M.var(1) & M.var(3) & M.var(4));
  EXPECT_EQ(M.cube({}), M.one());
}

TEST(Bdd, GcKeepsLiveNodes) {
  BddManager M(8);
  Bdd Keep = M.var(0) & M.var(1);
  {
    // Create garbage.
    Bdd Tmp = M.one();
    for (unsigned I = 0; I < 8; ++I)
      Tmp = Tmp ^ M.var(I);
  }
  size_t Before = M.numNodes();
  M.gc();
  EXPECT_LE(M.numNodes(), Before);
  // The kept function still works after collection.
  EXPECT_EQ(Keep & M.var(0), Keep);
  for (unsigned Asg = 0; Asg < 4; ++Asg)
    EXPECT_EQ(eval(M, Keep, Asg), Asg == 3) << "assignment " << Asg;
}

TEST(Bdd, RemapVarsShiftsMonotonically) {
  BddManager M(8);
  // F over even variables; shift each var to its odd neighbor.
  Bdd F = (M.var(0) & M.var(2)) | ((!M.var(4)) & M.var(6));
  std::vector<unsigned> Map(8);
  for (unsigned I = 0; I < 8; ++I)
    Map[I] = I | 1;
  Bdd G = M.remapVars(F, Map);
  Bdd Expected = (M.var(1) & M.var(3)) | ((!M.var(5)) & M.var(7));
  EXPECT_EQ(G, Expected);
  // Identity map is the identity.
  std::vector<unsigned> Id(8);
  for (unsigned I = 0; I < 8; ++I)
    Id[I] = I;
  EXPECT_EQ(M.remapVars(F, Id), F);
  // Constants are unaffected.
  EXPECT_EQ(M.remapVars(M.one(), Map), M.one());
}

TEST(Bdd, AndExistsOnDisjointSupports) {
  BddManager M(6);
  Bdd F = M.var(0) & M.var(1);
  Bdd G = M.var(4) | M.var(5);
  // Quantifying variables absent from both is a plain conjunction.
  EXPECT_EQ(M.andExists(F, G, M.cube({2, 3})), F & G);
  // Quantifying G's support out of F∧G leaves F scaled by SAT(G).
  EXPECT_EQ(M.andExists(F, G, M.cube({4, 5})), F);
}

//===----------------------------------------------------------------------===//
// The borrowed op cache. Each thread keeps one op-cache buffer and lends
// it to every manager built there; a new manager or a GC empties it by
// advancing the buffer's generation. These tests run on threads of their
// own, so the first manager of each starts on a freshly allocated buffer.
//===----------------------------------------------------------------------===//

/// Truth tables over four variables: bit A is the value at assignment A.
constexpr uint16_t V0 = 0xaaaa, V1 = 0xcccc, V2 = 0xf0f0, V3 = 0xff00;

uint16_t table(const BddManager &M, const Bdd &F) {
  uint16_t T = 0;
  for (unsigned Asg = 0; Asg < 16; ++Asg)
    if (eval(M, F, Asg))
      T |= uint16_t(1) << Asg;
  return T;
}

void onNewThread(const std::function<void()> &Body) {
  std::thread T(Body);
  T.join();
}

/// The counters that must not depend on which buffer a manager got.
std::array<size_t, 5> counters(const BddManager &M) {
  return {M.uniqueLookups(), M.uniqueHits(), M.opCacheLookups(),
          M.opCacheHits(), M.peakNodes()};
}

/// Node ids of one cached conjunction: its operands and its result.
struct AndIds {
  uint32_t F, G, R;
};

/// In a fresh four-variable manager, caches (v0 & v1) & (v2 | v3).
AndIds writeAnd(BddManager &M) {
  Bdd F = M.var(0) & M.var(1), G = M.var(2) | M.var(3);
  Bdd R = F & G;
  EXPECT_EQ(table(M, R), V0 & V1 & (V2 | V3));
  return {F.node(), G.node(), R.node()};
}

/// In a fresh four-variable manager, other functions on writeAnd's ids:
/// F and G on its operands', J on its result's.
struct Reread {
  Bdd F, G, J;
};
Reread buildReread(BddManager &M) {
  return {M.var(0) | M.var(1), M.var(2) & M.var(3), M.var(1) ^ M.var(3)};
}

/// Conjoins Reread's operands: a stale entry of writeAnd answers J.
void checkRereadAnd(BddManager &M, const Reread &In) {
  EXPECT_EQ(table(M, In.F & In.G), (V0 | V1) & V2 & V3);
}

TEST(BddOpCache, EntriesOfAnEarlierManagerAreNeverRead) {
  onNewThread([] {
    AndIds Written;
    {
      BddManager M1(4);
      Written = writeAnd(M1);
    }
    BddManager M2(4); // takes M1's buffer, entries and all
    Reread In = buildReread(M2);
    EXPECT_EQ(In.F.node(), Written.F);
    EXPECT_EQ(In.G.node(), Written.G);
    EXPECT_EQ(In.J.node(), Written.R);
    checkRereadAnd(M2, In);
  });
}

/// A fixed mix of every cached operation over eight variables, with a GC
/// halfway.
void runOpSequence(BddManager &M) {
  std::mt19937 Rng(7);
  std::vector<Bdd> Pool;
  for (unsigned V = 0; V < 8; ++V)
    Pool.push_back(M.var(V));
  auto Pick = [&]() -> const Bdd & { return Pool[Rng() % Pool.size()]; };
  auto AnyVar = [&] { return static_cast<unsigned>(Rng() % 8); };
  for (int Step = 0; Step < 400; ++Step) {
    if (Step == 200) {
      Pool.resize(12);
      M.gc();
    }
    const Bdd &A = Pick(), &B = Pick(), &C = Pick();
    switch (Rng() % 7) {
    case 0:
      Pool.push_back(A & B);
      break;
    case 1:
      Pool.push_back(A | B);
      break;
    case 2:
      Pool.push_back(A ^ B);
      break;
    case 3:
      Pool.push_back(!A);
      break;
    case 4:
      Pool.push_back((A & B) | ((!A) & C));
      break;
    case 5:
      Pool.push_back(M.exists(A, M.cube({AnyVar(), AnyVar()})));
      break;
    default:
      Pool.push_back(M.andExists(A, B, M.cube({AnyVar(), AnyVar()})));
      break;
    }
  }
}

TEST(BddOpCache, ReusedBufferKeepsEveryCount) {
  onNewThread([] {
    std::array<size_t, 5> First, Reused;
    {
      BddManager M(8);
      runOpSequence(M);
      First = counters(M);
    }
    BddManager M(8);
    runOpSequence(M);
    Reused = counters(M);
    EXPECT_EQ(First, Reused);
    EXPECT_GT(First[3], 0u) << "the sequence should hit its own entries";
  });
}

TEST(BddOpCache, TwoLiveManagersOnOneThread) {
  onNewThread([] {
    BddManager M1(4);
    AndIds Written = writeAnd(M1);
    BddManager M2(4); // M1 holds the thread's buffer: M2 gets its own
    Reread In = buildReread(M2);
    EXPECT_EQ(In.J.node(), Written.R);
    checkRereadAnd(M2, In);
    // M1 still reads its own entries.
    size_t Hits = M1.opCacheHits();
    Bdd R = (M1.var(0) & M1.var(1)) & (M1.var(2) | M1.var(3));
    EXPECT_EQ(R.node(), Written.R);
    EXPECT_GT(M1.opCacheHits(), Hits);
  });
}

TEST(BddOpCache, NoStaleHitAfterGcReusesNodeIds) {
  BddManager M(4);
  AndIds Written = writeAnd(M);
  M.gc(); // frees all four nodes; the free list hands out the highest first
  // The first two new nodes take R's two ids, the next two G's and F's.
  Bdd OnR = M.var(1) & M.var(3), OnRsChild = M.var(0) | M.var(2);
  Bdd G = M.var(0) | M.var(1), F = M.var(2) & M.var(3);
  ASSERT_EQ(OnR.node(), Written.R);
  ASSERT_EQ(G.node(), Written.G);
  ASSERT_EQ(F.node(), Written.F);
  // (And, F, G) was cached before the GC with the result id OnR now has.
  EXPECT_EQ(table(M, G & F), (V0 | V1) & V2 & V3);
}

TEST(BddOpCache, GenerationWrapForgetsEveryStamp) {
  auto RereadAnd = [](BddManager &M, bool GcFirst) {
    Reread In = buildReread(M);
    if (GcFirst)
      M.gc();
    checkRereadAnd(M, In);
  };
  std::array<size_t, 5> Fresh[2];
  for (bool GcFirst : {false, true})
    onNewThread([&] {
      BddManager M(4);
      RereadAnd(M, GcFirst);
      Fresh[GcFirst] = counters(M);
    });
  // Generation 1 holds writeAnd's entries when the wrap reissues it: as
  // the next manager is built, or at that manager's GC.
  for (bool WrapAtGc : {false, true})
    onNewThread([&] {
      {
        BddManager M1(4);
        writeAnd(M1);
      }
      BddManager::setSpareCacheGenerationForTest(
          BddManager::MaxCacheGeneration - (WrapAtGc ? 1 : 0));
      BddManager M(4);
      RereadAnd(M, WrapAtGc);
      EXPECT_EQ(counters(M), Fresh[WrapAtGc]);
    });
}

//===----------------------------------------------------------------------===//
// Exhaustive differential test: random expressions over <= 4 variables are
// evaluated both as BDDs and against brute-force truth tables.
//===----------------------------------------------------------------------===//

/// A syntax tree over n variables paired with its 16-row truth table (bits
/// of a uint16_t indexed by assignment).
struct RandomFunc {
  Bdd F;
  uint16_t Table;
};

class BddRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomTest, AgreesWithTruthTable) {
  std::mt19937 Rng(GetParam());
  BddManager M(4);
  uint16_t VarTable[4];
  for (unsigned V = 0; V < 4; ++V) {
    uint16_t T = 0;
    for (unsigned A = 0; A < 16; ++A)
      if ((A >> V) & 1)
        T |= uint16_t(1) << A;
    VarTable[V] = T;
  }
  std::vector<RandomFunc> Pool;
  for (unsigned V = 0; V < 4; ++V)
    Pool.push_back({M.var(V), VarTable[V]});
  Pool.push_back({M.one(), 0xffff});
  Pool.push_back({M.zero(), 0});

  auto Pick = [&]() -> RandomFunc & {
    return Pool[Rng() % Pool.size()];
  };
  for (int Step = 0; Step < 300; ++Step) {
    RandomFunc &A = Pick();
    RandomFunc &B = Pick();
    RandomFunc R;
    switch (Rng() % 5) {
    case 0:
      R = {A.F & B.F, uint16_t(A.Table & B.Table)};
      break;
    case 1:
      R = {A.F | B.F, uint16_t(A.Table | B.Table)};
      break;
    case 2:
      R = {A.F ^ B.F, uint16_t(A.Table ^ B.Table)};
      break;
    case 3:
      R = {!A.F, uint16_t(~A.Table)};
      break;
    default: {
      unsigned V = Rng() % 4;
      // exists v. A
      Bdd Q = M.exists(A.F, M.cube({V}));
      uint16_t T = 0;
      for (unsigned Asg = 0; Asg < 16; ++Asg) {
        unsigned A0 = Asg & ~(1u << V), A1 = Asg | (1u << V);
        if ((A.Table >> A0) & 1 || (A.Table >> A1) & 1)
          T |= uint16_t(1) << Asg;
      }
      R = {Q, T};
      break;
    }
    }
    // Verify against the truth table.
    for (unsigned Asg = 0; Asg < 16; ++Asg)
      ASSERT_EQ(eval(M, R.F, Asg), ((R.Table >> Asg) & 1) != 0)
          << "step " << Step << " assignment " << Asg;
    Pool.push_back(R);
    if (Pool.size() > 40)
      Pool.erase(Pool.begin() + 6); // keep leaves
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTest, ::testing::Range(1, 9));

//===----------------------------------------------------------------------===//
// Portable snapshots
//===----------------------------------------------------------------------===//

/// Internal nodes reachable from any of \p Roots, each counted once.
size_t unionSize(const BddManager &M, const std::vector<Bdd> &Roots) {
  std::set<uint32_t> Seen;
  std::vector<uint32_t> Stack;
  for (const Bdd &R : Roots)
    Stack.push_back(R.node());
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    if (N <= BddManager::OneNode || !Seen.insert(N).second)
      continue;
    BddManager::RawNode Nd = M.rawNode(N);
    Stack.push_back(Nd.Low);
    Stack.push_back(Nd.High);
  }
  return Seen.size();
}

TEST(Snapshot, RoundTripsWithinAndAcrossManagers) {
  BddManager M(6);
  Bdd F = (M.var(0) & M.var(2)) | ((!M.var(1)) & M.var(4)) |
          (M.var(3) ^ M.var(5));
  Bdd G = F & M.var(1);
  const std::vector<Bdd> Roots = {F, M.zero(), G, M.one(), F};
  BddSnapshot S = exportSnapshot(M, Roots);
  EXPECT_GT(S.nodeCount(), 0u);
  ASSERT_EQ(S.numRoots(), Roots.size());
  ASSERT_EQ(S.Ends.size(), Roots.size());
  EXPECT_EQ(S.Ends.back(), S.nodeCount());
  SnapshotImporter Same(M, S);
  for (size_t I = 0; I < Roots.size(); ++I)
    EXPECT_EQ(Same.root(I), Roots[I]) << "root " << I;

  // A fresh manager rebuilds the same functions over the same variables.
  BddManager M2;
  SnapshotImporter Fresh(M2, S);
  std::vector<Bdd> Got;
  for (size_t I = 0; I < Roots.size(); ++I)
    Got.push_back(Fresh.root(I));
  for (size_t I = 0; I < Roots.size(); ++I)
    for (unsigned Asg = 0; Asg < 64; ++Asg)
      EXPECT_EQ(eval(M2, Got[I], Asg), eval(M, Roots[I], Asg))
          << "root " << I << " assignment " << Asg;
  EXPECT_EQ(Got[4], Got[0]) << "a repeated root is one node";
  EXPECT_TRUE(Got[1].isZero());
  EXPECT_TRUE(Got[3].isOne());
}

TEST(Snapshot, ConstantsAndVarRemap) {
  BddManager M(6);
  BddSnapshot C = exportSnapshot(M, {M.zero(), M.one(), M.zero()});
  EXPECT_EQ(C.nodeCount(), 0u);
  EXPECT_EQ(C.Roots, (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_EQ(C.Ends, (std::vector<uint32_t>{0, 0, 0}));
  SnapshotImporter Constants(M, C);
  EXPECT_TRUE(Constants.root(0).isZero());
  EXPECT_TRUE(Constants.root(1).isOne());
  EXPECT_TRUE(Constants.root(2).isZero());
  EXPECT_EQ(Constants.built(), 0u);

  // Export over even variables, compact to half indices and widen back,
  // on a copy of the table or on the fly: the solver's lean-member
  // translation.
  Bdd F = M.var(0) & !M.var(2);
  Bdd G = F | (M.var(2) & M.var(4));
  BddSnapshot S = exportSnapshot(M, {F, M.one(), G});
  S.mapVars([](unsigned V) { return V / 2; });
  BddSnapshot Widened = S;
  Widened.mapVars([](unsigned V) { return 2 * V; });
  SnapshotImporter Copy(M, Widened);
  EXPECT_EQ(Copy.root(0), F);
  EXPECT_TRUE(Copy.root(1).isOne());
  EXPECT_EQ(Copy.root(2), G);
  SnapshotImporter OnTheFly(M, S, [](unsigned V) { return 2 * V; });
  EXPECT_EQ(OnTheFly.root(2), G) << "a later root builds the prefix first";
  EXPECT_EQ(OnTheFly.built(), S.nodeCount());
  EXPECT_EQ(OnTheFly.root(0), F);
}

TEST(Snapshot, SharedNodesAreStoredOnce) {
  BddManager M(6);
  Bdd Shared = (M.var(2) & M.var(4)) | (M.var(3) ^ M.var(5));
  Bdd A = M.var(0) & Shared;
  Bdd B = M.var(1) | Shared;
  BddSnapshot S = exportSnapshot(M, {A, B});
  EXPECT_EQ(S.nodeCount(), unionSize(M, {A, B}));
  EXPECT_LT(S.nodeCount(), unionSize(M, {A}) + unionSize(M, {B}))
      << "the roots share Shared's nodes";
  EXPECT_EQ(S.Ends[0], unionSize(M, {A})) << "root 0's prefix is its nodes";
  EXPECT_EQ(S.Ends[1], S.nodeCount());

  SnapshotImporter Same(M, S);
  EXPECT_EQ(Same.root(0), A);
  EXPECT_EQ(Same.root(1), B);

  BddManager M2;
  SnapshotImporter Fresh(M2, S);
  Bdd A2 = Fresh.root(0), B2 = Fresh.root(1);
  for (unsigned Asg = 0; Asg < 64; ++Asg) {
    EXPECT_EQ(eval(M2, A2, Asg), eval(M, A, Asg)) << "assignment " << Asg;
    EXPECT_EQ(eval(M2, B2, Asg), eval(M, B, Asg)) << "assignment " << Asg;
  }
}

TEST(Snapshot, PrefixImportSurvivesGc) {
  BddManager M(6);
  BddSnapshot S;
  {
    Bdd Shared = (M.var(2) & M.var(4)) | (M.var(3) ^ M.var(5));
    S = exportSnapshot(M, {M.var(0) & Shared, M.var(1) | Shared});
  }
  M.gc(); // nothing holds the exported functions any more

  SnapshotImporter Import(M, S);
  Bdd R0 = Import.root(0);
  EXPECT_EQ(Import.built(), S.Ends[0]) << "only root 0's prefix is built";
  EXPECT_LT(Import.built(), S.nodeCount());
  {
    // Garbage for the collector to free, so later nodes reuse its slots.
    Bdd Garbage = (M.var(0) ^ M.var(3)) & (M.var(1) ^ M.var(4));
  }
  M.gc();
  Bdd R1 = Import.root(1);
  EXPECT_EQ(Import.built(), S.nodeCount());
  Bdd Shared = (M.var(2) & M.var(4)) | (M.var(3) ^ M.var(5));
  EXPECT_EQ(R0, M.var(0) & Shared);
  EXPECT_EQ(R1, M.var(1) | Shared) << "root 1 reuses root 0's nodes";
}

} // namespace
