//===- fixpoint_test.cpp - Cross-request fixpoint sharing ------------------===//
//
// Tests the staged-pipeline sharing machinery end to end: the
// label-abstracted lean signature (same-shaped formulas over different
// alphabets share, different shapes or orders do not), the
// SharedFixpointStore's improvement policy and node budget, and —
// the load-bearing property — that a seeded solver run is
// output-invisible: verdict, iteration count and extracted model are
// those of a cold run, with only the replayed image computations
// skipped.
//
//===----------------------------------------------------------------------===//

#include "bdd/Snapshot.h"
#include "logic/Lean.h"
#include "logic/Parser.h"
#include "solver/BddSolver.h"
#include "solver/Pipeline.h"
#include "tree/Xml.h"
#include "xpath/Compile.h"
#include "xpath/Parser.h"

#include <gtest/gtest.h>

using namespace xsa;

namespace {

Formula parse(FormulaFactory &FF, const std::string &S) {
  std::string Err;
  Formula F = parseFormula(FF, S, Err);
  EXPECT_NE(F, nullptr) << Err << " in: " << S;
  return F;
}

Formula compileQuery(FormulaFactory &FF, const std::string &S) {
  std::string Err;
  ExprRef E = parseXPath(S, Err);
  EXPECT_NE(E, nullptr) << Err << " in: " << S;
  return compileXPath(FF, E, FF.trueF());
}

std::string planSignature(FormulaFactory &FF, Formula Psi,
                          const SolverOptions &Opts = {}) {
  Formula Phi = plungeFormula(FF, Psi);
  if (Opts.EnforceSingleMark)
    Phi = FF.conj(singleMarkFormula(FF), Phi);
  LeanPlan Plan(FF, Phi, Opts.Order);
  return Plan.signature();
}

//===----------------------------------------------------------------------===//
// Lean signature
//===----------------------------------------------------------------------===//

TEST(LeanSignature, SameShapeDifferentLabelsShare) {
  FormulaFactory FF;
  // The bench_service-style near-duplicates: one query shape over
  // per-request alphabets.
  EXPECT_EQ(planSignature(FF, compileQuery(FF, "/a1/b1")),
            planSignature(FF, compileQuery(FF, "/a2/b2")));
  EXPECT_EQ(planSignature(FF, parse(FF, "<1>x & <2>y")),
            planSignature(FF, parse(FF, "<1>p & <2>q")));
}

TEST(LeanSignature, DifferentShapesDoNotShare) {
  FormulaFactory FF;
  EXPECT_NE(planSignature(FF, parse(FF, "<1>x & <2>y")),
            planSignature(FF, parse(FF, "<1>x | <2>y")))
      << "the plunge members embed the formula, so ∧ vs ∨ differ";
  EXPECT_NE(planSignature(FF, compileQuery(FF, "/a/b")),
            planSignature(FF, compileQuery(FF, "//a/b")));
  // Binder depth: the inner µ's definition names the outer $X, not its
  // own binder.
  EXPECT_NE(planSignature(FF, parse(FF, "let $X = a | <1>(let $Y = b | "
                                        "<2>$X in $Y) in $X")),
            planSignature(FF, parse(FF, "let $X = a | <1>(let $Y = b | "
                                        "<2>$Y in $Y) in $X")));
  // Binding index: one binding list, projected on $X or on $Y.
  EXPECT_NE(
      planSignature(FF, parse(FF, "let $X = a | <1>$Y; $Y = b | <2>$X in $X")),
      planSignature(FF, parse(FF, "let $X = a | <1>$Y; $Y = b | <2>$X in $Y")));
  // The pairs above also differ in members that unfolding builds. A
  // binding that is never unfolded ($Z, then $X) keeps the variable as
  // the only difference, so the name must carry both depth and index.
  EXPECT_NE(planSignature(FF, parse(FF, "let $X = a | (let $Y = <1>b; "
                                        "$Z = <2>$X in $Y) in $X")),
            planSignature(FF, parse(FF, "let $X = a | (let $Y = <1>b; "
                                        "$Z = <2>$Y in $Y) in $X")));
  EXPECT_NE(planSignature(FF, parse(FF, "let $X = <1>$X; $Y = <2>a in $Y")),
            planSignature(FF, parse(FF, "let $X = <1>$Y; $Y = <2>a in $Y")));
}

TEST(LeanSignature, RepeatedLabelsMustCorrespond) {
  FormulaFactory FF;
  // x&x-shape vs x&y-shape: an order-preserving bijection cannot merge
  // two labels into one.
  EXPECT_NE(planSignature(FF, parse(FF, "<1>x & <2>x")),
            planSignature(FF, parse(FF, "<1>x & <2>y")));
  // But consistent renaming of a repeated label shares.
  EXPECT_EQ(planSignature(FF, parse(FF, "<1>x & <2>x")),
            planSignature(FF, parse(FF, "<1>y & <2>y")));
}

TEST(LeanSignature, VariableOrderAndSingleMarkAreVisible) {
  FormulaFactory FF;
  Formula F = compileQuery(FF, "/a/b[c]");
  SolverOptions DepthFirst;
  DepthFirst.Order = LeanOrder::DepthFirst;
  EXPECT_NE(planSignature(FF, F), planSignature(FF, F, DepthFirst));
  SolverOptions NoMark;
  NoMark.EnforceSingleMark = false;
  EXPECT_NE(planSignature(FF, F), planSignature(FF, F, NoMark));
}

TEST(LeanSignature, AlphaRenamedBindersShare) {
  FormulaFactory FF;
  EXPECT_EQ(planSignature(FF, parse(FF, "let $X = a | <1>$X in $X")),
            planSignature(FF, parse(FF, "let $Y = b | <1>$Y in $Y")));
  // Shadowing: a variable names its innermost binder.
  EXPECT_EQ(planSignature(FF, parse(FF, "let $X = a | <1>(let $X = b | "
                                        "<2>$X in $X) in $X")),
            planSignature(FF, parse(FF, "let $Y = a | <1>(let $Z = b | "
                                        "<2>$Z in $Z) in $Y")));
}

TEST(LeanSignature, BuildsNoFormula) {
  FormulaFactory FF;
  Formula Phi = FF.conj(singleMarkFormula(FF),
                        plungeFormula(FF, compileQuery(FF, "//a/b[c]")));
  LeanPlan Plan(FF, Phi, LeanOrder::BreadthFirst);
  size_t Before = FF.numNodes();
  EXPECT_FALSE(Plan.signature().empty());
  EXPECT_EQ(FF.numNodes(), Before)
      << "the key is printed from the members, never interned";
}

//===----------------------------------------------------------------------===//
// SharedFixpointStore
//===----------------------------------------------------------------------===//

/// A sequence of \p Iterates iterates in one table, each the conjunction
/// of \p Nodes variables of its own, so each adds \p Nodes table nodes
/// (Nodes = 0 gives constant sets).
std::shared_ptr<FixpointSeedData> makeSeed(size_t Iterates, bool Converged,
                                           uint32_t Nodes = 0) {
  auto Data = std::make_shared<FixpointSeedData>();
  Data->Converged = Converged;
  BddSnapshot &T = Data->Iterates;
  for (size_t It = 0; It < Iterates; ++It) {
    uint32_t Ref = 1;
    for (uint32_t I = Nodes; I-- > 0;) {
      T.Nodes.push_back({static_cast<uint32_t>(It * Nodes + I), 0, Ref});
      Ref = static_cast<uint32_t>(T.Nodes.size()) + 1;
    }
    T.Roots.push_back(Ref);
    T.Ends.push_back(static_cast<uint32_t>(T.Nodes.size()));
  }
  return Data;
}

size_t costOf(const std::string &Sig, size_t Iterates, uint32_t Nodes = 0) {
  return SharedFixpointStore::cost(Sig, *makeSeed(Iterates, true, Nodes));
}

TEST(SharedFixpointStore, PublishKeepsOnlyImprovements) {
  SharedFixpointStore Store(costOf("sig", 9), 1);
  EXPECT_EQ(Store.lookup("sig", 0), nullptr);
  EXPECT_TRUE(Store.publish("sig", 0, makeSeed(2, false)));
  EXPECT_FALSE(Store.publish("sig", 0, makeSeed(2, false)))
      << "equal length, not an improvement";
  EXPECT_FALSE(Store.publish("sig", 0, makeSeed(1, false)));
  EXPECT_TRUE(Store.publish("sig", 0, makeSeed(3, false)));
  EXPECT_TRUE(Store.publish("sig", 0, makeSeed(1, true)))
      << "converged beats any prefix";
  EXPECT_FALSE(Store.publish("sig", 0, makeSeed(9, false)))
      << "a prefix never replaces a converged sequence";
  auto Got = Store.lookup("sig", 0);
  ASSERT_NE(Got, nullptr);
  EXPECT_TRUE(Got->Converged);
  EXPECT_EQ(Got->Iterates.numRoots(), 1u);

  // Distinct options fingerprints do not meet.
  EXPECT_EQ(Store.lookup("sig", 1), nullptr);
  // Empty and null offers are dropped.
  EXPECT_FALSE(Store.publish("sig2", 0, makeSeed(0, true)));
  EXPECT_FALSE(Store.publish("sig2", 0, nullptr));
}

TEST(SharedFixpointStore, CapacityEvictsLeastRecentlyUsed) {
  // One shard with room for two one-snapshot sequences of 3 nodes.
  const size_t C = costOf("a", 1, 3);
  SharedFixpointStore Store(2 * C, 1);
  EXPECT_TRUE(Store.publish("a", 0, makeSeed(1, true, 3)));
  EXPECT_TRUE(Store.publish("b", 0, makeSeed(1, true, 3)));
  EXPECT_NE(Store.lookup("a", 0), nullptr); // a is now most recent
  EXPECT_TRUE(Store.publish("c", 0, makeSeed(1, true, 3))); // evicts b
  EXPECT_EQ(Store.lookup("b", 0), nullptr);
  EXPECT_NE(Store.lookup("a", 0), nullptr);
  EXPECT_EQ(Store.stats().Evictions, 1u);
  EXPECT_EQ(Store.size(), 2u);

  // An offer evicts as many entries as it needs room for: two iterates
  // of their own nodes cost more than one, so both residents go.
  ASSERT_GT(costOf("d", 2, 3), C);
  EXPECT_TRUE(Store.publish("d", 0, makeSeed(2, true, 3)));
  EXPECT_EQ(Store.lookup("a", 0), nullptr);
  EXPECT_EQ(Store.lookup("c", 0), nullptr);
  EXPECT_EQ(Store.stats().Evictions, 3u);
  EXPECT_EQ(Store.size(), 1u);

  // Constant sets have no nodes but still cost: each iterate's root and
  // prefix end (8 bytes) are charged, so a long sequence of them does not
  // fit the shard.
  EXPECT_GE(costOf("e", 100) - costOf("e", 1), 99 * 8 / 12u);
  EXPECT_FALSE(Store.publish("e", 0, makeSeed(100, true)));
  EXPECT_NE(Store.lookup("d", 0), nullptr);

  // An improving offer takes its predecessor's room, not more.
  SharedFixpointStore Grow(2 * C, 1);
  EXPECT_TRUE(Grow.publish("p", 0, makeSeed(1, false, 3)));
  EXPECT_TRUE(Grow.publish("p", 0, makeSeed(2, false, 3)));
  EXPECT_EQ(Grow.stats().Evictions, 0u);
  EXPECT_EQ(Grow.stats().Insertions, 2u) << "a replacement is an insertion";
  EXPECT_EQ(Grow.size(), 1u);
}

TEST(SharedFixpointStore, NodeBudgetDropsOversizedEntries) {
  // One shard that a 15-node iterate fills exactly: a 16-node one is
  // dropped without evicting anything.
  const size_t Budget = costOf("exact", 1, 15);
  ASSERT_GT(costOf("big", 1, 16), Budget);
  SharedFixpointStore Store(Budget, 1);
  EXPECT_TRUE(Store.publish("small", 0, makeSeed(1, true, 2)));
  EXPECT_FALSE(Store.publish("big", 0, makeSeed(1, true, 16)));
  EXPECT_EQ(Store.size(), 1u);
  EXPECT_NE(Store.lookup("small", 0), nullptr);
  EXPECT_TRUE(Store.publish("exact", 0, makeSeed(1, true, 15)));
  EXPECT_EQ(Store.lookup("small", 0), nullptr);
  EXPECT_EQ(Store.size(), 1u);

  // The key is charged too: a key as long as the budget's bytes uses it
  // up alone, even with a sequence of one constant set.
  std::string LongKey(Budget * sizeof(BddSnapshot::Node), 'k');
  EXPECT_FALSE(Store.publish(LongKey, 0, makeSeed(1, true)));
  EXPECT_NE(Store.lookup("exact", 0), nullptr);

  // The budget is split across the shards: each of four shards holds a
  // quarter, so an offer one unit over a quarter is dropped although
  // the store's total would hold it.
  const size_t Quarter = costOf("sig", 1, 3);
  ASSERT_EQ(costOf("sig", 1, 4), Quarter + 1);
  SharedFixpointStore Sharded(4 * Quarter, 4);
  ASSERT_EQ(Sharded.numShards(), 4u);
  EXPECT_FALSE(Sharded.publish("sig", 0, makeSeed(1, true, 4)));
  EXPECT_TRUE(Sharded.publish("sig", 0, makeSeed(1, true, 3)));
  EXPECT_EQ(Sharded.size(), 1u);
}

TEST(SharedFixpointStore, EqualIteratesAreChargedTheirNodesOnce) {
  // A converged sequence ends in a duplicate of its last iterate. The
  // table holds the duplicate's nodes once; its second root adds a root
  // and a prefix end (8 bytes), under one node unit.
  BddManager M(40);
  Bdd F = M.one();
  for (unsigned V = 0; V < 40; V += 2)
    F &= M.var(V) | M.var(V + 1);
  FixpointSeedData Once, Twice;
  Once.Iterates = exportSnapshot(M, {F});
  Twice.Iterates = exportSnapshot(M, {F, F});
  ASSERT_GT(Once.Iterates.nodeCount(), 20u);
  EXPECT_EQ(Twice.Iterates.nodeCount(), Once.Iterates.nodeCount());
  EXPECT_LE(SharedFixpointStore::cost("sig", Twice),
            SharedFixpointStore::cost("sig", Once) + 1);
}

//===----------------------------------------------------------------------===//
// Seeded runs are output-invisible
//===----------------------------------------------------------------------===//

/// Solves \p Text in a fresh factory with \p Store installed (or not).
SolverResult solveWith(const std::string &Text, SharedFixpointStore *Store,
                       SolverOptions Opts = {}) {
  FormulaFactory FF;
  std::string Err;
  Formula F = parseFormula(FF, Text, Err);
  EXPECT_NE(F, nullptr) << Err;
  Opts.Fixpoints = Store;
  BddSolver Solver(FF, Opts);
  return Solver.solve(F);
}

SolverOptions withoutEarlyQuantification() {
  SolverOptions Opts;
  Opts.EarlyQuantification = false;
  return Opts;
}

/// The store key of \p Text's lean under default options.
std::string signatureOf(const std::string &Text) {
  FormulaFactory FF;
  return planSignature(FF, parse(FF, Text));
}

std::string modelXml(const SolverResult &R) {
  return R.Model ? printXml(*R.Model) : std::string();
}

TEST(FixpointSharing, SeededRunMatchesColdRunByteForByte) {
  // Same shape over three alphabets; satisfiable, so models are
  // extracted — the strongest determinism check.
  const char *Variants[] = {"<1>(a & <2>b)", "<1>(p & <2>q)",
                            "<1>(u & <2>w)"};
  std::vector<SolverResult> Cold;
  for (const char *V : Variants)
    Cold.push_back(solveWith(V, nullptr));

  SharedFixpointStore Store;
  SolverResult First = solveWith(Variants[0], &Store);
  EXPECT_EQ(First.Stats.IterationsReplayed, 0u);
  EXPECT_EQ(Store.stats().Insertions, 1u);

  for (size_t I = 1; I < 3; ++I) {
    SolverResult Seeded = solveWith(Variants[I], &Store);
    EXPECT_GT(Seeded.Stats.IterationsReplayed, 0u)
        << "variant " << I << " must replay the stored sequence";
    EXPECT_EQ(Seeded.Satisfiable, Cold[I].Satisfiable);
    EXPECT_EQ(Seeded.Stats.Iterations, Cold[I].Stats.Iterations)
        << "replay must report the cold-equivalent iteration count";
    EXPECT_EQ(Seeded.Stats.LeanSize, Cold[I].Stats.LeanSize);
    EXPECT_EQ(modelXml(Seeded), modelXml(Cold[I]))
        << "the reconstructed model must not depend on seeding";
  }
}

TEST(FixpointSharing, UnsatisfiableRunsShareConvergedSequences) {
  // Same unsat shape (a node cannot be both first and second child)
  // over two alphabets: the full fixpoint converges, is published, and
  // the second run replays it end to end.
  SharedFixpointStore Store;
  SolverResult R1 = solveWith("x & <-1>T & <-2>T", &Store);
  EXPECT_FALSE(R1.Satisfiable);
  EXPECT_EQ(R1.Stats.IterationsReplayed, 0u);
  auto Entry = Store.lookup(signatureOf("y & <-1>T & <-2>T"),
                            fixpointOptionsKey(SolverOptions{}));
  ASSERT_NE(Entry, nullptr) << "the second alphabet's key must hit";
  EXPECT_TRUE(Entry->Converged);

  SolverResult R2 = solveWith("y & <-1>T & <-2>T", &Store);
  EXPECT_FALSE(R2.Satisfiable);
  EXPECT_EQ(R2.Stats.Iterations, R1.Stats.Iterations);
  EXPECT_EQ(R2.Stats.IterationsReplayed, R2.Stats.Iterations)
      << "a converged seed serves the whole run";
}

TEST(FixpointSharing, SeedThatRunsOutResumesComputing) {
  // A hedge satisfies a & <2>b at round 2; a single-rooted model needs
  // one more round. The first run publishes its 2-iterate prefix, which
  // the second (same lean: RequireSingleRoot only filters roots) replays
  // before computing round 3 itself.
  const std::string Text = "a & <2>b";
  SolverOptions SingleRoot;
  SingleRoot.RequireSingleRoot = true;
  SolverResult Cold = solveWith(Text, nullptr, SingleRoot);
  ASSERT_TRUE(Cold.Satisfiable);
  ASSERT_EQ(Cold.Stats.Iterations, 3u);

  SharedFixpointStore Store;
  SolverResult Hedge = solveWith(Text, &Store);
  ASSERT_TRUE(Hedge.Satisfiable);
  ASSERT_EQ(Hedge.Stats.Iterations, 2u);
  const std::string Sig = signatureOf(Text);
  const uint32_t Key = fixpointOptionsKey(SolverOptions{});
  std::shared_ptr<const FixpointSeedData> Prefix = Store.lookup(Sig, Key);
  ASSERT_NE(Prefix, nullptr);
  EXPECT_FALSE(Prefix->Converged);
  ASSERT_EQ(Prefix->Iterates.numRoots(), 2u);

  SolverResult Seeded = solveWith(Text, &Store, SingleRoot);
  EXPECT_TRUE(Seeded.Satisfiable);
  EXPECT_EQ(Seeded.Stats.IterationsReplayed, 2u);
  EXPECT_EQ(Seeded.Stats.Iterations, 3u) << "replays 2 rounds, computes 1";
  EXPECT_EQ(modelXml(Seeded), modelXml(Cold));

  std::shared_ptr<const FixpointSeedData> Grown = Store.lookup(Sig, Key);
  ASSERT_NE(Grown, nullptr);
  EXPECT_EQ(Store.stats().Insertions, 2u);
  ASSERT_EQ(Grown->Iterates.numRoots(), 3u);
  // The imported iterates export to the stored table again, node for
  // node: the table depends on the iterates' functions only.
  const BddSnapshot &Old = Prefix->Iterates, &New = Grown->Iterates;
  EXPECT_EQ(New.Roots[0], Old.Roots[0]);
  EXPECT_EQ(New.Roots[1], Old.Roots[1]);
  EXPECT_EQ(New.Ends[1], Old.Ends[1]);
  ASSERT_GE(New.nodeCount(), Old.nodeCount());
  for (size_t I = 0; I < Old.nodeCount(); ++I) {
    EXPECT_EQ(New.Nodes[I].Var, Old.Nodes[I].Var) << "entry " << I;
    EXPECT_EQ(New.Nodes[I].Low, Old.Nodes[I].Low) << "entry " << I;
    EXPECT_EQ(New.Nodes[I].High, Old.Nodes[I].High) << "entry " << I;
  }
}

TEST(FixpointSharing, ReplayRefusesAMismatchedOptionsKey) {
  // A sequence published with early quantification off must never seed
  // a run with it on: the store keys on fixpointOptionsKey, which
  // carries the EarlyQuantification bit, so the second run cold-misses
  // and publishes its own entry. The shape is UNSAT so each run
  // publishes exactly one converged sequence.
  SharedFixpointStore Store;
  SolverResult First =
      solveWith("x & <-1>T & <-2>T", &Store, withoutEarlyQuantification());
  EXPECT_FALSE(First.Satisfiable);
  EXPECT_EQ(First.Stats.IterationsReplayed, 0u);
  EXPECT_EQ(Store.stats().Insertions, 1u);

  SolverResult Second = solveWith("y & <-1>T & <-2>T", &Store);
  EXPECT_EQ(Second.Stats.IterationsReplayed, 0u)
      << "a sequence keyed without early quantification must not replay "
         "into a run with it";
  EXPECT_EQ(Store.stats().Insertions, 2u)
      << "the second run publishes under its own key";

  // Same shape, same key: now it replays end to end.
  SolverResult Third =
      solveWith("z & <-1>T & <-2>T", &Store, withoutEarlyQuantification());
  EXPECT_FALSE(Third.Satisfiable);
  EXPECT_EQ(Third.Stats.IterationsReplayed, Third.Stats.Iterations);
  EXPECT_EQ(Third.Stats.Iterations, First.Stats.Iterations);
}

} // namespace
