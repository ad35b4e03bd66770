//===- rewrite_test.cpp - Solver-verified rewrite engine -------------------===//
//
// Tests src/rewrite/: the cost model, each shipped rule with at least
// one accepted rewrite (solver proves the candidate) and one rejected
// candidate (solver refutes it, the original query is preserved), the
// driver's fixpoint/determinism properties, and the service integration
// (op "optimize", the SessionOptions::Optimize pre-pass and its
// cache-hit uplift on near-duplicate workloads).
//
//===----------------------------------------------------------------------===//

#include "rewrite/Cost.h"
#include "rewrite/Rewriter.h"
#include "service/Batch.h"
#include "service/Session.h"
#include "xpath/Parser.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace xsa;

namespace {

ExprRef xp(const std::string &S) {
  std::string Err;
  ExprRef E = parseXPath(S, Err);
  EXPECT_NE(E, nullptr) << Err << " in: " << S;
  return E;
}

/// Runs the rewriter through a fresh session context so every proof
/// obligation goes through the session cache machinery.
struct Fixture {
  AnalysisSession Session;
  RewriteResult optimize(const std::string &Query,
                         const std::string &Dtd = "") {
    std::string Err;
    Formula Chi = Session.typeContext(Dtd, Err);
    EXPECT_NE(Chi, nullptr) << Err;
    Rewriter RW(Session.analyzer());
    return RW.optimize(xp(Query), Chi);
  }
};

/// Did any trace step of \p Rule get the given verdict?
bool traceHas(const RewriteResult &R, const std::string &Rule,
              bool Accepted) {
  for (const RewriteStep &S : R.Trace)
    if (S.Rule == Rule && S.Accepted == Accepted)
      return true;
  return false;
}

std::string optimizedText(const RewriteResult &R) {
  // The optimized query must round-trip: it is handed around as text.
  std::string Err;
  ExprRef Back = parseXPath(toString(R.Optimized), Err);
  EXPECT_NE(Back, nullptr) << Err;
  EXPECT_TRUE(astEquals(Back, R.Optimized));
  return toString(R.Optimized);
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

TEST(CostModel, ReverseAxesArePenalized) {
  CostModel CM;
  EXPECT_GT(CM.cost(xp("a/parent::b")), CM.cost(xp("a/b")));
  EXPECT_GT(CM.cost(xp("prec-sibling::a")), CM.cost(xp("foll-sibling::a")));
  // A filter existence check is cheaper than the same steps on the
  // selection path.
  EXPECT_LT(CM.cost(xp("a[b/c]")), CM.cost(xp("a/b/c")));
  // Iteration is costlier than a single transitive step.
  EXPECT_GT(CM.cost(xp("(child::*)+")), CM.cost(xp("descendant::*")));
}

//===----------------------------------------------------------------------===//
// fuse-steps
//===----------------------------------------------------------------------===//

TEST(RewriteRules, FuseStepsAccepted) {
  Fixture F;
  RewriteResult R = F.optimize("a//b");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "child::a/descendant::b");
  EXPECT_TRUE(traceHas(R, "fuse-steps", /*Accepted=*/true));
  EXPECT_LT(R.OptimizedCost, R.OriginalCost);
}

TEST(RewriteRules, FuseStepsRejected) {
  // a/self::b selects nothing, but child::a is not equivalent to it:
  // the speculative merge is refuted and the query left alone.
  Fixture F;
  RewriteResult R = F.optimize("a/self::b");
  EXPECT_FALSE(R.changed());
  EXPECT_EQ(optimizedText(R), "child::a/self::b");
  EXPECT_TRUE(traceHas(R, "fuse-steps", /*Accepted=*/false));
}

TEST(RewriteRules, FuseStepsMoreIdentities) {
  Fixture F;
  EXPECT_EQ(optimizedText(F.optimize("*/desc-or-self::b")),
            "descendant::b");
  EXPECT_EQ(optimizedText(F.optimize("a/desc-or-self::*/desc-or-self::*/b")),
            "child::a/descendant::b");
  // A qualifier on the fused step rides along.
  EXPECT_EQ(optimizedText(F.optimize("//a[b]")),
            "/descendant::a[child::b]");
  EXPECT_EQ(optimizedText(F.optimize("x//y[z]/w")),
            "child::x/descendant::y[child::z]/child::w");
}

//===----------------------------------------------------------------------===//
// drop-self
//===----------------------------------------------------------------------===//

TEST(RewriteRules, DropSelfAccepted) {
  Fixture F;
  RewriteResult R = F.optimize("a/self::*/b");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "child::a/child::b");
  EXPECT_TRUE(traceHas(R, "drop-self", /*Accepted=*/true));
}

TEST(RewriteRules, DropSelfTypedAcceptedUntypedRejected) {
  // Under the Wikipedia DTD the root can only be article, so the
  // /self::article filter is vacuous — but only under the type.
  Fixture Typed;
  RewriteResult R = Typed.optimize("/self::article/meta", "wikipedia");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "/child::meta");
  EXPECT_TRUE(traceHas(R, "drop-self", /*Accepted=*/true));

  Fixture Untyped;
  RewriteResult U = Untyped.optimize("/self::article/meta");
  EXPECT_FALSE(U.changed());
  EXPECT_TRUE(traceHas(U, "drop-self", /*Accepted=*/false));
}

//===----------------------------------------------------------------------===//
// collapse-iterate
//===----------------------------------------------------------------------===//

TEST(RewriteRules, CollapseIterateAccepted) {
  Fixture F;
  RewriteResult R = F.optimize("(child::*)+");
  EXPECT_EQ(optimizedText(R), "descendant::*");
  EXPECT_TRUE(traceHas(R, "collapse-iterate", /*Accepted=*/true));

  EXPECT_EQ(optimizedText(F.optimize("(foll-sibling::*)+")),
            "foll-sibling::*");
  EXPECT_EQ(optimizedText(F.optimize("(parent::*)+")), "ancestor::*");
  EXPECT_EQ(optimizedText(F.optimize("(descendant::a)+")), "descendant::a");
}

TEST(RewriteRules, CollapseIterateRejected) {
  // (a)+ requires every intermediate node to be labeled a; the
  // descendant::a candidate is refuted (the paper's own "unsound
  // candidate" example from §1-style rewriting).
  Fixture F;
  RewriteResult R = F.optimize("(a)+");
  EXPECT_FALSE(R.changed());
  EXPECT_EQ(optimizedText(R), "(child::a)+");
  EXPECT_TRUE(traceHas(R, "collapse-iterate", /*Accepted=*/false));
}

//===----------------------------------------------------------------------===//
// prune-qualifier
//===----------------------------------------------------------------------===//

TEST(RewriteRules, PruneQualifierTypedAccepted) {
  // Every meta the Wikipedia DTD admits has a title child: [title] is
  // vacuous under the type, and the fused result is a single step.
  Fixture F;
  RewriteResult R = F.optimize("//meta[title]", "wikipedia");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "/descendant::meta");
  EXPECT_TRUE(traceHas(R, "prune-qualifier", /*Accepted=*/true));
}

TEST(RewriteRules, PruneQualifierRejected) {
  // status is optional on edit: the filter is real and must survive.
  Fixture F;
  RewriteResult R = F.optimize("//edit[status]", "wikipedia");
  EXPECT_FALSE(traceHas(R, "prune-qualifier", /*Accepted=*/true));
  EXPECT_TRUE(traceHas(R, "prune-qualifier", /*Accepted=*/false));
  // The filter survives (the desc-or-self prefix may still fuse).
  EXPECT_NE(optimizedText(R).find("[child::status]"), std::string::npos);

  // Untyped, [title] is a real filter too.
  Fixture Untyped;
  RewriteResult U = Untyped.optimize("a[b]");
  EXPECT_FALSE(U.changed());
  EXPECT_TRUE(traceHas(U, "prune-qualifier", /*Accepted=*/false));
}

TEST(RewriteRules, PruneQualifierDuplicateConjunct) {
  Fixture F;
  RewriteResult R = F.optimize("a[b and b]");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "child::a[child::b]");
}

//===----------------------------------------------------------------------===//
// dead-branch
//===----------------------------------------------------------------------===//

TEST(RewriteRules, DeadBranchTypedAccepted) {
  // article's children are meta and text|redirect — the title arm is
  // dead under the DTD, certified by arm emptiness.
  Fixture F;
  RewriteResult R = F.optimize(
      "/self::article/title | /self::article/meta/title", "wikipedia");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "/child::meta/child::title");
  EXPECT_TRUE(traceHas(R, "dead-branch", /*Accepted=*/true));
  bool SawEmptinessCheck = false;
  for (const RewriteStep &S : R.Trace)
    if (S.Rule == "dead-branch" && std::string(S.Check) == "emptiness")
      SawEmptinessCheck = true;
  EXPECT_TRUE(SawEmptinessCheck);
}

TEST(RewriteRules, DeadBranchRejected) {
  // Both arms are live without a type: every drop candidate is refuted.
  Fixture F;
  RewriteResult R = F.optimize("a | b");
  EXPECT_FALSE(R.changed());
  EXPECT_EQ(optimizedText(R), "child::a | child::b");
  EXPECT_TRUE(traceHas(R, "dead-branch", /*Accepted=*/false));
}

TEST(RewriteRules, DeadBranchDuplicateArm) {
  // A duplicate arm is not empty — it is dropped via the equivalence
  // check instead.
  Fixture F;
  RewriteResult R = F.optimize("//a | //a");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "/descendant::a");
}

TEST(RewriteRules, DeadBranchInPathAlternative) {
  // In-path alternatives are context-sensitive: certified by whole-
  // expression equivalence, not arm emptiness.
  Fixture F;
  RewriteResult R = F.optimize("/self::article/(title | meta)", "wikipedia");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "/child::meta");
}

//===----------------------------------------------------------------------===//
// reverse-axis
//===----------------------------------------------------------------------===//

TEST(RewriteRules, ReverseAxisParentAccepted) {
  Fixture F;
  RewriteResult R = F.optimize("a/b/parent::a");
  EXPECT_TRUE(R.changed());
  EXPECT_EQ(optimizedText(R), "child::a[child::b]");
  EXPECT_TRUE(traceHas(R, "reverse-axis", /*Accepted=*/true));
}

TEST(RewriteRules, ReverseAxisPrecSiblingAccepted) {
  Fixture F;
  RewriteResult R = F.optimize("c/prec-sibling::a");
  EXPECT_EQ(optimizedText(R), "child::a[foll-sibling::c]");
  EXPECT_TRUE(traceHas(R, "reverse-axis", /*Accepted=*/true));
  // The qualified form too: c[x]/prec-sibling::a.
  RewriteResult Q = F.optimize("c[x]/prec-sibling::a");
  EXPECT_EQ(optimizedText(Q), "child::a[foll-sibling::c[child::x]]");
}

TEST(RewriteRules, ReverseAxisAncestorRejected) {
  // The classic trap: ancestors of a child include nodes above the
  // context, which no downward filter sees. The candidate is proposed
  // and refuted; the original query survives.
  Fixture F;
  RewriteResult R = F.optimize("a/b/ancestor::a");
  EXPECT_FALSE(R.changed());
  EXPECT_EQ(optimizedText(R), "child::a/child::b/ancestor::a");
  EXPECT_TRUE(traceHas(R, "reverse-axis", /*Accepted=*/false));
}

//===----------------------------------------------------------------------===//
// Driver properties
//===----------------------------------------------------------------------===//

TEST(Rewriter, AcceptedRewritesAreActuallyEquivalent) {
  // Belt and braces: re-prove end-to-end equivalence of original and
  // optimized for a mixed bag of accepted rewrites.
  const char *Queries[] = {"a//b", "a/self::*/b", "a/b/parent::a",
                           "c/prec-sibling::a", "(child::*)+"};
  Fixture F;
  for (const char *Q : Queries) {
    RewriteResult R = F.optimize(Q);
    AnalysisResult Eq = F.Session.analyzer().equivalence(
        R.Original, F.Session.factory().trueF(), R.Optimized,
        F.Session.factory().trueF());
    EXPECT_TRUE(Eq.Holds) << Q << " vs " << toString(R.Optimized);
  }
}

TEST(Rewriter, DeterministicTrace) {
  auto Run = [] {
    Fixture F;
    RewriteResult R =
        F.optimize("/self::article/title | //meta[title]", "wikipedia");
    std::ostringstream OS;
    for (const RewriteStep &S : R.Trace)
      OS << S.Rule << "|" << S.From << "|" << S.To << "|" << S.Check << "|"
         << S.Accepted << "\n";
    OS << "=> " << toString(R.Optimized);
    return OS.str();
  };
  EXPECT_EQ(Run(), Run());
}

TEST(Rewriter, FixpointIsStable) {
  // Optimizing an already-optimized query accepts nothing further.
  Fixture F;
  RewriteResult R1 = F.optimize("a//b[self::*]/parent::a");
  RewriteResult R2 = F.optimize(toString(R1.Optimized));
  EXPECT_FALSE(R2.changed());
  EXPECT_EQ(toString(R2.Optimized), toString(R1.Optimized));
}

TEST(Rewriter, ObligationsHitTheSessionCache) {
  // The same optimize run through a second context of the same session
  // answers its proof obligations from the shared cache.
  AnalysisSession Session;
  Rewriter RW(Session.analyzer());
  std::string Err;
  Formula Chi = Session.typeContext("", Err);
  RewriteResult Cold = RW.optimize(xp("a/b/parent::a"), Chi);
  EXPECT_TRUE(Cold.changed());
  RewriteResult Warm = RW.optimize(xp("a/b/parent::a"), Chi);
  ASSERT_EQ(Cold.Trace.size(), Warm.Trace.size());
  for (const RewriteStep &S : Warm.Trace)
    EXPECT_TRUE(S.FromCache) << S.Rule << ": " << S.From << " => " << S.To;
}

//===----------------------------------------------------------------------===//
// Service integration: op "optimize" and the pre-pass
//===----------------------------------------------------------------------===//

TEST(OptimizeService, RequestRoundTrip) {
  std::string Err;
  JsonRef Obj = parseJson(
      R"({"id":"o1","op":"optimize","e":"a/b/parent::a"})", Err);
  ASSERT_NE(Obj, nullptr) << Err;
  AnalysisRequest Req;
  ASSERT_TRUE(requestFromJson(*Obj, Req, Err)) << Err;
  EXPECT_EQ(Req.Kind, RequestKind::Optimize);

  AnalysisSession Session;
  AnalysisResponse Resp = runRequest(Session, Req);
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Resp.Optimized, "child::a[child::b]");
  EXPECT_LT(Resp.CostAfter, Resp.CostBefore);
  EXPECT_FALSE(Resp.Trace.empty());

  std::string Line = responseToJson(Resp)->dump();
  EXPECT_NE(Line.find("\"optimized\":\"child::a[child::b]\""),
            std::string::npos);
  EXPECT_NE(Line.find("\"trace\":["), std::string::npos);
  EXPECT_NE(Line.find("\"verdict\":\"proved\""), std::string::npos);
  // Stable encoding drops the volatile per-step fields.
  std::string Stable =
      responseToJson(Resp, /*IncludeVolatile=*/false)->dump();
  EXPECT_EQ(Stable.find("\"cache\""), std::string::npos);
  EXPECT_EQ(Stable.find("\"time_ms\""), std::string::npos);
}

TEST(OptimizeService, MemoizedPerContext) {
  AnalysisSession Session;
  AnalysisRequest Req;
  Req.Kind = RequestKind::Optimize;
  Req.Query1 = "a//b";
  runRequest(Session, Req);
  runRequest(Session, Req);
  SessionStats S = Session.stats();
  EXPECT_EQ(S.QueriesOptimized, 1u);
  EXPECT_EQ(S.OptimizeCacheHits, 1u);
  EXPECT_GE(S.RewritesAccepted, 1u);
}

TEST(OptimizeService, ErrorsAreReported) {
  AnalysisSession Session;
  AnalysisRequest Req;
  Req.Kind = RequestKind::Optimize;
  Req.Query1 = "a[";
  AnalysisResponse Resp = runRequest(Session, Req);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_FALSE(Resp.Error.empty());
}

TEST(OptimizeOp, JsonLineReportsOptimizedForm) {
  AnalysisSession Session;
  std::istringstream In(
      "{\"id\":\"q1\",\"op\":\"optimize\",\"e\":\"a//b\"}\n");
  std::ostringstream Out;
  size_t Failed = 0;
  size_t Answered = runBatchJsonLines(Session, In, Out, &Failed);
  EXPECT_EQ(Answered, 1u);
  EXPECT_EQ(Failed, 0u);
  EXPECT_NE(Out.str().find("\"optimized\":\"child::a/descendant::b\""),
            std::string::npos);
}

} // namespace
