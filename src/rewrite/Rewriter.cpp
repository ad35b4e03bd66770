//===- Rewriter.cpp - Solver-verified XPath rewrite driver -----------------===//

#include "rewrite/Rewriter.h"

#include "rewrite/Cost.h"
#include "xpath/Parser.h"

#include <algorithm>
#include <unordered_set>

using namespace xsa;

namespace {

struct RankedCandidate {
  double Cost = 0;
  size_t RuleIdx = 0;
  std::string Text;
  RewriteCandidate C;
};

} // namespace

RewriteResult Rewriter::optimize(const ExprRef &E, Formula Chi) {
  const CostModel CM;
  RewriteResult R;
  R.Original = E;
  R.Optimized = E;
  R.OriginalCost = CM.cost(E);
  R.OptimizedCost = R.OriginalCost;

  const auto &Rules = rewriteRules();
  for (size_t Pass = 0; Pass < MaxPasses; ++Pass) {
    const std::string CurText = toString(R.Optimized);
    std::vector<RankedCandidate> Ranked;
    for (size_t RI = 0; RI < Rules.size(); ++RI) {
      std::vector<RewriteCandidate> Cands;
      Rules[RI]->candidates(R.Optimized, Cands);
      for (RewriteCandidate &C : Cands) {
        if (!C.Replacement)
          continue;
        double Cost = CM.cost(C.Replacement);
        // Only strictly cheaper candidates: equal or costlier ones could
        // oscillate. So no From text recurs in a later pass, and no
        // refuted obligation is retried.
        if (Cost >= R.OptimizedCost - 1e-9)
          continue;
        std::string Text = toString(C.Replacement);
        if (Text == CurText)
          continue;
        Ranked.push_back({Cost, RI, std::move(Text), std::move(C)});
      }
    }
    std::stable_sort(Ranked.begin(), Ranked.end(),
                     [](const RankedCandidate &A, const RankedCandidate &B) {
                       if (A.Cost != B.Cost)
                         return A.Cost < B.Cost;
                       if (A.RuleIdx != B.RuleIdx)
                         return A.RuleIdx < B.RuleIdx;
                       return A.Text < B.Text;
                     });

    bool AcceptedOne = false;
    std::unordered_set<std::string> SeenText;
    for (RankedCandidate &K : Ranked) {
      if (R.CheckedCandidates >= MaxChecks)
        break;
      if (!SeenText.insert(K.Text).second)
        continue; // two rules proposed the same text; one proof suffices
      // Parser-shape guard, deferred to here so only candidates actually
      // submitted to the solver pay the print/re-parse: the optimized
      // query is handed around as text, so a candidate must re-read to
      // the same AST. Rules keep this invariant by construction; a
      // violation is skipped rather than risked.
      std::string Err;
      ExprRef Back = parseXPath(K.Text, Err);
      if (!Back || !astEquals(Back, K.C.Replacement))
        continue;
      ++R.CheckedCandidates;

      AnalysisResult AR =
          K.C.Check == RewriteCheck::ArmEmptiness
              ? An.emptiness(K.C.CheckExpr, Chi)
              : An.equivalence(R.Optimized, Chi, K.C.Replacement, Chi);

      RewriteStep Step;
      Step.Rule = Rules[K.RuleIdx]->name();
      Step.From = CurText;
      Step.To = K.Text;
      Step.Note = K.C.Note;
      Step.Check = rewriteCheckName(K.C.Check);
      Step.Accepted = AR.Holds;
      Step.FromCache = AR.FromCache;
      Step.TimeMs = AR.Stats.TimeMs;
      R.Trace.push_back(std::move(Step));

      if (AR.Holds) {
        R.Optimized = K.C.Replacement;
        R.OptimizedCost = K.Cost;
        ++R.AcceptedSteps;
        AcceptedOne = true;
        break; // regenerate candidates against the new query
      }
    }
    if (!AcceptedOne || R.CheckedCandidates >= MaxChecks)
      break;
  }
  return R;
}
