//===- Rewriter.h - Solver-verified XPath rewrite driver ---------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver of the solver-verified XPath optimizer — the query
/// reformulation application §1 of the paper motivates the whole
/// equivalence machinery with. The loop is the textbook certified
/// rewrite:
///
///   1. every shipped rule (Rule.h) proposes whole-expression
///      candidates for the current query;
///   2. the cost model (Cost.h) ranks them, keeping only candidates
///      strictly cheaper than the current query;
///   3. candidates are tried cheapest-first, and one is accepted only
///      when Analyzer::equivalence (or, for dropped top-level union
///      arms, Analyzer::emptiness) certifies it under the type in
///      force — an unsound candidate costs a refuted proof obligation,
///      never a wrong result;
///   4. repeat to fixpoint (no candidate survives), bounded by
///      Rewriter::MaxPasses passes and Rewriter::MaxChecks solver
///      checks. Every accepted rewrite strictly lowers the cost, so no
///      query recurs and no obligation is discharged twice.
///
/// Every proof obligation — accepted or refuted — is recorded in the
/// result's trace (rule, candidate, check kind, verdict, cache hit,
/// time), so a caller can audit exactly why the optimized query is
/// equivalent to the original. When the Analyzer routes through an
/// AnalysisSession cache, repeated obligations (the common case on
/// near-duplicate workloads) are answered from cache.
///
/// Determinism: candidate generation is deterministic, ties in the cost
/// ranking break on the candidate's printed text, and the solver itself
/// is deterministic — so optimize() is a pure function of (query text,
/// type).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_REWRITE_REWRITER_H
#define XSA_REWRITE_REWRITER_H

#include "analysis/Problems.h"
#include "rewrite/Rule.h"

#include <string>
#include <vector>

namespace xsa {

/// One solver-checked proof obligation of an optimize() run.
struct RewriteStep {
  std::string Rule;   ///< rule that proposed the candidate
  std::string From;   ///< full query before (concrete syntax)
  std::string To;     ///< full candidate query (concrete syntax)
  std::string Note;   ///< rule-provided site description
  const char *Check = "equivalence"; ///< rewriteCheckName of the obligation
  bool Accepted = false;
  bool FromCache = false; ///< obligation answered from the session cache
  double TimeMs = 0;      ///< solver time of the obligation
};

struct RewriteResult {
  ExprRef Original;
  ExprRef Optimized;
  double OriginalCost = 0;
  double OptimizedCost = 0;
  size_t AcceptedSteps = 0;
  size_t CheckedCandidates = 0;
  /// Proof trace, in the order obligations were discharged.
  std::vector<RewriteStep> Trace;

  bool changed() const { return AcceptedSteps > 0; }
  /// The optimized query in concrete syntax (round-trips through
  /// parseXPath to an astEquals-equal AST).
  std::string text() const { return toString(Optimized); }
};

class Rewriter {
public:
  /// Fixpoint bound: passes each accepting at most one rewrite.
  static constexpr size_t MaxPasses = 16;
  /// Global bound on solver-checked candidates per optimize() call.
  static constexpr size_t MaxChecks = 64;

  explicit Rewriter(Analyzer &An) : An(An) {}

  /// Optimizes \p E under the type context \p Chi (FF.trueF() for
  /// none). Pure: \p E is never mutated; the result holds fresh ASTs.
  RewriteResult optimize(const ExprRef &E, Formula Chi);

private:
  Analyzer &An;
};

} // namespace xsa

#endif // XSA_REWRITE_REWRITER_H
