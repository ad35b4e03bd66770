//===- BddSolver.h - Symbolic satisfiability solver (§7) ---------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's satisfiability-testing algorithm (§6.2) in its symbolic
/// implementation (§7):
///
///  * sets of ψ-types are represented implicitly as BDDs over one boolean
///    variable per Lean member (§7.1), with interleaved primed copies for
///    the parent/child relation;
///  * witness bookkeeping is avoided by solving the linear-size "plunging"
///    formula µX.ψ ∨ ⟨1⟩X ∨ ⟨2⟩X at the root (§7.1);
///  * the compatibility relations ∆a are kept as conjunctions of
///    equivalence clauses and the relational products are computed with
///    conjunctive partitioning + early quantification, eliminating primed
///    variables in greedy min-cost order (§7.3);
///  * BDD variables are ordered by breadth-first traversal of the formula
///    (§7.4);
///  * intermediate sets T^i are retained so that a minimal satisfying
///    model (counterexample tree) can be rebuilt top-down (§7.2).
///
/// The main fixpoint is exactly the two-line loop of §7.1:
///
///   χUpd(T)(x) = χT(x) ∨ (χTypes(x) ∧ ∧_{a∈{1,2}} χWita(T)(x))
///
/// with termination as soon as a root type implying the formula appears
/// (the "early exit" that distinguishes this least-fixpoint procedure
/// from the greatest-fixpoint procedure of Tanabe et al., §9).
///
/// Start-mark uniqueness (the four Upd cases of Fig. 16) is enforced by
/// conjoining an Lµ-definable "exactly one mark below the root" formula;
/// see DESIGN.md for the equivalence argument.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SOLVER_BDDSOLVER_H
#define XSA_SOLVER_BDDSOLVER_H

#include "bdd/Snapshot.h"
#include "logic/Formula.h"
#include "logic/Lean.h"
#include "tree/Document.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace xsa {

struct SolverResult;
struct SolverStats;

/// Semantic result cache consulted by BddSolver::solve when installed in
/// SolverOptions. Keys are canonical formulas (FormulaFactory::
/// canonicalize), so α-equivalent queries share an entry, plus the
/// fingerprint of the solver options the entry was produced under
/// (different options can change both the result and the model).
/// Implementations live above the solver (see src/service/Cache.h).
class ResultCache {
public:
  virtual ~ResultCache() = default;
  /// The cached result for \p Canonical under options \p OptsKey, or
  /// nullptr on a miss. The pointer is only valid until the next call.
  virtual const SolverResult *lookup(Formula Canonical, uint32_t OptsKey) = 0;
  virtual void store(Formula Canonical, uint32_t OptsKey,
                     const SolverResult &R) = 0;
};

/// One lean's canonical iterate sequence T^1, T^2, ..., exported as
/// portable snapshots over lean-member indices. The §7.1 update operator
/// Upd is a function of the lean alone (χTypes, the ∆a clauses and the
/// witness conditions never mention the input formula, which enters only
/// through the final condition), so the sequence of iterates from ∅ is
/// the same for every formula with the same lean signature. A stored
/// prefix is therefore replayable verbatim by any such formula's run:
/// replay is output-invisible (same snapshots, same verdict, same model,
/// same iteration count as a cold run) and only skips the expensive
/// image computations. See DESIGN.md for the soundness argument.
struct FixpointSeedData {
  /// T^1 .. T^k in iteration order. A converged sequence carries the
  /// duplicated final iterate, exactly as the solver's loop records it.
  std::vector<BddSnapshot> Snapshots;
  /// True when the sequence ran to Upd's fixpoint (the lfp was reached);
  /// false for the prefix of an early-terminated satisfiable run.
  bool Converged = false;
};

/// Cross-request fixpoint store consulted by the solver when installed
/// in SolverOptions. Keys are (lean signature, options fingerprint):
/// factory-independent like the result-cache keys, so any worker's run
/// can seed any other's. The implementation lives above the solver
/// (service/FixpointStore.h) and must be safe to call from whatever
/// thread solve() runs on.
class FixpointCache {
public:
  virtual ~FixpointCache() = default;
  /// The best stored sequence for the key, or null. Shared ownership:
  /// entries are immutable once published.
  virtual std::shared_ptr<const FixpointSeedData>
  lookup(const std::string &LeanSig, uint32_t OptsKey) = 0;
  /// Offers a sequence; the store keeps it only if it improves on what
  /// it has (converged beats prefix, longer prefix beats shorter).
  /// Returns true when the offer was kept.
  virtual bool publish(const std::string &LeanSig, uint32_t OptsKey,
                       std::shared_ptr<const FixpointSeedData> Data) = 0;
};

struct SolverOptions {
  /// Lean member / BDD variable order (§7.4). BreadthFirst is the paper's
  /// choice; the others exist for the ablation benchmarks.
  LeanOrder Order = LeanOrder::BreadthFirst;
  /// Conjunctive partitioning + early quantification (§7.3). When false,
  /// the monolithic ∆a BDD is built up front (ablation).
  bool EarlyQuantification = true;
  /// Enforce that models carry exactly one start mark (Fig. 16's four
  /// Upd cases). Safe to keep on even for formulas not mentioning s.
  bool EnforceSingleMark = true;
  /// Reconstruct a satisfying tree when satisfiable (§7.2).
  bool ExtractModel = true;
  /// Check the final condition after every iteration and stop as soon as
  /// a satisfying root type appears. When false, runs the fixpoint to
  /// completion first (ablation; the Tanabe-style behaviour).
  bool EarlyTermination = true;
  /// Accept only single-rooted models (¬⟨2⟩⊤ at the root in addition to
  /// the ¬⟨1̄⟩⊤/¬⟨2̄⟩⊤ of FinalCheck). The paper's focused trees are
  /// hedges — the root may have top-level siblings — but XML documents
  /// are single-rooted, and on hedges the absolute-path translation
  /// (Fig. 8) lets a top-level node to the left of the mark pose as
  /// "the root". The Analyzer turns this on.
  bool RequireSingleRoot = false;
  /// Optional semantic result cache, not owned. When set, solve()
  /// canonicalizes its input, returns a stored result on a hit (with
  /// FromCache set) and stores the result of every actual run. The
  /// solver calls it from whatever thread solve() runs on; when solver
  /// instances on different threads share underlying storage (the
  /// parallel session does, through per-context adapters), that storage
  /// must be thread-safe — see service/Cache.h.
  ResultCache *Cache = nullptr;
  /// Optional observer invoked with the stats of every *actual* solver
  /// run (cache hits do not fire it). Lets a long-lived session
  /// aggregate cumulative solver work without wrapping every call site.
  /// Like Cache, it runs on the solving thread: hooks installed on
  /// solvers that run concurrently must tally into atomics (the session
  /// uses relaxed counters; see service/Context.h for the memory-order
  /// discussion).
  std::function<void(const SolverStats &)> StatsHook;
  /// Optional cross-request fixpoint store, not owned. When set, every
  /// actual run looks up its lean signature, replays a stored iterate
  /// prefix instead of recomputing it, and publishes its own sequence
  /// back at the end; when null (a bare solver or Analyzer) the run is
  /// unshared. Replay never changes the result — verdict, model, and the
  /// Iterations stat are those of a cold run — so, like Cache and
  /// StatsHook, Fixpoints is excluded from the options fingerprint.
  FixpointCache *Fixpoints = nullptr;
};

/// Fingerprint of the semantically relevant option bits, used to key
/// cached results. Cache, StatsHook and Fixpoints are deliberately
/// excluded. The two low bits are always zero: they are kept so that
/// entries persisted by earlier versions, which stored a scheduling
/// choice there (zero for the paper's loop), keep their keys.
uint32_t solverOptionsKey(const SolverOptions &Opts);

/// Fingerprint used to key fixpoint-store entries: only the bits that
/// could change the iterate sequence itself. Order and EnforceSingleMark
/// already show in the lean signature; RequireSingleRoot, ExtractModel
/// and EarlyTermination only affect the final condition, model
/// reconstruction, and how *far* the sequence is followed — none of
/// which changes an iterate's value — so runs differing in those share
/// sequences freely. EarlyQuantification is kept out of caution (both
/// modes compute the same relational product).
uint32_t fixpointOptionsKey(const SolverOptions &Opts);

struct SolverStats {
  size_t LeanSize = 0;
  /// Upd images of the §7.1 iteration.
  size_t Iterations = 0;
  /// Of Iterations, how many were replayed from a fixpoint-store seed
  /// rather than computed (0 for an unseeded run). Iterations itself is
  /// seed-independent — it always reports the cold-equivalent count.
  size_t IterationsReplayed = 0;
  size_t PeakBddNodes = 0;
  double TimeMs = 0;
};

struct SolverResult {
  bool Satisfiable = false;
  /// A satisfying tree (hedge) with the start mark set, when requested.
  std::optional<Document> Model;
  SolverStats Stats;
  /// True when this result was served from a ResultCache; Stats then
  /// describe the original run that produced the entry.
  bool FromCache = false;
};

/// Decides the satisfiability of closed cycle-free Lµ formulas over
/// finite focused trees (Theorem 6.3), in time 2^O(|Lean(ψ)|)
/// (Lemma 6.7).
class BddSolver {
public:
  explicit BddSolver(FormulaFactory &FF, SolverOptions Opts = {})
      : FF(FF), Opts(Opts) {}

  /// Is JψK non-empty? \p Psi must be closed and cycle free (checked
  /// with assertions).
  SolverResult solve(Formula Psi);

private:
  FormulaFactory &FF;
  SolverOptions Opts;
};

/// µX.ψ ∨ ⟨1⟩X ∨ ⟨2⟩X: ψ holds somewhere at or below the focus (§7.1).
Formula plungeFormula(FormulaFactory &FF, Formula Psi);

/// "Exactly one start mark in the binary subtree of the focus": the
/// Lµ-definable uniqueness constraint used in place of Fig. 16's marked
/// triples. Cycle free (downward modalities only).
Formula singleMarkFormula(FormulaFactory &FF);

} // namespace xsa

#endif // XSA_SOLVER_BDDSOLVER_H
