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
#include "support/ShardedLru.h"
#include "tree/Document.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xsa {

struct SolverStats;
class ShardedResultCache;
class SharedFixpointStore;

/// One lean's canonical iterate sequence T^1, T^2, ..., exported as one
/// portable snapshot over lean-member indices. The §7.1 update operator
/// Upd is a function of the lean alone (χTypes, the ∆a clauses and the
/// witness conditions never mention the input formula, which enters only
/// through the final condition), so the sequence of iterates from ∅ is
/// the same for every formula with the same lean signature. A stored
/// prefix is therefore replayable verbatim by any such formula's run:
/// replay is output-invisible (same snapshots, same verdict, same model,
/// same iteration count as a cold run) and only skips the expensive
/// image computations. See DESIGN.md for the soundness argument.
struct FixpointSeedData {
  /// T^1 .. T^k as the roots of one node table in iteration order:
  /// consecutive iterates share most of their nodes, and the table holds
  /// each once, with the prefix each iterate needs, so replaying T^i
  /// builds only the nodes T^1 .. T^(i-1) did not. A converged sequence
  /// carries the duplicated final iterate, exactly as the solver's loop
  /// records it (a second root on the same entry).
  BddSnapshot Iterates;
  /// True when the sequence ran to Upd's fixpoint (the lfp was reached);
  /// false for the prefix of an early-terminated satisfiable run.
  bool Converged = false;
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
  /// Optional semantic result cache, not owned. When set, solve() looks
  /// up its input's canonical text (FormulaFactory::canonicalText), which
  /// only α-variants share, so a hit holds the result this run would
  /// produce. It returns a copy of a stored result on a hit (with
  /// FromCache set) and publishes the result of every actual run. The
  /// store is thread-safe, so solvers on different threads may share one.
  ShardedResultCache *Cache = nullptr;
  /// Optional observer invoked with the stats of every *actual* solver
  /// run (cache hits do not fire it). Lets a long-lived session
  /// aggregate cumulative solver work without wrapping every call site.
  /// Like Cache, it runs on the solving thread: hooks installed on
  /// solvers that run concurrently must tally into atomics (the session
  /// uses relaxed counters; see service/Context.h for the memory-order
  /// discussion).
  std::function<void(const SolverStats &)> StatsHook;
  /// Optional cross-request fixpoint store, not owned and thread-safe
  /// like Cache. When set, every actual run looks up its lean signature,
  /// replays a stored iterate prefix instead of recomputing it, and
  /// publishes its own sequence back at the end; when null (a bare
  /// solver or Analyzer) the run is unshared. Replay never changes the
  /// result — verdict, model, and the Iterations stat are those of a
  /// cold run — so, like Cache and StatsHook, Fixpoints is excluded from
  /// the options fingerprint.
  SharedFixpointStore *Fixpoints = nullptr;
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
  /// True when this result was served from the result cache; Stats then
  /// describe the original run that produced the entry.
  bool FromCache = false;
};

/// The semantic result cache: full SolverResults (verdict, model, and
/// the stats of the run that produced the entry), one cost unit each.
/// Worker threads each own a FormulaFactory, so formula pointers cannot
/// cross threads; entries are keyed on the canonical formula text
/// instead (FormulaFactory::canonicalText), which is factory-independent:
/// α-equivalent formulas print identically no matter which worker built
/// them, and no other two formulas do, save chains of one operator
/// grouped differently. The options fingerprint (solverOptionsKey)
/// completes the key, because different options can change both the
/// result and the model.
class ShardedResultCache
    : public ShardedLru<ShardedResultCache, SolverResult> {
public:
  /// \p Capacity entries in all (0 disables caching) over \p Shards
  /// shards, as ShardedLru rounds them.
  explicit ShardedResultCache(size_t Capacity = 1024, size_t Shards = 8)
      : ShardedLru(Capacity, Shards) {}

  static constexpr const char *ProbeSpan = "cache.probe";
  static constexpr const char *PublishSpan = "cache.publish";
  static size_t cost(std::string_view, const SolverResult &) { return 1; }
  /// An offer never improves on a held entry: the solver is
  /// deterministic, so a racing duplicate carries the same verdict and
  /// model, and only its volatile TimeMs could differ.
  static bool improves(const SolverResult *Held, const SolverResult &) {
    return !Held;
  }
  static void traceHit(Span &, const SolverResult &) {}
};

/// The cross-request fixpoint store: canonical iterate sequences keyed
/// on (lean signature, fixpointOptionsKey), factory-independent like the
/// result-cache keys, so any worker's run can seed any other's. Sharing
/// is sound and output-invisible because Upd is a function of the lean
/// alone (see FixpointSeedData, solver/Pipeline.h and DESIGN.md).
/// Sequences live in memory only; the persistent cache file carries
/// results. Sharing across different variable orders (re-basing a table
/// onto another lean permutation) is a known follow-on; until then
/// distinct signatures simply never meet.
class SharedFixpointStore
    : public ShardedLru<SharedFixpointStore, FixpointSeedData> {
public:
  /// The budget every session's store gets: 2^23 node units, about
  /// 100 MB, enough to keep all 14 paper-corpus sequences at once.
  static constexpr size_t DefaultNodeBudget = size_t(1) << 23;

  /// \p NodeBudget node units in all over \p Shards shards, as
  /// ShardedLru rounds them.
  explicit SharedFixpointStore(size_t NodeBudget = DefaultNodeBudget,
                               size_t Shards = 8)
      : ShardedLru(NodeBudget, Shards) {}

  static constexpr const char *ProbeSpan = "fixstore.probe";
  static constexpr const char *PublishSpan = "fixstore.publish";
  /// What an entry costs, in snapshot-node units (12 bytes): everything
  /// it holds — its shared node table and the table's header once, a
  /// root and a prefix end per iterate, its key's text and a fixed
  /// per-entry overhead — divided by a node's size, rounded up. So
  /// neither sequences of constant sets nor long keys come free.
  static size_t cost(std::string_view LeanSig, const FixpointSeedData &Data);
  /// A non-empty sequence improves on nothing; on a held one when it is
  /// converged and the held one is not, or longer at equal convergence.
  /// Racing publishers therefore converge to the best sequence whatever
  /// the interleaving.
  static bool improves(const FixpointSeedData *Held,
                       const FixpointSeedData &Offer);
  static void traceHit(Span &Probe, const FixpointSeedData &Hit) {
    if (Probe.active()) {
      Probe.arg("snapshots", static_cast<double>(Hit.Iterates.numRoots()));
      Probe.arg("nodes", static_cast<double>(Hit.Iterates.nodeCount()));
    }
  }
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
/// triples. Cycle free (downward modalities only). Its binders have
/// fixed `%`-prefixed names, which no parsed formula can spell, so every
/// call returns the same hash-consed node (and its unfolds hit the
/// factory's memo). That is safe: the formula is closed and is only
/// conjoined at the top of a solver input, so no substitution reaches
/// into it and no binder can capture its variables.
Formula singleMarkFormula(FormulaFactory &FF);

} // namespace xsa

#endif // XSA_SOLVER_BDDSOLVER_H
