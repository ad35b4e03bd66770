//===- Bdd.h - Binary decision diagram package -------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained reduced ordered BDD package. The paper (§7) implements
/// its satisfiability algorithm on top of a BDD library (the implicit
/// representation of sets of ψ-types, the ∆a relations, and the fixpoint
/// computation are all boolean-function manipulations). No third-party BDD
/// library is available offline, so this module provides the substrate from
/// scratch:
///
///   * hash-consed node store with a unique table (canonicity);
///   * apply with operation caches;
///   * existential quantification and the combined relational product
///     (andExists) needed for the early-quantification scheme of §7.3;
///   * variable renaming, support and satisfying-assignment extraction
///     (used by the fixpoint's primed copies and model reconstruction,
///     §7.2);
///   * deferred-reclamation mark-and-sweep garbage collection driven by
///     external reference counts on Bdd handles.
///
/// Variables are identified by dense integer indices; the variable order is
/// the index order (the solver chooses indices with the breadth-first
/// heuristic of §7.4).
///
/// Canonical hash-consing means every public operation returns the reduced
/// ordered BDD of its boolean function, which is unique per variable
/// order. Node *ids* depend on the order operations ran in (two managers
/// built the same function may number it differently); node *structure*
/// cannot. Everything that leaves a manager — verdicts, models, snapshots,
/// `--stable` output — reads structure through rawNode(), never ids.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_BDD_BDD_H
#define XSA_BDD_BDD_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace xsa {

class BddManager;
class SnapshotImporter;

/// A reference-counted handle to a BDD node. Copying a handle bumps the
/// external reference count used as GC roots; destroying it drops the count.
/// Handles are cheap (pointer + index) and have value semantics.
class Bdd {
public:
  Bdd() = default;
  Bdd(const Bdd &O);
  Bdd(Bdd &&O) noexcept;
  Bdd &operator=(const Bdd &O);
  Bdd &operator=(Bdd &&O) noexcept;
  ~Bdd();

  /// True if this handle refers to a node (even the constant nodes).
  bool valid() const { return Mgr != nullptr; }

  bool isOne() const;
  bool isZero() const;

  BddManager *manager() const { return Mgr; }
  uint32_t node() const { return Node; }

  // Logical operations (all go through the manager's caches).
  Bdd operator&(const Bdd &O) const;
  Bdd operator|(const Bdd &O) const;
  Bdd operator^(const Bdd &O) const;
  Bdd operator!() const;
  Bdd implies(const Bdd &O) const;
  Bdd iff(const Bdd &O) const;

  Bdd &operator&=(const Bdd &O) { return *this = *this & O; }
  Bdd &operator|=(const Bdd &O) { return *this = *this | O; }
  Bdd &operator^=(const Bdd &O) { return *this = *this ^ O; }

  /// Structural equality: by canonicity, equal iff same function.
  bool operator==(const Bdd &O) const {
    return Mgr == O.Mgr && Node == O.Node;
  }
  bool operator!=(const Bdd &O) const { return !(*this == O); }

private:
  friend class BddManager;
  Bdd(BddManager *Mgr, uint32_t Node, bool AlreadyReferenced);

  BddManager *Mgr = nullptr;
  uint32_t Node = 0;
};

/// The BDD manager. Owns a node store, a growable unique table and
/// deferred mark-and-sweep GC driven by the external reference counts of
/// Bdd handles. All Bdd handles belong to exactly one manager and mixing
/// managers is a programming error (asserted). The solver owns one manager
/// per run and calls it from one thread at a time.
///
/// The direct-mapped operation cache is borrowed: each thread keeps one
/// 5 MB buffer and lends it to each manager built there, so a solve does
/// not allocate and fill one. A manager takes its thread's spare buffer,
/// or allocates a zeroed one if there is none (a thread's first manager,
/// or a second live one), and gives it back on destruction.
class BddManager {
public:
  /// \param InitialVars number of variables to pre-create (more can be
  ///        added with ensureVars / var).
  explicit BddManager(unsigned InitialVars = 0);
  ~BddManager();

  BddManager(const BddManager &) = delete;
  BddManager &operator=(const BddManager &) = delete;

  /// Constant true / false.
  Bdd one();
  Bdd zero();

  /// The function of variable \p Var (positive literal).
  Bdd var(unsigned Var);

  /// Creates variables up to index \p NumVars - 1.
  void ensureVars(unsigned NumVars);
  unsigned numVars() const { return NumVars; }

  /// Existentially quantifies the variables of \p Cube (a positive
  /// conjunction of variables) out of \p F.
  Bdd exists(const Bdd &F, const Bdd &Cube);

  /// Relational product: exists(Cube, F & G) computed without building
  /// the full conjunction. This is the workhorse of §7.3.
  Bdd andExists(const Bdd &F, const Bdd &G, const Bdd &Cube);

  /// A positive cube over \p Vars (sorted or not).
  Bdd cube(const std::vector<unsigned> &Vars);

  /// Renames variables: node with variable v becomes variable VarMap[v].
  /// VarMap must be strictly increasing on the support of F (the variable
  /// order is preserved), which holds for the solver's interleaved
  /// unprimed/primed copies.
  Bdd remapVars(const Bdd &F, const std::vector<unsigned> &VarMap);

  /// Extracts one satisfying assignment of F. Returns false if F is the
  /// zero function. Variables not on the chosen path are reported in
  /// \p DontCare (any value satisfies) and assigned 'false' in \p Values.
  /// \p Values is resized to numVars().
  bool satOne(const Bdd &F, std::vector<bool> &Values,
              std::vector<bool> *DontCare = nullptr);

  /// The set of variables F depends on.
  std::vector<unsigned> support(const Bdd &F);

  /// Live node statistics (excluding dead-but-unswept nodes).
  size_t numNodes() const { return NodeCount; }
  size_t peakNodes() const { return PeakNodeCount; }

  /// Probe statistics for the hash-consing unique table (mk chain walks)
  /// and the operation cache. The solver samples these into
  /// observability gauges at span boundaries (obs/Metrics.h).
  size_t uniqueLookups() const { return UniqueLookups; }
  size_t uniqueHits() const { return UniqueHits; }
  size_t opCacheLookups() const { return OpCacheLookups; }
  size_t opCacheHits() const { return OpCacheHits; }

  /// Forces a mark-and-sweep collection. Called automatically when the
  /// node store grows past an adaptive threshold.
  void gc();

  /// Structural view of one node, the currency of the structural
  /// algorithms and of snapshot export. Terminals report Var ==
  /// TerminalVar.
  struct RawNode {
    uint32_t Var;
    uint32_t Low;
    uint32_t High;
  };
  RawNode rawNode(uint32_t N) const {
    const Node &Nd = Nodes[N];
    return {Nd.Var, Nd.Low, Nd.High};
  }

  static constexpr uint32_t ZeroNode = 0;
  static constexpr uint32_t OneNode = 1;
  static constexpr uint32_t TerminalVar = ~0u;

  /// The last op-cache generation before the 24-bit stamp field wraps.
  static constexpr uint32_t MaxCacheGeneration = (1u << 24) - 1;

  /// Test hook: sets the generation of this thread's spare op-cache
  /// buffer, allocating the spare if the thread has none. The next manager
  /// built on this thread takes that buffer and advances from
  /// \p Generation, so a test reaches the wrap without 2^24 managers.
  static void setSpareCacheGenerationForTest(uint32_t Generation);

private:
  friend class Bdd;
  /// Snapshot import builds table entries with mk straight into a buffer
  /// of raw node ids (bdd/Snapshot.h).
  friend class SnapshotImporter;

  enum class Op : uint8_t { And, Or, Xor };

  struct Node {
    uint32_t Var;  ///< variable index; ~0u marks terminal nodes
    uint32_t Low;  ///< else-branch node id
    uint32_t High; ///< then-branch node id
    uint32_t Next; ///< unique-table chain / free list
    uint32_t Refs; ///< external references (GC roots)
    bool Mark;     ///< GC mark bit
  };

  // External-reference bookkeeping for Bdd handles (GC roots).
  void ref(uint32_t N) { ++Nodes[N].Refs; }
  void deref(uint32_t N) {
    assert(Nodes[N].Refs > 0 && "over-deref of BDD node");
    --Nodes[N].Refs;
  }
  void maybeGc();

  Bdd wrap(uint32_t N) { return Bdd(this, N, /*AlreadyReferenced=*/false); }

  uint32_t var2Node(unsigned Var);

  // Node management.
  uint32_t mk(uint32_t Var, uint32_t Low, uint32_t High);
  uint32_t allocNode();
  void growUniqueTable();
  void markRecursive(uint32_t N);

  // Core recursive algorithms (on raw node ids).
  uint32_t applyRec(Op O, uint32_t A, uint32_t B);
  uint32_t notRec(uint32_t F);
  uint32_t existsRec(uint32_t F, uint32_t Cube);
  uint32_t andExistsRec(uint32_t F, uint32_t G, uint32_t Cube);

  // The op cache. Direct-mapped and lossy; entries store all operands so
  // that a hash collision can never produce a wrong result. Each entry
  // carries the stamp Generation << 8 | OpTag (0: never written) and a
  // lookup hits only on the current one. A new manager or a GC advances
  // the buffer's generation, so earlier entries read as empty without a
  // fill. cacheSlot hashes the plain tag, not the stamp, so slots, and
  // with them collisions and exact counts, are those of a fresh cache.
  struct CacheEntry {
    uint32_t A;
    uint32_t B;
    uint32_t C;
    uint32_t Stamp;
    uint32_t Result;
  };
  struct OpCacheBuffer; // the entries and their generation (Bdd.cpp)
  CacheEntry &cacheSlot(uint8_t OpTag, uint32_t A, uint32_t B, uint32_t C);
  uint32_t stamp(uint8_t OpTag) const;
  /// Empties the op cache by advancing its generation.
  void clearCaches();
  /// This thread's spare buffer (a thread_local in Bdd.cpp).
  static std::unique_ptr<OpCacheBuffer> &spareCache();

  unsigned NumVars = 0;
  std::vector<uint32_t> VarNodes; // cached single-variable nodes

  std::vector<Node> Nodes;
  std::vector<uint32_t> UniqueTable; // bucket heads
  uint32_t FreeList = ~0u;
  size_t NodeCount = 0;
  size_t PeakNodeCount = 0;
  size_t GcThreshold;
  size_t UniqueLookups = 0;
  size_t UniqueHits = 0;
  size_t OpCacheLookups = 0;
  size_t OpCacheHits = 0;

  std::unique_ptr<OpCacheBuffer> OpCache; // borrowed; see the class comment
};

} // namespace xsa

#endif // XSA_BDD_BDD_H
