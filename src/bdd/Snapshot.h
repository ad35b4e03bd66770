//===- Snapshot.h - Portable BDD snapshots -----------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BddSnapshot is a manager-independent serialization of a sequence of
/// BDDs: one node table in topological order (children before parents)
/// shared by all of them, one root per BDD, and for each root the length
/// of the table prefix it needs. Variables carry whatever external
/// numbering the producer chose. The solver exports a lean's iterate
/// sequence over *lean-member indices* — bit I of the lean, not the
/// manager's interleaved variable 2I — so a snapshot taken in one
/// worker's BddManager can be imported into any other manager whose
/// variables mean the same lean members (identical lean signature).
///
/// Consecutive iterates share most of their nodes, so the table stores a
/// node once, the first time any root reaches it. Import builds each
/// entry with the manager's unique-table constructor, bottom up, so each
/// result is the canonical node of its function in the consumer; it
/// builds entries lazily, up to the prefix of the root asked for.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_BDD_SNAPSHOT_H
#define XSA_BDD_SNAPSHOT_H

#include "bdd/Bdd.h"

#include <cstdint>
#include <vector>

namespace xsa {

struct BddSnapshot {
  /// One internal node. Low/High reference the two terminals (0 = false,
  /// 1 = true) or an *earlier* table entry as index + 2, so the table is
  /// topologically ordered by construction.
  struct Node {
    uint32_t Var;
    uint32_t Low;
    uint32_t High;
  };
  std::vector<Node> Nodes;
  /// Root references in export order, same encoding as Low/High.
  std::vector<uint32_t> Roots;
  /// Ends[I]: the table prefix Nodes[0, Ends[I]) holds every node root I
  /// reaches. Non-decreasing, and the last one is Nodes.size().
  std::vector<uint32_t> Ends;

  size_t nodeCount() const { return Nodes.size(); }
  size_t numRoots() const { return Roots.size(); }

  /// Applies \p Map to every variable (e.g. manager var 2I → lean bit I
  /// on export, and back on import). Map must be injective and
  /// monotone on the snapshot's variables, or the table would no longer
  /// describe ordered BDDs.
  template <typename Fn> void mapVars(Fn Map) {
    for (Node &N : Nodes)
      N.Var = Map(N.Var);
  }
};

/// Serializes \p Roots (which must belong to \p M) as one table, walking
/// them in order with one node→entry map: a node is appended, low child
/// first, the first time any root reaches it. The table depends only on
/// the roots' functions, never on node ids. Variables are exported
/// verbatim; use mapVars for an external numbering.
BddSnapshot exportSnapshot(BddManager &M, const std::vector<Bdd> &Roots);

/// Rebuilds a snapshot's roots inside a manager (variables are created
/// as needed). For snapshots produced by exportSnapshot, root I is the
/// same function over the same variable numbering as the I-th exported
/// BDD. \p MapVar (when set) renumbers variables on the fly — the
/// solver widens stored lean-member indices to its interleaved unprimed
/// copies this way, without cloning the table; it must be injective and
/// monotone like BddSnapshot::mapVars's map.
///
/// Entries are built with the manager's unique-table constructor into a
/// buffer of raw node ids, which no GC root covers. Entry E was appended
/// while the first root J with E < Ends[J] was exported, so root J
/// reaches it. So while a GC may run between calls, the caller must hold
/// a handle on every root whose prefix is built — the solver asks for
/// the roots in order and holds each one for the whole run. Then each
/// buffered id is reachable from a held handle and survives the GC
/// (building entries never collects). Neither \p M nor \p S may change
/// or die while the importer is in use.
class SnapshotImporter {
public:
  SnapshotImporter(BddManager &M, const BddSnapshot &S,
                   unsigned (*MapVar)(unsigned) = nullptr)
      : M(M), S(S), MapVar(MapVar) {}

  /// Root \p I as a handle in the manager, building the table up to
  /// root I's prefix end first if it is not built yet.
  Bdd root(size_t I);

  /// Table entries built so far.
  size_t built() const { return Built.size(); }

private:
  uint32_t node(uint32_t Ref) const;

  BddManager &M;
  const BddSnapshot &S;
  unsigned (*MapVar)(unsigned);
  std::vector<uint32_t> Built; ///< manager node of each built entry
};

} // namespace xsa

#endif // XSA_BDD_SNAPSHOT_H
