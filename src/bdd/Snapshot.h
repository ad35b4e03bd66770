//===- Snapshot.h - Portable BDD snapshots -----------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BddSnapshot is a manager-independent serialization of one BDD: a
/// node table in topological order (children before parents) whose
/// variables carry whatever external numbering the producer chose. The
/// solver exports its fixpoint sets over *lean-member indices* — bit I
/// of the lean, not the manager's interleaved variable 2I — so a
/// snapshot taken in one worker's BddManager can be imported into any
/// other manager whose variables mean the same lean members (identical
/// lean signature). Import rebuilds through the manager's public
/// hash-consing operations, so the result is canonical in the consumer.
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
  /// Root reference, same encoding as Low/High (0, 1, or index + 2).
  uint32_t Root = 0;

  size_t nodeCount() const { return Nodes.size(); }

  /// Applies \p Map to every variable (e.g. manager var 2I → lean bit I
  /// on export, and back on import). Map must be injective and
  /// monotone on the snapshot's variables, or the table would no longer
  /// describe an ordered BDD.
  template <typename Fn> void mapVars(Fn Map) {
    for (Node &N : Nodes)
      N.Var = Map(N.Var);
  }
};

/// Serializes \p F (which must belong to \p M) as a snapshot. Variables
/// are exported verbatim; use mapVars for an external numbering.
BddSnapshot exportSnapshot(BddManager &M, const Bdd &F);

/// Rebuilds a snapshot inside \p M through its public operations
/// (variables are created as needed). For snapshots produced by
/// exportSnapshot the result is the same function over the same
/// variable numbering. \p MapVar (when set) renumbers variables on the
/// fly — the solver widens stored lean-member indices to its
/// interleaved unprimed copies this way, without cloning the table; it
/// must be injective and monotone like BddSnapshot::mapVars's map.
Bdd importSnapshot(BddManager &M, const BddSnapshot &S,
                   unsigned (*MapVar)(unsigned) = nullptr);

} // namespace xsa

#endif // XSA_BDD_SNAPSHOT_H
