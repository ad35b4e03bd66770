//===- StringInterner.h - Global string interning ---------------*- C++ -*-===//
//
// Part of the xsa project: reproduction of "Efficient Static Analysis of XML
// Paths and Types" (Genevès, Layaïda & Schmitt, PLDI 2007 / INRIA RR-6590).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns strings (element names, recursion-variable names) into small
/// integer symbols so that the rest of the system can compare and hash labels
/// in O(1). A single process-wide interner is used: labels flow between
/// XPath expressions, DTDs, logic formulas and trees, and must agree.
///
/// The interner is thread-safe: parallel batch dispatch (see
/// service/Session.h) runs one parser/compiler per worker thread, and all
/// of them intern labels concurrently. name() takes a shared lock; intern
/// takes a shared lock on its fast path and upgrades to an exclusive lock
/// only for first-time insertions. Symbol values are dense, assigned in
/// insertion order, and never change once published, so a Symbol
/// obtained by any thread is valid everywhere afterwards. Names are
/// stored in a deque, whose elements never move, so the references handed
/// out by name() stay valid for the life of the process even while other
/// threads keep interning.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SUPPORT_STRINGINTERNER_H
#define XSA_SUPPORT_STRINGINTERNER_H

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace xsa {

/// An interned string. Symbols are dense, starting at 0.
using Symbol = uint32_t;

/// Maps strings to dense integer symbols and back. Safe for concurrent
/// use from multiple threads.
class StringInterner {
public:
  /// Returns the symbol for \p S, interning it on first use.
  Symbol intern(std::string_view S);

  /// Returns the string for a previously interned symbol. The reference
  /// is stable: it survives later interning from any thread.
  const std::string &name(Symbol Sym) const;

  /// The process-wide interner shared by all xsa components.
  static StringInterner &global();

private:
  mutable std::shared_mutex M;
  /// Deque, not vector: element addresses are stable across growth, so
  /// name() can return references without holding the lock.
  std::deque<std::string> Names;
  std::unordered_map<std::string_view, Symbol> Table;
};

/// Convenience: intern into the global interner.
inline Symbol internSymbol(std::string_view S) {
  return StringInterner::global().intern(S);
}

/// Convenience: resolve a symbol from the global interner.
inline const std::string &symbolName(Symbol Sym) {
  return StringInterner::global().name(Sym);
}

} // namespace xsa

#endif // XSA_SUPPORT_STRINGINTERNER_H
