//===- StringInterner.cpp -------------------------------------------------===//

#include "support/StringInterner.h"

#include <cassert>
#include <mutex>

using namespace xsa;

Symbol StringInterner::intern(std::string_view S) {
  {
    std::shared_lock<std::shared_mutex> Lock(M);
    auto It = Table.find(S);
    if (It != Table.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(M);
  // Re-check: another thread may have interned S between the two locks.
  auto It = Table.find(S);
  if (It != Table.end())
    return It->second;
  Symbol Sym = static_cast<Symbol>(Names.size());
  Names.emplace_back(S);
  // The key views the deque-owned string, which never moves.
  Table.emplace(std::string_view(Names.back()), Sym);
  return Sym;
}

const std::string &StringInterner::name(Symbol Sym) const {
  std::shared_lock<std::shared_mutex> Lock(M);
  assert(Sym < Names.size() && "unknown symbol");
  return Names[Sym];
}

StringInterner &StringInterner::global() {
  static StringInterner G;
  return G;
}
