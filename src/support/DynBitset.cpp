//===- DynBitset.cpp ------------------------------------------------------===//

#include "support/DynBitset.h"

#include <bit>

using namespace xsa;

size_t DynBitset::count() const {
  size_t N = 0;
  for (uint64_t W : Words)
    N += std::popcount(W);
  return N;
}

bool DynBitset::none() const {
  for (uint64_t W : Words)
    if (W)
      return false;
  return true;
}

DynBitset &DynBitset::operator|=(const DynBitset &O) {
  assert(NumBits == O.NumBits && "width mismatch");
  for (size_t I = 0; I < Words.size(); ++I)
    Words[I] |= O.Words[I];
  return *this;
}

DynBitset &DynBitset::operator&=(const DynBitset &O) {
  assert(NumBits == O.NumBits && "width mismatch");
  for (size_t I = 0; I < Words.size(); ++I)
    Words[I] &= O.Words[I];
  return *this;
}
