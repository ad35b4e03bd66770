//===- DynBitset.h - Dynamic fixed-width bitset ------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact dynamically-sized bitset used to represent ψ-types (Hintikka
/// sets over the Lean, §6.1 of the paper) in the explicit reference solver,
/// and satisfying assignments extracted from BDDs. Width is fixed at
/// construction; all operands of binary operations must have equal width.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SUPPORT_DYNBITSET_H
#define XSA_SUPPORT_DYNBITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace xsa {

/// Fixed-width bit vector with value semantics.
class DynBitset {
public:
  DynBitset() = default;

  /// Creates an all-zero bitset of \p NumBits bits.
  explicit DynBitset(size_t NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  void set(size_t I, bool V = true) {
    assert(I < NumBits && "bit index out of range");
    uint64_t Mask = uint64_t(1) << (I % 64);
    if (V)
      Words[I / 64] |= Mask;
    else
      Words[I / 64] &= ~Mask;
  }

  void reset(size_t I) { set(I, false); }

  /// Number of set bits.
  size_t count() const;

  /// True if no bit is set.
  bool none() const;

  /// True if any bit is set.
  bool any() const { return !none(); }

  DynBitset &operator|=(const DynBitset &O);
  DynBitset &operator&=(const DynBitset &O);

  friend DynBitset operator|(DynBitset A, const DynBitset &B) { return A |= B; }
  friend DynBitset operator&(DynBitset A, const DynBitset &B) { return A &= B; }

  bool operator==(const DynBitset &O) const {
    return NumBits == O.NumBits && Words == O.Words;
  }
  bool operator!=(const DynBitset &O) const { return !(*this == O); }

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace xsa

#endif // XSA_SUPPORT_DYNBITSET_H
