//===- KeyEncoding.h - Injective string-key framing --------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Length-prefixed framing for compound map keys built from untrusted
/// text. `len:bytes` frames are uniquely decodable, so a concatenation
/// of framed fields is injective for arbitrary field bytes — no
/// reserved separator that input could smuggle in. Used by the request
/// signature and the optimize memo; every compound text key should go
/// through here so the injectivity argument lives in one place.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SUPPORT_KEYENCODING_H
#define XSA_SUPPORT_KEYENCODING_H

#include <string>

namespace xsa {

inline void appendLengthPrefixed(std::string &Out, const std::string &Field) {
  Out += std::to_string(Field.size());
  Out += ':';
  Out += Field;
}

inline std::string lengthPrefixedKey(const std::string &A,
                                     const std::string &B) {
  std::string Key;
  Key.reserve(A.size() + B.size() + 8);
  appendLengthPrefixed(Key, A);
  Key += B;
  return Key;
}

} // namespace xsa

#endif // XSA_SUPPORT_KEYENCODING_H
