//===- Dtd.h - DTD parsing ---------------------------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A DTD as a map from element names to content models, plus a designated
/// root. The parser handles <!ELEMENT> declarations, parameter entities
/// (<!ENTITY % n "...">, needed by real-world DTDs like XHTML), `ANY`,
/// and mixed content; <!ATTLIST>, comments and processing instructions
/// are skipped — the paper's XPath fragment has no attribute axis and no
/// data values.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_XTYPE_DTD_H
#define XSA_XTYPE_DTD_H

#include "xtype/ContentModel.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace xsa {

class Dtd {
public:
  /// Declares (or redeclares) an element.
  void declare(Symbol Element, ContentRef Content);
  void declare(std::string_view Element, ContentRef Content) {
    declare(internSymbol(Element), std::move(Content));
  }

  bool isDeclared(Symbol Element) const { return Content.count(Element); }
  const ContentRef &content(Symbol Element) const {
    return Content.at(Element);
  }

  /// Elements in declaration order.
  const std::vector<Symbol> &elements() const { return Elements; }

  /// Number of declared element symbols (Table 1's "Symbols").
  size_t numSymbols() const { return Elements.size(); }

  /// The root element (defaults to the first declared element).
  Symbol root() const { return Root; }
  void setRoot(Symbol S) { Root = S; }
  void setRoot(std::string_view S) { Root = internSymbol(S); }

private:
  std::vector<Symbol> Elements;
  std::unordered_map<Symbol, ContentRef> Content;
  Symbol Root = ~0u;
};

/// Parses DTD text into \p D. Returns false and fills \p Error on failure,
/// including a DTD that declares no element and one whose content models
/// name an element it never declares (the error names that element).
bool parseDtd(std::string_view Input, Dtd &D, std::string &Error);

} // namespace xsa

#endif // XSA_XTYPE_DTD_H
