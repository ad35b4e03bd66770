//===- ContentModel.h - DTD content models -----------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regular expressions over element names, as found in DTD content models.
/// `EMPTY` and `#PCDATA` both denote the empty element sequence (the
/// paper's logic abstracts text away, §5.2 / Fig. 13, where title's
/// #PCDATA content becomes the $Epsilon first child).
///
/// The Glushkov (position) automaton built here serves both the validator
/// (§ membership of a document in a type) and the binarization that turns
/// unranked DTDs into binary regular tree types (Fig. 13).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_XTYPE_CONTENTMODEL_H
#define XSA_XTYPE_CONTENTMODEL_H

#include "support/StringInterner.h"

#include <memory>
#include <vector>

namespace xsa {

struct ContentModel;
using ContentRef = std::shared_ptr<const ContentModel>;

/// A regular expression over element symbols.
struct ContentModel {
  enum Kind : uint8_t {
    Eps,    ///< empty sequence (EMPTY, #PCDATA)
    Sym,    ///< an element name
    Seq,    ///< A, B
    Choice, ///< A | B
    Star,   ///< A*
    Plus,   ///< A+
    Opt,    ///< A?
  } K;
  Symbol S = 0;      // Sym
  ContentRef A, B;   // operands

  static ContentRef eps();
  static ContentRef sym(Symbol S);
  static ContentRef sym(std::string_view Name) {
    return sym(internSymbol(Name));
  }
  static ContentRef seq(ContentRef A, ContentRef B);
  static ContentRef choice(ContentRef A, ContentRef B);
  static ContentRef star(ContentRef A);
  static ContentRef plus(ContentRef A);
  static ContentRef opt(ContentRef A);
};

/// The symbols occurring in the expression.
std::vector<Symbol> contentSymbols(const ContentRef &C);

/// Glushkov position automaton: state 0 is initial; states 1..n correspond
/// to the symbol positions of the expression.
struct Glushkov {
  std::vector<Symbol> PosSym;            ///< PosSym[p-1] = symbol of position p
  std::vector<int> First;                ///< transitions from state 0
  std::vector<std::vector<int>> Follow;  ///< Follow[p-1] = positions after p
  std::vector<bool> Last;                ///< Last[p-1] = p accepting
  bool NullableRoot = false;             ///< state 0 accepting

  size_t numStates() const { return PosSym.size() + 1; }
  bool accepting(int State) const {
    return State == 0 ? NullableRoot : Last[State - 1];
  }
  /// Transitions out of \p State (positions reachable in one step).
  const std::vector<int> &transitions(int State) const {
    return State == 0 ? First : Follow[State - 1];
  }
  Symbol symbolOf(int Position) const { return PosSym[Position - 1]; }
};

/// Builds the Glushkov automaton of \p C.
Glushkov buildGlushkov(const ContentRef &C);

/// Does the word \p Symbols match the expression (via its automaton)?
bool glushkovMatches(const Glushkov &G, const std::vector<Symbol> &Symbols);

/// Prints in DTD syntax, e.g. "(meta, (text | redirect))".
std::string toString(const ContentRef &C);

} // namespace xsa

#endif // XSA_XTYPE_CONTENTMODEL_H
